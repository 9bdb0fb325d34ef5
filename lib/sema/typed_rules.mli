(** The lint rules of clove-check, on the typedtree.

    One [Tast_iterator] pass per compilation unit matches resolved
    paths:
    - [obj-magic]: any use of [Stdlib.Obj.magic];
    - [poly-compare]: any use of [Stdlib.compare] (a user-defined or
      module-qualified [compare] is a different path and stays clean);
    - [bare-ignore]: [Stdlib.ignore] applied to anything but an
      identifier or a field read of one ([ignore t.field] discards
      nothing computed), including [ignore @@ e] and [e |> ignore];
    - [hashtbl-find]: any use of [Stdlib.Hashtbl.find];
    - [float-eq]: [Stdlib.(=)] or [Stdlib.(<>)] with a float-constant
      operand;
    - [sema-domain-parallel]: any value of [Domain], [Mutex],
      [Condition], [Atomic] or [Thread] except [Atomic.get], outside
      {!parallel_whitelist}.

    Comments and string literals are not expressions, so no rule can
    fire on them.  A finding is dropped when its line or the line above
    carries [(* lint: allow <rule> *)]. *)

val rules : (string * string) list
(** [(rule_id, description)] for the typed rules and [missing-mli]. *)

val parallel_whitelist : string list
(** Source paths allowed to use multicore primitives: the domain pool,
    the scheduler's id counter and the packet layer. *)

val analyze : source_root:string -> Cmt_load.unit_info -> Analysis.Findings.t list
(** Every unsuppressed typed-rule finding in one unit, sorted.  The
    unit's recorded source path is the finding file; [source_root]
    anchors it when scanning for suppression comments. *)

val missing_mli :
  source_root:string ->
  ml_files:string list ->
  mli_files:string list ->
  Analysis.Findings.t list
(** [missing-mli] findings for the [ml_files] that have no matching
    interface in [mli_files] (paths compared without extension), unless
    the file carries a [lint: allow missing-mli] comment anywhere. *)
