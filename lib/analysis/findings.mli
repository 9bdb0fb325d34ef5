(** The one finding type of clove-check and its lifecycle: sorted
    deterministic serialization, SARIF 2.1.0, committed-baseline
    load/diff, and the one source-comment suppression scanner. *)

type t = {
  rule : string;
  file : string;
  line : int;
  target : string;  (** stable identity within the file, line-free *)
  message : string;
  witness : string list;  (** rendered chain, root first; [[]] = none *)
  extra : (string * Json_out.t) list;  (** tool-specific JSON fields *)
  reason : string option;  (** suppression justification; [None] = active *)
}

val make : rule:string -> file:string -> line:int -> string -> t
(** An active finding without witness or extra fields whose message
    doubles as its target (for rules that have no baseline). *)

val key : t -> string
(** Baseline identity: ["rule|file|target"].  Line numbers are
    deliberately excluded so unrelated edits do not churn committed
    baselines. *)

val is_active : t -> bool
(** Not suppressed by a justified allow-comment. *)

val sort : t list -> t list
(** By (file, line, rule, target) — the one artifact order. *)

val pp : Format.formatter -> t -> unit
(** [file:line: [rule] message], then one indented line per witness
    hop. *)

(** {2 Source-comment suppressions}

    One scanner serves every marker: [lint: allow <rule>],
    [race-allow:], [race-allow-file:] and [alloc-allow:].  A blank in a
    marker matches any run of blanks; a marker ending in a word
    character must end on a word boundary. *)

val lint_marker : string -> string
(** [lint_marker rule] is ["lint: allow " ^ rule]. *)

val allow_in : marker:string -> string array -> int -> string option
(** [Some reason] (possibly empty) when the given 1-based line or the
    line above it in the source lines carries [marker]; the reason is
    the text after the marker up to the comment close, trimmed. *)

val clear_source_cache : unit -> unit
(** Drop the per-process source-line cache; call once per run. *)

val allow_at :
  marker:string -> source_root:string -> string -> int -> string option
(** {!allow_in} on the file at [source_root/file]; [None] when the
    file cannot be read. *)

val allow_file :
  marker:string -> source_root:string -> string -> (int * string) option
(** First marker anywhere in the file at [source_root/file], as
    [(line, reason)]. *)

(** {2 Baseline} *)

val baseline_json : tool:string -> t list -> Json_out.t
(** Baseline file content: the active findings' identity keys. *)

val load_baseline : string -> (string * (string, unit) Hashtbl.t, string) result
(** The ["tool"] a committed baseline belongs to and its keys; [Error]
    on parse trouble so CI fails loudly rather than treating everything
    as new. *)

val new_findings : t list -> (string, unit) Hashtbl.t -> t list
(** Active findings whose identity key is not in the baseline. *)

val key_table : t list -> (string, unit) Hashtbl.t

(** {2 Output} *)

val finding_json : new_keys:(string, unit) Hashtbl.t -> t -> Json_out.t
val findings_json : new_keys:(string, unit) Hashtbl.t -> t list -> Json_out.t

val sarif :
  tool:string ->
  rules:(string * string) list ->
  new_keys:(string, unit) Hashtbl.t ->
  t list ->
  Json_out.t
(** SARIF 2.1.0: active findings only, level ["error"] for new keys,
    ["warning"] otherwise. *)
