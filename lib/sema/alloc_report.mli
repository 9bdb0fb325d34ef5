(** Alloc reporting: hot-region allocation findings with a
    call-chain witness from their dispatch root, [alloc-cold]
    demotion for cold-guarded sites, [(* alloc-allow: reason *)]
    suppressions (empty reason = [alloc-allow-empty] finding), and the
    committed-budget lifecycle via [Analysis.Findings].

    Finding identity is ("alloc-<kind>", file, "node: desc") —
    line-free; a new identity is a new hot-path allocation and fails
    clove-check. *)

type stats = {
  st_units : int;
  st_nodes : int;
  st_hot_nodes : int;
  st_roots : int;
  st_sites_total : int;  (** allocation sites in hot nodes, pre-merge *)
  st_sites_cold : int;
}

type t = {
  a_findings : Analysis.Findings.t list;  (** suppressed included, sorted *)
  a_stats : stats;
  a_roots : (string * string) list;  (** (node id, origin), sorted *)
  a_files : string list;
  a_per_kind : (string * int) list;  (** active sites per kind slug, sorted *)
  a_per_module : (string * int) list;  (** active sites per file, sorted *)
}

val run : source_root:string -> Cmt_load.unit_info list -> Race_extract.linked -> t
(** Compute the hot region of the linked graph and the cold spans of
    the given units, and assemble the findings.  [source_root] anchors
    the relative source paths when scanning for [alloc-allow]
    comments. *)

val baseline_json : t -> Analysis.Json_out.t
(** Budget file content (tool ["clove-alloc"]): the active findings'
    identity keys. *)

val rule_descriptions : (string * string) list
val report_json : t -> new_keys:(string, unit) Hashtbl.t -> Analysis.Json_out.t
