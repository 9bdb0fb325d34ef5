(** Race reporting: the witness-carrying footprint fixpoint, root
    analysis, and [(* race-allow: reason *)] line and
    [(* race-allow-file: reason *)] file suppressions.  Findings are
    {!Analysis.Findings.t}; a file marker suppresses every finding in
    the file, line-scope markers take precedence.

    Rules: [race-shared-mut] (module-level state mutated by a
    domain-parallel task without atomic/lock/DLS discipline),
    [race-captured-mut] (same for closure-captured state), and
    [race-allow-empty] (a suppression whose justification is blank —
    justifications are mandatory). *)

type hop = { h_site : Race_extract.site; h_desc : string }

type stats = {
  st_units : int;
  st_nodes : int;
  st_edges : int;
  st_mutations : int;
  st_protected : int;
  st_roots : int;
}

type t = {
  r_findings : Analysis.Findings.t list;
      (** suppressed included; sorted by (file, line, rule, target); the
          ["roots"] extra field lists the parallel roots reaching each *)
  r_stats : stats;
  r_roots : (string * Race_extract.site) list;
  r_files : string list;
}

val run : source_root:string -> Cmt_load.unit_info list -> Race_extract.linked -> t
(** Solve and report over the linked graph of the given units.
    [source_root] anchors the relative source paths recorded in the
    [.cmt]s when scanning for [race-allow] comments. *)

val baseline_json : t -> Analysis.Json_out.t
(** Baseline file content (tool ["clove-race"]): the active findings'
    identity keys. *)

val rule_descriptions : (string * string) list
val report_json : t -> new_keys:(string, unit) Hashtbl.t -> Analysis.Json_out.t
