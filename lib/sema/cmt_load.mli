(** Discovery and loading of compiler-generated [.cmt] typedtrees.

    The typed lint rules, the race analysis and the alloc analysis of
    clove-check work on the typedtree rather than the parsetree: names are resolved, so
    [Hashtbl.replace] through an alias or an [open] is still seen, and
    idents carry stamps that distinguish a module-level table from a
    shadowing local. *)

type unit_info = {
  u_modname : string;  (** compilation unit, e.g. ["Engine__Scheduler"] *)
  u_short : string;  (** short module name, e.g. ["Scheduler"] *)
  u_source : string;  (** source path as compiled, relative to the repo root *)
  u_structure : Typedtree.structure;
}

val short_of_modname : string -> string
(** ["Engine__Scheduler"] → ["Scheduler"]; names without a ["__"]
    separator are returned unchanged. *)

val scan_cmt_files : string -> string list
(** Every [*.cmt] under the given directory, in sorted traversal
    order, skipping [install] trees (dune duplicates artifacts
    there). *)

val load_file : string -> unit_info option
(** Read one [.cmt]; [None] for interfaces, partial implementations or
    unreadable files. *)

val load : root:string -> source_prefixes:string list -> unit_info list
(** All implementation units under [root] whose recorded source path
    starts with one of [source_prefixes] (empty list = keep all),
    deduplicated by unit name and sorted by source path. *)

val load_count : unit -> int
(** Calls to {!load} in this process; the clove-check report records
    it to show that one run reads the typedtrees once. *)

val default_root : unit -> string
(** [_build/default] when it exists (running from the repo root),
    else ["."] (running from inside the build tree). *)
