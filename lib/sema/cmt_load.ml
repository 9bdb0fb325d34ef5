(* Discovery and loading of compiler-generated .cmt typedtrees.

   dune emits a .cmt next to every .cmo/.cmx (the lib dune files pass
   -bin-annot explicitly so the guarantee does not rest on dune's
   default).  The analyzer scans a build root — [_build/default] when
   run from the repo root, [.] when run from inside a dune action —
   for *.cmt files, reads each with [Cmt_format.read_cmt], and keeps
   implementations whose recorded source path falls under one of the
   requested source roots. *)

type unit_info = {
  u_modname : string;  (** compilation unit, e.g. ["Engine__Scheduler"] *)
  u_short : string;  (** short module name, e.g. ["Scheduler"] *)
  u_source : string;  (** source path as compiled, e.g. ["lib/engine/scheduler.ml"] *)
  u_structure : Typedtree.structure;
}

let short_of_modname modname =
  (* dune-wrapped units are ["Lib__Module"]; the toplevel alias module
     itself ("Engine") and unwrapped units have no separator *)
  let n = String.length modname in
  let rec after_last_sep i best =
    if i + 1 >= n then best
    else if modname.[i] = '_' && modname.[i + 1] = '_' then
      after_last_sep (i + 2) (i + 2)
    else after_last_sep (i + 1) best
  in
  let i = after_last_sep 0 0 in
  String.sub modname i (n - i)

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rec scan_dir path acc =
  match Sys.readdir path with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let full = Filename.concat path name in
        if Sys.is_directory full then
          (* the install tree duplicates every .objs cmt *)
          if name = "install" || name = ".git" then acc else scan_dir full acc
        else if Filename.check_suffix name ".cmt" then full :: acc
        else acc)
      acc entries

let scan_cmt_files root = List.rev (scan_dir root [])

let load_file path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some source ->
      let modname = cmt.Cmt_format.cmt_modname in
      Some
        {
          u_modname = modname;
          u_short = short_of_modname modname;
          u_source = source;
          u_structure = str;
        }
    | _ -> None)

let loads = ref 0

let load_count () = !loads

let load ~root ~source_prefixes =
  incr loads;
  let keep u =
    source_prefixes = [] || List.exists (fun p -> has_prefix p u.u_source) source_prefixes
  in
  let units =
    List.filter_map
      (fun path ->
        match load_file path with
        | Some u when keep u -> Some u
        | Some _ | None -> None)
      (scan_cmt_files root)
  in
  (* the same unit can be discovered through several build contexts;
     keep one per compilation-unit name, smallest source path first so
     the choice is deterministic *)
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun u ->
      match Hashtbl.find_opt by_name u.u_modname with
      | Some prev when String.compare prev.u_source u.u_source <= 0 -> ()
      | _ -> Hashtbl.replace by_name u.u_modname u)
    units;
  Hashtbl.fold (fun _ u acc -> u :: acc) by_name []
  |> List.sort (fun a b -> String.compare a.u_source b.u_source)

let default_root () = if Sys.file_exists "_build/default" then "_build/default" else "."
