(* clove-check: every static analysis of the repository in one run.

   Usage:
     clove_check [-o FILE]            JSON report (default
                                      clove_check_report.json)
                 [--sarif FILE]       also write a SARIF 2.1.0 artifact
                 [--baseline FILE]*   committed race/alloc baseline; its
                                      "tool" field names the analysis
                 [--write-baseline]   rewrite every --baseline file from
                                      this run and exit
                 [--bench-out FILE]   wall-time/count record
                 [root ...]           default: lib bin bench examples

   The roots are walked once and the .cmt typedtrees under the build
   root (_build/default from the repo root, . inside a dune action) are
   loaded once.  Every .ml under a root must have a typedtree.  Then:
   - the typed lint rules and sema-domain-parallel (Sema.Typed_rules)
     run on every unit, the parsetree determinism and unit-safety rules
     (Sema.Rules) on every source, and missing-mli on lib/ modules;
   - the module graph and unused-export report are informational; the
     test/ sources count as consumers without being checked;
   - one Race_extract.analyze over the library units (executables are
     harnesses) feeds both the race and the alloc analysis, each diffed
     against its baseline.

   Exit status: 0 clean; 1 a lint/sema finding, or a race/alloc finding
   outside its baseline; 2 usage error, missing root, unreadable
   baseline, or an .ml without a typedtree. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let skip_dir name =
  name = "_build" || name = "results" || name = "fixtures"
  || (String.length name > 0 && name.[0] = '.')

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if skip_dir name then acc else walk (Filename.concat path name) acc)
      acc (Sys.readdir path)
  else path :: acc

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("clove-check: " ^ s); exit 2) fmt

let () =
  let report_path = ref "clove_check_report.json" in
  let sarif_path = ref None in
  let baselines = ref [] in
  let write_baseline = ref false in
  let bench_path = ref None in
  let roots = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "-o" :: path :: rest ->
      report_path := path;
      parse_args rest
    | "--sarif" :: path :: rest ->
      sarif_path := Some path;
      parse_args rest
    | "--baseline" :: path :: rest ->
      baselines := path :: !baselines;
      parse_args rest
    | "--write-baseline" :: rest ->
      write_baseline := true;
      parse_args rest
    | "--bench-out" :: path :: rest ->
      bench_path := Some path;
      parse_args rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      fail
        "unknown or incomplete option %s; usage: clove_check [-o FILE] \
         [--sarif FILE] [--baseline FILE]* [--write-baseline] [--bench-out \
         FILE] [root ...]"
        arg
    | root :: rest ->
      roots := root :: !roots;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev !roots with
    | [] -> [ "lib"; "bin"; "bench"; "examples" ]
    | roots -> roots
  in
  (* a typo'd root must not silently check nothing and report OK *)
  List.iter
    (fun root -> if not (Sys.file_exists root) then fail "root '%s' does not exist" root)
    roots;
  (* lint: allow sema-wall-clock — analyzer harness timing, not simulation time *)
  let t0 = Unix.gettimeofday () in
  let files = List.sort String.compare (List.fold_left (fun acc r -> walk r acc) [] roots) in
  let ml_files = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let mli_files = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let units =
    Sema.Cmt_load.load ~root:(Sema.Cmt_load.default_root ())
      ~source_prefixes:(List.map (fun r -> r ^ "/") roots)
  in
  (* the typed rules must never silently lose a file *)
  let typed = Hashtbl.create 128 in
  List.iter (fun u -> Hashtbl.replace typed u.Sema.Cmt_load.u_source ()) units;
  (match List.filter (fun f -> not (Hashtbl.mem typed f)) ml_files with
  | [] -> ()
  | missing ->
    fail "no typedtree (.cmt) for %s — build it with dune (which passes -bin-annot) first"
      (String.concat ", " missing));
  let source_root = "." in
  let lint =
    List.concat_map
      (fun u ->
        if List.mem u.Sema.Cmt_load.u_source ml_files then
          Sema.Typed_rules.analyze ~source_root u
        else [])
      units
  in
  let ml_sources = List.map (fun f -> (f, read_file f)) ml_files in
  let mli_sources = List.map (fun f -> (f, read_file f)) mli_files in
  let sema = List.concat_map (fun (file, src) -> Sema.Rules.analyze_source ~file src) ml_sources in
  let missing_mli =
    Sema.Typed_rules.missing_mli ~source_root
      ~ml_files:(List.filter (has_prefix "lib/") ml_files)
      ~mli_files
  in
  let checked = Analysis.Findings.sort (lint @ sema @ missing_mli) in
  let test_sources =
    if Sys.file_exists "test" && Sys.is_directory "test" then
      List.filter (fun f -> Filename.check_suffix f ".ml") (walk "test" [])
      |> List.map (fun f -> (f, read_file f))
    else []
  in
  let graph = Sema.Rules.module_graph ml_sources in
  let unused =
    Sema.Rules.unused_exports ~ml_sources:(ml_sources @ test_sources) ~mli_sources
  in
  (* race and alloc: library units only, one linked graph for both *)
  let lib_units =
    List.filter (fun u -> not (has_prefix "Dune__exe" u.Sema.Cmt_load.u_modname)) units
  in
  let linked = Sema.Race_extract.analyze lib_units in
  let race = Sema.Race_report.run ~source_root lib_units linked in
  let alloc = Sema.Alloc_report.run ~source_root lib_units linked in
  (* lint: allow sema-wall-clock — analyzer harness timing, not simulation time *)
  let wall_s = Unix.gettimeofday () -. t0 in
  let baselines =
    List.rev_map
      (fun path ->
        match Analysis.Findings.load_baseline path with
        | Ok (("clove-race" | "clove-alloc") as tool, keys) -> (path, tool, keys)
        | Ok (tool, _) -> fail "baseline %s is for unknown tool '%s'" path tool
        | Error e -> fail "cannot read baseline %s: %s" path e)
      !baselines
  in
  if !write_baseline then begin
    List.iter
      (fun (path, tool, _) ->
        Analysis.Json_out.to_file path
          (if tool = "clove-race" then Sema.Race_report.baseline_json race
           else Sema.Alloc_report.baseline_json alloc);
        Format.printf "clove-check: %s baseline written to %s@." tool path)
      baselines;
    exit 0
  end;
  let keys_of tool =
    match List.find_opt (fun (_, t, _) -> t = tool) baselines with
    | Some (_, _, keys) -> keys
    | None -> Hashtbl.create 1
  in
  let race_new =
    Analysis.Findings.new_findings race.Sema.Race_report.r_findings (keys_of "clove-race")
  in
  let alloc_new =
    Analysis.Findings.new_findings alloc.Sema.Alloc_report.a_findings
      (keys_of "clove-alloc")
  in
  (* "new" = fails this run: every lint/sema finding (they have no
     baseline) and every race/alloc finding outside its baseline *)
  let failing = checked @ race_new @ alloc_new in
  let new_keys = Analysis.Findings.key_table failing in
  let rules =
    Sema.Typed_rules.rules @ Sema.Rules.rules @ Sema.Race_report.rule_descriptions
    @ Sema.Alloc_report.rule_descriptions
  in
  let open Analysis.Json_out in
  let count p fs = Int (List.length (List.filter p fs)) in
  let active = Analysis.Findings.is_active in
  let stats =
    [
      ("files_analyzed", Int (List.length ml_files));
      ("interfaces", Int (List.length mli_files));
      ("units", Int (List.length units));
      ("typedtree_loads", Int (Sema.Cmt_load.load_count ()));
      ("race_extract_runs", Int (Sema.Race_extract.analyze_count ()));
    ]
  in
  to_file !report_path
    (Obj
       ([
          ("tool", String "clove-check");
          ("version", Int 1);
          ("stats", Obj stats);
          ( "rules",
            List
              (List.map
                 (fun (id, descr) -> Obj [ ("id", String id); ("description", String descr) ])
                 rules) );
          ("findings", Analysis.Findings.findings_json ~new_keys checked);
        ]
       @ Sema.Rules.report_json ~graph ~unused
       @ [
           ("race", Sema.Race_report.report_json race ~new_keys);
           ("alloc", Sema.Alloc_report.report_json alloc ~new_keys);
         ]));
  Option.iter
    (fun path ->
      to_file path
        (Analysis.Findings.sarif ~tool:"clove-check" ~rules ~new_keys
           (checked @ race.Sema.Race_report.r_findings @ alloc.Sema.Alloc_report.a_findings)))
    !sarif_path;
  Option.iter
    (fun path ->
      let rs = race.Sema.Race_report.r_stats and als = alloc.Sema.Alloc_report.a_stats in
      let race_fs = race.Sema.Race_report.r_findings
      and alloc_fs = alloc.Sema.Alloc_report.a_findings in
      to_file path
        (Obj
           ([ ("benchmark", String "clove-check"); ("wall_s", Float wall_s) ]
           @ stats
           @ [
               ("checked_findings", Int (List.length checked));
               ( "race",
                 Obj
                   [
                     ("nodes", Int rs.Sema.Race_report.st_nodes);
                     ("call_edges", Int rs.Sema.Race_report.st_edges);
                     ("mutation_sites", Int rs.Sema.Race_report.st_mutations);
                     ("parallel_roots", Int rs.Sema.Race_report.st_roots);
                     ("findings", count active race_fs);
                     ("suppressed", count (fun f -> not (active f)) race_fs);
                     ("new_findings", Int (List.length race_new));
                   ] );
               ( "alloc",
                 Obj
                   [
                     ("hot_nodes", Int als.Sema.Alloc_report.st_hot_nodes);
                     ("dispatch_roots", Int als.Sema.Alloc_report.st_roots);
                     ("sites_total", Int als.Sema.Alloc_report.st_sites_total);
                     ("sites_cold", Int als.Sema.Alloc_report.st_sites_cold);
                     ( "per_kind",
                       Obj
                         (List.map (fun (k, n) -> (k, Int n)) alloc.Sema.Alloc_report.a_per_kind)
                     );
                     ("findings", count active alloc_fs);
                     ("suppressed", count (fun f -> not (active f)) alloc_fs);
                     ("new_findings", Int (List.length alloc_new));
                   ] );
             ])))
    !bench_path;
  List.iter (fun f -> Format.eprintf "%a@." Analysis.Findings.pp f) failing;
  let n_active fs = List.length (List.filter active fs) in
  Format.printf
    "clove-check: %d .ml file(s), %d unit(s) from %d typedtree load(s), %d \
     graph(s); %d lint/sema finding(s), %d unused-export candidate(s); race %d \
     active (%d new); alloc %d active (%d new); report: %s@."
    (List.length ml_files) (List.length units) (Sema.Cmt_load.load_count ())
    (Sema.Race_extract.analyze_count ()) (List.length checked) (List.length unused)
    (n_active race.Sema.Race_report.r_findings) (List.length race_new)
    (n_active alloc.Sema.Alloc_report.a_findings) (List.length alloc_new) !report_path;
  if failing <> [] then exit 1
