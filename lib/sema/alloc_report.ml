(* Alloc reporting: hot-region allocation findings with a call-chain
   witness from a dispatch root, cold-branch demotion, alloc-allow
   suppressions, and per-kind/per-module rollups.  The
   baseline/JSON/SARIF lifecycle is [Analysis.Findings].

   Each finding's identity is ("alloc-<kind>", file, "node: desc") —
   line-free, so moving code inside a function does not churn the
   committed budget; a *new* identity means a new allocation on the
   hot path and fails the build.  Several sites with the same identity
   (say, two closure literals in one function) merge into one finding
   carrying the first site's line and a count.

   Cold-guarded sites (A/B baseline branches, audited error paths,
   always-raising branches) are reported under [alloc-cold] with the
   span's reason as their suppression — visible in the report, outside
   the budget. *)

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

let render_witness chain (al : Race_extract.alloc_site) =
  let hop (id, site) =
    match site with
    | None -> id
    | Some (s : Race_extract.site) ->
      Printf.sprintf "%s:%d calls %s" s.Race_extract.s_file
        s.Race_extract.s_line id
  in
  List.map hop chain
  @ [
      Printf.sprintf "%s:%d %s" al.Race_extract.al_site.Race_extract.s_file
        al.Race_extract.al_site.Race_extract.s_line al.Race_extract.al_desc;
    ]

let findings ~source_root (l : Race_extract.linked)
    (hot : Alloc_extract.hot) spans =
  let sites_total = ref 0 in
  let sites_cold = ref 0 in
  (* merged per identity key; first (lowest-line) site wins, later
     duplicates only bump the count *)
  let acc : (string, Analysis.Findings.t * int) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (n : Race_extract.node) ->
      if (not n.Race_extract.n_is_init) && Alloc_extract.member hot n.n_id then
        let chain =
          match Alloc_extract.witness_to hot n.Race_extract.n_id with
          | Some c -> c
          | None -> []
        in
        let root = match chain with (r, _) :: _ -> r | [] -> n.n_id in
        List.iter
          (fun (al : Race_extract.alloc_site) ->
            incr sites_total;
            let file = al.Race_extract.al_site.Race_extract.s_file in
            let line = al.Race_extract.al_site.Race_extract.s_line in
            let slug = Race_extract.alloc_kind_slug al.Race_extract.al_kind in
            let target =
              n.Race_extract.n_id ^ ": " ^ al.Race_extract.al_desc
            in
            let rule, reason =
              match Alloc_extract.cold_reason spans file line with
              | Some r ->
                incr sites_cold;
                ("alloc-cold", Some ("cold: " ^ r))
              | None -> (
                match
                  Analysis.Findings.allow_at ~marker:"alloc-allow:"
                    ~source_root file line
                with
                | Some "" -> ("alloc-allow-empty", None)
                | Some r -> ("alloc-" ^ slug, Some r)
                | None -> ("alloc-" ^ slug, None))
            in
            let f =
              {
                Analysis.Findings.rule;
                file;
                line;
                target;
                message =
                  Printf.sprintf "%s allocates on the hot path (root %s)"
                    al.Race_extract.al_desc root;
                witness = render_witness chain al;
                extra =
                  [
                    ("kind", Analysis.Json_out.String slug);
                    ("node", Analysis.Json_out.String n.Race_extract.n_id);
                  ];
                reason;
              }
            in
            let key = Analysis.Findings.key f in
            match Hashtbl.find_opt acc key with
            | None ->
              Hashtbl.replace acc key (f, 1);
              order := key :: !order
            | Some (f0, c) ->
              let f0 = if line < f0.Analysis.Findings.line then f else f0 in
              Hashtbl.replace acc key (f0, c + 1))
          (List.rev n.Race_extract.n_allocs))
    l.Race_extract.l_nodes;
  let fs =
    List.rev_map
      (fun key ->
        let f, c =
          match Hashtbl.find_opt acc key with
          | Some fc -> fc
          | None -> assert false (* every key in [order] was inserted *)
        in
        if c = 1 then f
        else
          {
            f with
            Analysis.Findings.extra =
              f.Analysis.Findings.extra @ [ ("count", Analysis.Json_out.Int c) ];
          })
      !order
  in
  (Analysis.Findings.sort fs, !sites_total, !sites_cold)

let run ~source_root units l =
  Analysis.Findings.clear_source_cache ();
  let hot = Alloc_extract.hot_region l in
  let spans = Alloc_extract.cold_spans units in
  let fs, sites_total, sites_cold = findings ~source_root l hot spans in
  let active = List.filter Analysis.Findings.is_active fs in
  let bump tbl k =
    match Hashtbl.find_opt tbl k with
    | Some r -> incr r
    | None -> Hashtbl.replace tbl k (ref 1)
  in
  let per_kind = Hashtbl.create 16 and per_module = Hashtbl.create 16 in
  List.iter
    (fun (f : Analysis.Findings.t) ->
      (match List.assoc_opt "kind" f.extra with
      | Some (Analysis.Json_out.String slug) -> bump per_kind slug
      | _ -> ());
      bump per_module f.Analysis.Findings.file)
    active;
  let sorted tbl =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    a_findings = fs;
    a_stats =
      {
        st_units = List.length units;
        st_nodes = List.length l.Race_extract.l_nodes;
        st_hot_nodes = Hashtbl.length hot.Alloc_extract.h_member;
        st_roots = List.length hot.Alloc_extract.h_roots;
        st_sites_total = sites_total;
        st_sites_cold = sites_cold;
      };
    a_roots = hot.Alloc_extract.h_roots;
    a_files = l.Race_extract.l_files;
    a_per_kind = sorted per_kind;
    a_per_module = sorted per_module;
  }

let baseline_json r =
  Analysis.Findings.baseline_json ~tool:"clove-alloc" r.a_findings

let rule_descriptions =
  [
    ("alloc-closure", "a closure is allocated on the hot path");
    ( "alloc-partial-app",
      "a partial application allocates a closure on the hot path" );
    ("alloc-tuple", "a tuple is allocated on the hot path");
    ("alloc-record", "a record is allocated on the hot path");
    ( "alloc-variant",
      "a variant constructor with arguments is allocated on the hot path" );
    ("alloc-option", "an option cell is allocated on the hot path");
    ("alloc-cons", "a list cell is allocated on the hot path");
    ( "alloc-boxed-float",
      "a float result is boxed on the hot path (unless locally unboxed)" );
    ("alloc-array", "an array is allocated on the hot path");
    ("alloc-string", "a string or bytes value is built on the hot path");
    ( "alloc-poly-compare",
      "polymorphic compare/hash on a non-immediate value on the hot path" );
    ("alloc-format", "a format string is interpreted on the hot path");
    ("alloc-ref", "a ref or atomic cell is allocated on the hot path");
    ( "alloc-cold",
      "an allocation site dominated by a cold (baseline/audit/raising) \
       branch — informational, outside the budget" );
    ( "alloc-allow-empty",
      "an alloc-allow suppression has no justification text" );
  ]

let report_json r ~new_keys =
  Analysis.Json_out.(
    Obj
      [
        ("tool", String "clove-alloc");
        ("version", Int 1);
        ("files", List (List.map (fun f -> String f) r.a_files));
        ( "roots",
          List
            (List.map
               (fun (id, origin) ->
                 Obj [ ("node", String id); ("origin", String origin) ])
               r.a_roots) );
        ( "stats",
          Obj
            [
              ("units", Int r.a_stats.st_units);
              ("nodes", Int r.a_stats.st_nodes);
              ("hot_nodes", Int r.a_stats.st_hot_nodes);
              ("dispatch_roots", Int r.a_stats.st_roots);
              ("sites_total", Int r.a_stats.st_sites_total);
              ("sites_cold", Int r.a_stats.st_sites_cold);
            ] );
        ( "per_kind",
          Obj (List.map (fun (k, n) -> (k, Int n)) r.a_per_kind) );
        ( "per_module",
          Obj (List.map (fun (k, n) -> (k, Int n)) r.a_per_module) );
        ("findings", Analysis.Findings.findings_json ~new_keys r.a_findings);
      ])
