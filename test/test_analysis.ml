(* Tests for the correctness-tooling layer: the typed lint rules of
   clove-check and the runtime invariant auditor (packet conservation,
   monotonic clocks, per-flowlet FIFO, weight normalization,
   determinism). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Audit = Analysis.Audit

open Experiments

(* ------------------------------ lint ------------------------------- *)

(* The typed rules run on the compiled twins under test/fixtures/lint/:
   tests run from _build/default/test, so the lint_fixtures library's
   .cmt files are under fixtures/ and the repo's build root is .. *)
let lint_units =
  lazy
    (Sema.Cmt_load.load ~root:"fixtures" ~source_prefixes:[ "test/fixtures/lint/" ])

let lint name =
  match
    List.find_opt
      (fun u -> u.Sema.Cmt_load.u_short = name)
      (Lazy.force lint_units)
  with
  | Some u -> Sema.Typed_rules.analyze ~source_root:".." u
  | None -> Alcotest.failf "fixture unit %s not loaded" name

(* the lines flagged under [rule] in the fixture unit [name] *)
let flagged rule name =
  List.filter_map
    (fun (f : Analysis.Findings.t) -> if f.rule = rule then Some f.line else None)
    (lint name)

let check_lines what expected actual = Alcotest.(check (list int)) what expected actual
let clean name = check_int (name ^ " is clean") 0 (List.length (lint name))

let test_lint_obj_magic () =
  check_lines "sentinel flagged" [ 2 ] (flagged "obj-magic" "Obj_magic_flagged");
  (* suppressed by the preceding line and on the same line; Obj.magic in
     a comment or a string literal is not an expression, so never fires *)
  clean "Obj_magic_clean"

let test_lint_poly_compare () =
  check_lines "passed, applied and qualified" [ 2; 3; 4 ]
    (flagged "poly-compare" "Poly_compare_flagged");
  (* Int.compare, a user-defined compare used bare, a labelled argument *)
  clean "Poly_compare_clean"

let test_lint_bare_ignore () =
  (* ignore (...), multiline ignore, ignore @@ e, e |> ignore *)
  check_lines "computed results" [ 4; 7; 10; 11 ]
    (flagged "bare-ignore" "Bare_ignore_flagged");
  (* let (_ : ty), a variable, a field read, a suppression, a string *)
  clean "Bare_ignore_clean"

let test_lint_hashtbl_find () =
  check_lines "qualified and through a local open" [ 2; 3 ]
    (flagged "hashtbl-find" "Hashtbl_find_flagged");
  (* find_opt, find_all, a suppression *)
  clean "Hashtbl_find_clean"

let test_lint_float_eq () =
  check_lines "literal either side, in a guard, <>" [ 2; 3; 4; 5 ]
    (flagged "float-eq" "Float_eq_flagged");
  (* a binding, <=, int equality, a tolerance, a suppression *)
  clean "Float_eq_clean"

let test_lint_missing_mli () =
  let fs =
    Sema.Typed_rules.missing_mli ~source_root:".."
      ~ml_files:[ "lib/foo/a.ml"; "lib/foo/b.ml" ]
      ~mli_files:[ "lib/foo/a.mli" ]
  in
  check_int "one module uncovered" 1 (List.length fs);
  match fs with
  | [ f ] ->
    check_bool "names the .ml" true (f.Analysis.Findings.file = "lib/foo/b.ml");
    check_bool "right rule" true (f.Analysis.Findings.rule = "missing-mli")
  | _ -> Alcotest.fail "expected exactly one finding"

let test_missing_typedtree () =
  (* an .ml that was never compiled must stop clove-check with exit 2 and
     a message naming it, not pass with the typed rules silently skipped *)
  let dir = Filename.temp_dir "clove_check" "" in
  let ml = Filename.concat dir "orphan.ml" in
  let out = Filename.concat dir "out.txt" in
  Out_channel.with_open_text ml (fun oc -> output_string oc "let x = Obj.magic 0\n");
  let code =
    Sys.command
      (Filename.quote_command "../bin/clove_check.exe" ~stdout:out ~stderr:out
         [ "-o"; Filename.concat dir "report.json"; dir ])
  in
  let output = In_channel.with_open_text out In_channel.input_all in
  List.iter Sys.remove [ ml; out ];
  Sys.rmdir dir;
  check_int "exit status" 2 code;
  let mentions sub =
    let n = String.length output and m = String.length sub in
    let rec go i = i + m <= n && (String.sub output i m = sub || go (i + 1)) in
    go 0
  in
  check_bool ("names the file: " ^ output) true (mentions "orphan.ml")

(* --------------------------- audit: units -------------------------- *)

let test_audit_disabled_hooks () =
  Audit.reset ();
  Audit.set_enabled false;
  check_int "fifo_tx is -1 when off" (-1) (Audit.fifo_tx ~stream:1 ~port:1);
  Audit.note_injected ();
  check_int "counters stay zero when off" 0 (Audit.injected ())

let test_audit_monotonic_clock () =
  Audit.reset ();
  Audit.set_enabled true;
  Audit.note_clock ~clock_id:123 ~now_ns:100;
  Audit.note_clock ~clock_id:123 ~now_ns:100;
  Audit.note_clock ~clock_id:124 ~now_ns:5;
  check_bool "equal times and fresh clocks are fine" true (Audit.ok ());
  Audit.note_clock ~clock_id:123 ~now_ns:50;
  check_int "backwards step recorded" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_audit_fifo () =
  Audit.reset ();
  Audit.set_enabled true;
  let s0 = Audit.fifo_tx ~stream:7 ~port:50001 in
  let s1 = Audit.fifo_tx ~stream:7 ~port:50001 in
  let s2 = Audit.fifo_tx ~stream:7 ~port:50001 in
  check_int "sequences count up" 2 s2;
  Audit.fifo_rx ~stream:7 ~port:50001 ~seq:s0;
  Audit.fifo_rx ~stream:7 ~port:50001 ~seq:s2;
  check_bool "gaps (drops) are fine" true (Audit.ok ());
  Audit.fifo_rx ~stream:7 ~port:50001 ~seq:s1;
  check_int "reversal recorded" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_audit_weight_sum () =
  Audit.reset ();
  Audit.set_enabled true;
  Audit.check_weight_sum ~label:"unit" [| 0.25; 0.75 |];
  Audit.check_weight_sum ~label:"unit" [||];
  check_bool "normalized and empty are fine" true (Audit.ok ());
  Audit.check_weight_sum ~label:"unit" [| 0.5; 0.4 |];
  check_int "unnormalized recorded" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_audit_weight_sum_via_path_table () =
  Audit.reset ();
  Audit.set_enabled true;
  let sched = Scheduler.create () in
  let tbl = Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default in
  Clove.Path_table.install tbl
    [
      (50001, [ { Packet.hop_node = 2; hop_port = 0 } ]);
      (50002, [ { Packet.hop_node = 3; hop_port = 0 } ]);
    ];
  Clove.Path_table.note_congested tbl ~port:50001;
  Clove.Path_table.age_weights tbl;
  check_bool "every update renormalizes" true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

(* ------------------- audit: conservation fixtures ------------------ *)

let mk_seg =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 1;
    dst_port = 2;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload = 1400;
    ece = false;
  }

let test_conservation_broken_fixture () =
  (* a black-hole sink swallows the packet without Host.deliver: the
     injected packet is never delivered nor accounted as dropped, so the
     conservation check must trip *)
  let sched = Scheduler.create () in
  let link =
    Link.create ~sched ~rate_bps:1e9 ~prop_delay:(Sim_time.us 1) ()
  in
  Link.set_sink link (fun _ -> ());
  let h = Host.create ~sched ~id:0 ~addr:(Addr.of_int 0) in
  Host.attach_uplink h link;
  Audit.reset ();
  Audit.set_enabled true;
  let pkt = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:mk_seg in
  Host.send h pkt;
  Scheduler.run sched;
  check_int "one packet injected" 1 (Audit.injected ());
  check_int "nothing delivered" 0 (Audit.delivered ());
  Audit.check_packet_conservation ~in_flight:0;
  check_bool "conservation violated" false (Audit.ok ());
  check_int "exactly one violation" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_scenario_run_is_audit_clean () =
  (* a full Clove-ECN scenario run with every hook live: conservation
     holds after a complete drain, no clock regressions, no flowlet
     reordering, weights always normalized *)
  Audit.reset ();
  Audit.set_enabled true;
  let params = { Scenario.default_params with Scenario.seed = 5 } in
  let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let done_count = ref 0 in
  let sizes = [ 5_000; 70_000; 999; 20_000 ] in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      List.iter
        (fun b -> submit ~bytes:b ~on_complete:(fun () -> incr done_count))
        sizes);
  Scheduler.run ~until:(Sim_time.of_ns 300_000_000) sched;
  check_int "all jobs done" (List.length sizes) !done_count;
  Scenario.quiesce scn;
  (* drain everything still in flight so in_flight = 0 at the check *)
  Scheduler.run sched;
  check_bool "packets were injected" true (Audit.injected () > 0);
  check_bool "packets were delivered" true (Audit.delivered () > 0);
  Audit.check_packet_conservation ~in_flight:0;
  check_bool
    (Printf.sprintf "no violations: %s" (Audit.report ()))
    true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

(* ------------------------ audit: determinism ----------------------- *)

let websearch_digest () =
  let params = { Scenario.default_params with Scenario.seed = 11 } in
  let fct =
    Sweep.websearch_run ~scheme:Scenario.S_clove_ecn ~params ~load:0.4
      ~jobs_per_conn:10
  in
  Printf.sprintf "avg=%.12f p99=%.12f n=%d"
    (Workload.Fct_stats.avg fct)
    (Workload.Fct_stats.percentile fct 99.0)
    (Workload.Fct_stats.count fct)

let test_determinism_websearch () =
  Audit.reset ();
  Audit.set_enabled true;
  check_bool "same seed, same digest" true
    (Audit.check_determinism ~label:"websearch/clove-ecn" ~run:websearch_digest);
  check_bool "no violations" true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

let test_determinism_counterexample () =
  Audit.reset ();
  let calls = ref 0 in
  let run () =
    incr calls;
    string_of_int !calls
  in
  check_bool "impure run caught" false
    (Audit.check_determinism ~label:"counter" ~run);
  check_int "mismatch recorded" 1 (Audit.violation_count ());
  Audit.reset ()

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "obj-magic" `Quick test_lint_obj_magic;
          Alcotest.test_case "poly-compare" `Quick test_lint_poly_compare;
          Alcotest.test_case "bare-ignore" `Quick test_lint_bare_ignore;
          Alcotest.test_case "hashtbl-find" `Quick test_lint_hashtbl_find;
          Alcotest.test_case "float-eq" `Quick test_lint_float_eq;
          Alcotest.test_case "missing-mli" `Quick test_lint_missing_mli;
          Alcotest.test_case "missing typedtree exits 2" `Quick
            test_missing_typedtree;
        ] );
      ( "audit-units",
        [
          Alcotest.test_case "hooks off" `Quick test_audit_disabled_hooks;
          Alcotest.test_case "monotonic clock" `Quick test_audit_monotonic_clock;
          Alcotest.test_case "flowlet fifo" `Quick test_audit_fifo;
          Alcotest.test_case "weight sum" `Quick test_audit_weight_sum;
          Alcotest.test_case "weight sum via path table" `Quick
            test_audit_weight_sum_via_path_table;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "broken fixture trips" `Quick
            test_conservation_broken_fixture;
          Alcotest.test_case "scenario run is clean" `Quick
            test_scenario_run_is_audit_clean;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "websearch double run" `Quick
            test_determinism_websearch;
          Alcotest.test_case "counterexample caught" `Quick
            test_determinism_counterexample;
        ] );
    ]
