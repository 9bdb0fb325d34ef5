(* Tests for the fabric telemetry sampler. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_seg () =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 10;
    dst_port = 20;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload = 1400;
    ece = false;
  }

let setup () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:1e9 ~prop_delay:Sim_time.zero_span () in
  Link.set_sink link (fun _ -> ());
  (sched, link)

let test_sampling_cadence () =
  let sched, link = setup () in
  let t = Telemetry.watch ~sched ~period:(Sim_time.ms 1) ~links:[ ("l", link) ] in
  (* stop after 5 ms: samples at 1..4 ms land before the stop event, and
     the 5 ms tick observes the stop first (FIFO at equal timestamps) *)
  Scheduler.schedule sched ~after:(Sim_time.ms 5) (fun () -> Telemetry.stop t);
  Scheduler.run sched;
  check_int "four samples" 4 (List.length (Telemetry.series t ~name:"l"));
  Alcotest.(check (list string)) "names" [ "l" ] (Telemetry.names t)

let test_observes_queue_and_util () =
  let sched, link = setup () in
  let t = Telemetry.watch ~sched ~period:(Sim_time.us 100) ~links:[ ("l", link) ] in
  (* burst 50 packets at t=0: at the first samples the queue is non-empty
     and the DRE shows activity *)
  for _ = 1 to 50 do
    Link.send link (Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:(mk_seg ()))
  done;
  Scheduler.schedule sched ~after:(Sim_time.ms 2) (fun () -> Telemetry.stop t);
  Scheduler.run sched;
  check_bool "peak queue observed" true (Telemetry.peak_queue t ~name:"l" > 10);
  check_bool "utilization observed" true (Telemetry.mean_utilization t ~name:"l" > 0.0)

let test_unknown_name_empty () =
  let sched, link = setup () in
  let t = Telemetry.watch ~sched ~period:(Sim_time.ms 1) ~links:[ ("l", link) ] in
  Telemetry.stop t;
  check_int "unknown empty" 0 (List.length (Telemetry.series t ~name:"nope"));
  check_int "peak of unknown" 0 (Telemetry.peak_queue t ~name:"nope")

let test_summary_renders () =
  let sched, link = setup () in
  let t = Telemetry.watch ~sched ~period:(Sim_time.ms 1) ~links:[ ("uplink", link) ] in
  Scheduler.schedule sched ~after:(Sim_time.ms 3) (fun () -> Telemetry.stop t);
  Scheduler.run sched;
  let s = Format.asprintf "%a" Telemetry.pp_summary t in
  check_bool "mentions link name" true (String.length s > 6)

let () =
  Alcotest.run "telemetry"
    [
      ( "telemetry",
        [
          Alcotest.test_case "sampling cadence" `Quick test_sampling_cadence;
          Alcotest.test_case "observes queue and util" `Quick test_observes_queue_and_util;
          Alcotest.test_case "unknown name" `Quick test_unknown_name_empty;
          Alcotest.test_case "summary renders" `Quick test_summary_renders;
        ] );
    ]
