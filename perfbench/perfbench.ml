(* The simulator's benchmark program: one named workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0), it repeats "set up, drive to completion" on the
   workload until S seconds are spent and prints the end-to-end metrics:
   the best set-up time, the first drive's peak heap, and allocation and
   events per packet hop.  Traced (--trace 1), it alternates
   untraced and traced repetitions, times per-call unit costs of each
   layer's public hot-path functions, and prints the per-layer table:
   deterministic counts from public getters, unit costs, count x cost
   estimates, and the set-up spans.  Every repetition is checked (every
   flow completes, byte totals balance, no FCT beats the host line rate,
   digests and counts repeat exactly); a violation counts as a failed
   operation and the exit code is 1.  The last stdout line is one JSON
   object: correct, attempted, failed, metrics.

   Nothing here reaches inside the simulator: every number comes through
   the libraries' public interfaces. *)

open Experiments

(* ------------------------------------------------------------------ *)
(* Clocks and small helpers                                            *)

let wall () = Unix.gettimeofday ()

(* Process CPU seconds over all domains (getrusage).  On a shared VM,
   time the host steals from the guest shows in wall time but not here. *)
let cpu () = Sys.time ()

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0.0 then 0.0 else num /. den
let fi = float_of_int
let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let max_by f xs = List.fold_left (fun acc x -> max acc (f x)) 0 xs

(* Distinct values by physical identity, in first-seen order. *)
let distinct xs =
  List.rev (List.fold_left (fun acc x -> if List.memq x acc then acc else x :: acc) [] xs)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = Websearch_asym70 | Incast_mptcp15 | Clos3_brownout_pdes

let workloads =
  [
    ("websearch-asym70", Websearch_asym70);
    ("incast-mptcp15", Incast_mptcp15);
    ("clos3-brownout-pdes", Clos3_brownout_pdes);
  ]

(* Sizes.  Each drive lasts seconds (about 4 s on web-search and incast,
   6-10 s on the 3-tier run, on a shared 2-vCPU VM), so sub-second host
   noise averages out within a drive; see README.md. *)
let websearch_jobs_per_conn = 300
let incast_requests = 200
let incast_fanout = 15
let clos3_jobs_per_conn = 150
let clos3_default_shards = 2

(* Per-connection completion bookkeeping, filled by wrapping each
   connection's submit function.  Arrays indexed by connection, so under
   PDES each slot is written only by the shard that owns the
   connection's source host. *)
type ledger = {
  sub_flows : int array;
  sub_bytes : int array;
  done_flows : int array;
  done_bytes : int array;
  too_fast : int array;  (* FCT below size / host line rate *)
  mice : int array;  (* flows under [Fct_stats.mice_cutoff] *)
  first_ns : int array;
  last_ns : int array;
}

let ledger n =
  {
    sub_flows = Array.make n 0;
    sub_bytes = Array.make n 0;
    done_flows = Array.make n 0;
    done_bytes = Array.make n 0;
    too_fast = Array.make n 0;
    mice = Array.make n 0;
    first_ns = Array.make n max_int;
    last_ns = Array.make n min_int;
  }

(* Observe one connection without changing what it does: the wrapper
   reads the clock and bumps counters, and schedules nothing. *)
let observe led ~host_rate_bps ~sched i (submit : Workload.Websearch.submit) :
    Workload.Websearch.submit =
 fun ~bytes ~on_complete ->
  let start = Sim_time.to_ns (Scheduler.now sched) in
  led.sub_flows.(i) <- led.sub_flows.(i) + 1;
  led.sub_bytes.(i) <- led.sub_bytes.(i) + bytes;
  if bytes < Workload.Fct_stats.mice_cutoff then led.mice.(i) <- led.mice.(i) + 1;
  if start < led.first_ns.(i) then led.first_ns.(i) <- start;
  submit ~bytes ~on_complete:(fun () ->
      let fin = Sim_time.to_ns (Scheduler.now sched) in
      led.done_flows.(i) <- led.done_flows.(i) + 1;
      led.done_bytes.(i) <- led.done_bytes.(i) + bytes;
      let floor_sec = fi bytes *. 8.0 /. host_rate_bps in
      if fi (fin - start) *. 1e-9 < floor_sec then
        led.too_fast.(i) <- led.too_fast.(i) + 1;
      if fin > led.last_ns.(i) then led.last_ns.(i) <- fin;
      on_complete ())

(* What one drive leaves behind. *)
type outcome = {
  flows : Workload.Fct_stats.t;  (* every transfer *)
  jobs : Workload.Fct_stats.t;  (* what the FCT metrics rank: flows, or requests *)
  goodput_bps : float;
}

type prepared = {
  scn : Scenario.t;
  led : ledger;
  expected_flows : int;
  fault : Faults.Fault_engine.t option;
  fault_at_sec : float;  (* infinity without a fault plan *)
  drive : unit -> outcome;
}

(* Set-up, split at the layer boundaries it crosses. *)
type setup_times = { build_s : float; connect_s : float; arm_s : float }

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

let ledger_goodput led =
  let bytes = Array.fold_left ( + ) 0 led.done_bytes in
  let first = Array.fold_left min max_int led.first_ns in
  let last = Array.fold_left max min_int led.last_ns in
  if last <= first then 0.0 else fi bytes *. 8.0 /. (fi (last - first) *. 1e-9)

let websearch_params seed =
  (* the paper's fig4c testbed point: 16 x 10G hosts per leaf, 4 x 40G
     fabric links per leaf, one S2-L2 link failed *)
  {
    Scenario.default_params with
    Scenario.hosts_per_leaf = 16;
    fabric_rate_bps = 40e9;
    asymmetric = true;
    seed;
  }

let prepare_websearch ~seed =
  let params = websearch_params seed in
  let scn, build_s =
    timed (fun () -> Scenario.build ~shards:0 ~scheme:Scenario.S_clove_ecn params)
  in
  let sched = Scenario.sched scn in
  let (conns, led), connect_s =
    timed (fun () ->
        (* the figure sweeps' communication model: each client opens one
           persistent connection to a server drawn from a stream named
           after the client *)
        let servers = Scenario.servers scn in
        let raw =
          Array.map
            (fun client ->
              let r =
                Rng.split_named (Scenario.rng scn)
                  (Printf.sprintf "conn:%d:0" (Host.id client))
              in
              Scenario.connect scn ~src:client ~dst:(Rng.pick r servers))
            (Scenario.clients scn)
        in
        let led = ledger (Array.length raw) in
        ( Array.mapi
            (observe led ~host_rate_bps:params.Scenario.host_rate_bps ~sched)
            raw,
          led ))
  in
  let cfg, arm_s =
    timed (fun () ->
        {
          Workload.Websearch.load = 0.7;
          bisection_bps = Scenario.bisection_bps scn;
          jobs_per_conn = websearch_jobs_per_conn;
          size_dist = Scenario.size_dist scn;
          start_at = Scenario.warmup scn;
        })
  in
  let drive () =
    let fct =
      Workload.Websearch.run ~stream:true ~sched ~rng:(Scenario.rng scn) ~conns cfg
    in
    { flows = fct; jobs = fct; goodput_bps = ledger_goodput led }
  in
  ( {
      scn;
      led;
      expected_flows = Array.length conns * websearch_jobs_per_conn;
      fault = None;
      fault_at_sec = infinity;
      drive;
    },
    { build_s; connect_s; arm_s } )

let prepare_incast ~seed =
  (* fig7 at fan-in 15: one client, 16 servers, closed loop over
     requests; MPTCP pins the scenario to the serial scheduler *)
  let params =
    {
      Scenario.default_params with
      Scenario.hosts_per_leaf = 16;
      fabric_rate_bps = 40e9;
      seed;
    }
  in
  let scn, build_s =
    timed (fun () -> Scenario.build ~shards:0 ~scheme:Scenario.S_mptcp params)
  in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let servers = Scenario.servers scn in
  let (submits, led), connect_s =
    timed (fun () ->
        let led = ledger (Array.length servers) in
        ( Array.mapi
            (fun i server ->
              observe led ~host_rate_bps:params.Scenario.host_rate_bps ~sched i
                (Scenario.connect scn ~src:server ~dst:client))
            servers,
          led ))
  in
  let total_bytes = int_of_float (1e7 *. params.Scenario.size_scale) in
  let (flows, requests, submits), arm_s =
    timed (fun () ->
        let flows = Workload.Fct_stats.create () in
        let requests = Workload.Fct_stats.create () in
        (* requests run one at a time, so a request spans from the first
           sub-transfer submitted while none is in flight to the moment
           the last one completes *)
        let inflight = ref 0 in
        let req_start = ref Sim_time.zero in
        let req_bytes = ref 0 in
        let track submit ~bytes ~on_complete =
          let start = Scheduler.now sched in
          if !inflight = 0 then begin
            req_start := start;
            req_bytes := 0
          end;
          incr inflight;
          req_bytes := !req_bytes + bytes;
          submit ~bytes ~on_complete:(fun () ->
              let finish = Scheduler.now sched in
              Workload.Fct_stats.record flows ~size:bytes ~start ~finish;
              decr inflight;
              if !inflight = 0 then
                Workload.Fct_stats.record requests ~size:!req_bytes
                  ~start:!req_start ~finish;
              on_complete ())
        in
        (flows, requests, Array.map track submits))
  in
  let drive () =
    let r =
      Workload.Incast.run ~sched ~rng:(Scenario.rng scn) ~server_submits:submits
        ~fanout:incast_fanout ~total_bytes ~requests:incast_requests
        ~start_at:(Scenario.warmup scn)
    in
    { flows; jobs = requests; goodput_bps = r.Workload.Incast.goodput_bps }
  in
  ( {
      scn;
      led;
      expected_flows = incast_requests * incast_fanout;
      fault = None;
      fault_at_sec = infinity;
      drive;
    },
    { build_s; connect_s; arm_s } )

let clos3_params seed =
  (* the chaos defaults (20 ms probes, failure recovery on) on a 4-pod
     Clos with a non-oversubscribed pod fabric *)
  let base = Chaos.default_opts.Chaos.params in
  {
    base with
    Scenario.pods = 4;
    fabric_rate_bps = fi base.Scenario.hosts_per_leaf *. 10e9 /. 4.0;
    failure_recovery = true;
    seed;
  }

let prepare_clos3 ~seed ~shards =
  let params = clos3_params seed in
  let plan =
    match Chaos.preset_spec params "core-brownout" with
    | Error e -> failwith e
    | Ok spec -> (
      match Faults.Fault_plan.parse ~names:(Scenario.fault_names params) spec with
      | Ok p -> p
      | Error e -> failwith e)
  in
  let fault_at_sec =
    List.fold_left
      (fun acc (e : Faults.Fault_plan.event) ->
        Float.min acc (Sim_time.span_to_sec e.Faults.Fault_plan.at))
      infinity plan
  in
  let scn, build_s =
    timed (fun () -> Scenario.build ~shards ~scheme:Scenario.S_clove_ecn params)
  in
  let clients = Scenario.clients scn in
  let servers = Scenario.servers scn in
  let (conns, led), connect_s =
    timed (fun () ->
        (* one-to-one client/server pairs, as in the chaos suite *)
        let led = ledger (Array.length clients) in
        ( Array.mapi
            (fun i client ->
              observe led ~host_rate_bps:params.Scenario.host_rate_bps
                ~sched:(Host.sched client) i
                (Scenario.connect scn ~src:client ~dst:servers.(i)))
            clients,
          led ))
  in
  let (engine, cfg), arm_s =
    timed (fun () ->
        let fabric = Scenario.fabric scn in
        let engine =
          Faults.Fault_engine.create ~sched:(Scenario.sched scn) ~fabric
            ~vswitches:(Array.map (Scenario.vswitch scn) (Fabric.hosts fabric))
            ~naming:(Scenario.fault_naming scn)
            ~rng:(Rng.split_named (Scenario.rng scn) "faults")
        in
        (match Faults.Fault_engine.arm engine plan with
        | Ok () -> ()
        | Error e -> failwith e);
        ( engine,
          {
            Workload.Websearch.load = 0.15;
            bisection_bps = Scenario.bisection_bps scn;
            jobs_per_conn = clos3_jobs_per_conn;
            size_dist = Scenario.size_dist scn;
            start_at = Scenario.warmup scn;
          } ))
  in
  let drive () =
    let fct = Scenario.run_websearch scn ~rng:(Scenario.rng scn) ~conns cfg in
    Faults.Fault_engine.stop engine;
    { flows = fct; jobs = fct; goodput_bps = ledger_goodput led }
  in
  ( {
      scn;
      led;
      expected_flows = Array.length conns * clos3_jobs_per_conn;
      fault = Some engine;
      fault_at_sec;
      drive;
    },
    { build_s; connect_s; arm_s } )

let prepare w ~seed ~shards =
  match w with
  | Websearch_asym70 -> prepare_websearch ~seed
  | Incast_mptcp15 -> prepare_incast ~seed
  | Clos3_brownout_pdes -> prepare_clos3 ~seed ~shards

(* ------------------------------------------------------------------ *)
(* Layer counters, read through public getters after a drive           *)

(* Deterministic for a fixed seed at a fixed shard width; compared
   exactly across repetitions. *)
type counts = (string * int) list

let schedulers scn =
  let fabric = Scenario.fabric scn in
  distinct
    ((Scenario.sched scn
     :: List.map Host.sched (Array.to_list (Fabric.hosts fabric)))
    @ List.map Switch.sched (Array.to_list (Fabric.switches fabric)))

let layer_counts (p : prepared) (o : outcome) : counts =
  let scn = p.scn in
  let fabric = Scenario.fabric scn in
  let links = Fabric.all_links fabric in
  let qstats = List.map (fun l -> Pkt_queue.stats (Link.queue l)) links in
  let hosts = Array.to_list (Fabric.hosts fabric) in
  let vswitches = List.map (Scenario.vswitch scn) hosts in
  let vstats = List.map Clove.Vswitch.stats vswitches in
  let senders =
    List.concat_map (fun h -> Transport.Stack.senders (Scenario.stack scn h)) hosts
  in
  let scheds = schedulers scn in
  let shard = Scenario.shard scn in
  let events =
    match shard with
    | Some s -> Shard.events_fired s
    | None -> Scheduler.events_fired (Scenario.sched scn)
  in
  let suspects =
    List.fold_left
      (fun acc v ->
        List.fold_left
          (fun acc d ->
            match Clove.Vswitch.path_table v (Host.addr d) with
            | None -> acc
            | Some tbl ->
              Array.fold_left
                (fun acc s -> if s then acc + 1 else acc)
                acc (Clove.Path_table.suspects tbl))
          acc hosts)
      0 vswitches
  in
  let shard_stat f = match shard with Some s -> f s | None -> 0 in
  [
    ("engine.events", events);
    ("engine.wheel_scheduled", sum_by Scheduler.wheel_scheduled scheds);
    ("engine.heap_scheduled", sum_by Scheduler.heap_scheduled scheds);
    ("engine.compactions", sum_by Scheduler.compactions scheds);
    ("engine.shard.windows", shard_stat Shard.windows);
    ("engine.shard.boundary_events", shard_stat Shard.boundary_events);
    ("engine.shard.stalls", shard_stat Shard.stalls);
    ("netsim.pkt_hops", sum_by Link.tx_packets links);
    ( "netsim.switch_rx",
      sum_by Switch.rx_packets (Array.to_list (Fabric.switches fabric)) );
    ("netsim.queue_drops", sum_by (fun s -> s.Pkt_queue.dropped) qstats);
    ("netsim.ecn_marks", sum_by (fun s -> s.Pkt_queue.marked) qstats);
    ("netsim.max_queue_pkts", max_by (fun s -> s.Pkt_queue.max_occupancy) qstats);
    ("netsim.brownout_drops", sum_by Link.brownout_drops links);
    ("transport.tenant_pkts", sum_by (fun s -> s.Clove.Vswitch.tx_tenant) vstats);
    ("transport.retransmits", sum_by Transport.Tcp.retransmits senders);
    ("transport.timeouts", sum_by Transport.Tcp.timeouts senders);
    ("clove.flowlets", sum_by (fun s -> s.Clove.Vswitch.flowlets) vstats);
    ( "clove.feedback_piggybacked",
      sum_by (fun s -> s.Clove.Vswitch.feedback_piggybacked) vstats );
    ( "clove.feedback_carriers",
      sum_by (fun s -> s.Clove.Vswitch.feedback_carriers) vstats );
    ( "clove.congestion_feedback",
      sum_by (fun s -> s.Clove.Vswitch.congestion_feedback_seen) vstats );
    ("clove.escalations", sum_by (fun s -> s.Clove.Vswitch.escalations) vstats);
    ("clove.peak_flows_tracked", max_by Clove.Vswitch.peak_flows_tracked vswitches);
    ("clove.suspect_paths", suspects);
    ( "faults.events",
      match p.fault with Some e -> Faults.Fault_engine.events_fired e | None -> 0 );
    ("stats.flows", Workload.Fct_stats.count o.flows);
    ( "stats.sketch_nodes",
      if Workload.Fct_stats.is_streaming o.flows then
        Workload.Fct_stats.stream_sketch_nodes o.flows
      else 0 );
  ]

let count (c : counts) name =
  match List.assoc_opt name c with Some v -> v | None -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* Simulated (deterministic) results and the correctness gate          *)

type sim = {
  fct_avg_ms : float;
  fct_p50_ms : float;
  fct_p99_ms : float;
  jobs_n : int;
  goodput_gbps : float;
  mice_n : int;
  mice_p50_ms : float;
  mice_p99_ms : float;
  post_n : int;
  post_avg_ms : float;
  digest : string;
}

let ms x = if Float.is_finite x then x *. 1e3 else 0.0

let sim_results (p : prepared) (o : outcome) =
  let open Workload.Fct_stats in
  let mice_cut = mice_cutoff in
  let post =
    if Float.is_finite p.fault_at_sec then
      filter_size ~max_size:mice_cut
        (window ~from:p.fault_at_sec ~until:infinity o.flows)
    else create ()
  in
  (* the streaming sink counts all flows only, so the mice count comes
     from the connection ledger *)
  let mice_n = Array.fold_left ( + ) 0 p.led.mice in
  let digest =
    if is_streaming o.flows then
      (* the streaming sink keeps no records: digest what it can answer,
         in hex so every bit counts *)
      Printf.sprintf "%d %d %h %h %h %h %h %h" (count o.flows) (total_bytes o.flows)
        (avg o.flows) (percentile o.flows 50.0) (percentile o.flows 99.0)
        (avg ~max_size:mice_cut o.flows)
        (percentile ~max_size:mice_cut o.flows 50.0)
        (percentile ~max_size:mice_cut o.flows 99.0)
    else canonical_dump o.flows
  in
  {
    fct_avg_ms = ms (avg o.jobs);
    fct_p50_ms = ms (percentile o.jobs 50.0);
    fct_p99_ms = ms (percentile o.jobs 99.0);
    jobs_n = count o.jobs;
    goodput_gbps = o.goodput_bps /. 1e9;
    mice_n;
    mice_p50_ms = (if mice_n = 0 then 0.0 else ms (percentile ~max_size:mice_cut o.flows 50.0));
    mice_p99_ms = (if mice_n = 0 then 0.0 else ms (percentile ~max_size:mice_cut o.flows 99.0));
    post_n = count post;
    post_avg_ms = (if count post = 0 then 0.0 else ms (avg post));
    digest = Digest.to_hex (Digest.string digest);
  }

(* Violations of the correctness gate, as (description, failed flows). *)
let check (p : prepared) (o : outcome) =
  let led = p.led in
  let total a = Array.fold_left ( + ) 0 a in
  let submitted = total led.sub_flows and completed = total led.done_flows in
  let issues = ref [] in
  let fail n fmt = Printf.ksprintf (fun s -> issues := (s, max n 1) :: !issues) fmt in
  if submitted <> p.expected_flows then
    fail
      (abs (p.expected_flows - submitted))
      "%d flows submitted, expected %d" submitted p.expected_flows;
  if completed <> submitted then
    fail (submitted - completed) "%d of %d flows never completed"
      (submitted - completed) submitted;
  let recorded = Workload.Fct_stats.count o.flows in
  if recorded <> submitted then
    fail (abs (submitted - recorded)) "%d FCTs recorded for %d flows" recorded submitted;
  let bytes = Workload.Fct_stats.total_bytes o.flows in
  if bytes <> total led.sub_bytes then
    fail p.expected_flows "FCT sink holds %d bytes, %d were submitted" bytes
      (total led.sub_bytes);
  let fast = total led.too_fast in
  if fast > 0 then fail fast "%d flows finished faster than the host line rate" fast;
  List.rev !issues

(* ------------------------------------------------------------------ *)
(* One repetition: set up, drive, count                                *)

type rep = {
  setup : setup_times;
  drive_s : float;
  drive_cpu_s : float;
  minor_words : float;
  promoted_words : float;
  pool : Packet_pool.stats;  (* calling domain only *)
  counts : counts;
  sim : sim;
  query_s : float;
  issues : (string * int) list;
  expected : int;
}

let settle () = Gc.compact ()

let run_rep w ~seed ~shards =
  settle ();
  let p, setup = prepare w ~seed ~shards in
  settle ();
  Packet_pool.reset_stats ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu () in
  let t0 = wall () in
  let outcome = p.drive () in
  let drive_s = wall () -. t0 in
  let drive_cpu_s = cpu () -. c0 in
  let pool = Packet_pool.stats () in
  let counts = layer_counts p outcome in
  Scenario.quiesce p.scn;
  let g1 = Gc.quick_stat () in
  let sim, query_s = timed (fun () -> sim_results p outcome) in
  {
    setup;
    drive_s;
    drive_cpu_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    pool;
    counts;
    sim;
    query_s;
    issues = check p outcome;
    expected = p.expected_flows;
  }

(* The flow count of one repetition, without driving it. *)
let rep_flows w ~seed ~shards =
  let p, _ = prepare w ~seed ~shards in
  Scenario.quiesce p.scn;
  p.expected_flows

let setup_total s = s.build_s +. s.connect_s +. s.arm_s

(* Set-up only, discarded: more set-up samples. *)
let setup_only w ~seed ~shards =
  settle ();
  let p, s = prepare w ~seed ~shards in
  Scenario.quiesce p.scn;
  s

(* ------------------------------------------------------------------ *)
(* Unit costs of public per-call hot-path functions                    *)

(* Median ns per operation of [f n] (which performs [n] operations) over
   batches of about 2 ms each, for [budget] seconds. *)
let unit_cost ~budget (f : int -> unit) =
  let n = ref 256 in
  let rec calibrate () =
    let (), dt = timed (fun () -> f !n) in
    if dt < 2e-3 && !n < 1 lsl 24 then begin
      n := !n * 2;
      calibrate ()
    end
  in
  calibrate ();
  let samples = ref [] in
  let stop = wall () +. budget in
  while wall () < stop do
    let (), dt = timed (fun () -> f !n) in
    samples := (dt /. fi !n *. 1e9) :: !samples
  done;
  median !samples

let engine_queue_add_pop () =
  let rng = Rng.create 1 in
  let eq = Event_queue.create ~dummy:() () in
  fun n ->
    for _ = 1 to n do
      Event_queue.add eq ~time:(Sim_time.of_ns (Rng.int rng 1_000_000)) ();
      ignore (Event_queue.pop eq : (Sim_time.t * unit) option)
    done

let engine_tag_schedule_step () =
  let sched = Scheduler.create () in
  let kind = Scheduler.register_kind sched (fun _ -> ()) in
  let after = Sim_time.ns 100 in
  fun n ->
    for i = 1 to n do
      Scheduler.schedule_tag sched ~after ~kind ~arg:i;
      ignore (Scheduler.step sched : bool)
    done

(* Events one switch traversal fires (forward, serialize, deliver), so
   the attribution does not count their dispatch twice. *)
let forward_events_per_op = ref 0.0

let netsim_switch_forward () =
  (* receive -> route -> pick -> enqueue -> serialize -> deliver, with
     every event it schedules drained *)
  let sched = Scheduler.create () in
  let sw =
    Switch.create ~sched ~id:0 ~level:Switch.Leaf ~ecmp_seed:3
      ~latency:Sim_time.zero_span ()
  in
  let ports =
    Array.init 4 (fun i ->
        let l = Link.create ~sched ~rate_bps:40e9 ~prop_delay:Sim_time.zero_span () in
        Link.set_sink l Packet_pool.release;
        Switch.add_port sw ~link:l ~peer:(i + 1) ~parallel_index:0)
  in
  Switch.set_routes sw (Addr.of_int 99) ports;
  fun n ->
    let fired = Scheduler.events_fired sched in
    for i = 1 to n do
      let pkt =
        Packet_pool.acquire_tenant ~src:(Addr.of_int 1) ~dst:(Addr.of_int 99)
          ~conn_id:(i land 63) ~subflow:0 ~src_port:(1000 + (i land 63))
          ~dst_port:80 ~seq:0 ~ack:0 ~kind:Packet.Data ~payload:1400 ~ece:false
      in
      Switch.receive sw ~in_port:0 pkt;
      while Scheduler.step sched do
        ()
      done
    done;
    forward_events_per_op := fi (Scheduler.events_fired sched - fired) /. fi n

let netsim_ecmp_hash () =
  let acc = ref 0 in
  fun n ->
    for i = 1 to n do
      acc := !acc lxor Ecmp_hash.hash_tuple ~seed:7 (i, 34, 56, 78)
    done;
    ignore (Sys.opaque_identity !acc : int)

let netsim_dre () =
  let sched = Scheduler.create () in
  let dre = Dre.create ~rate_bps:10e9 sched in
  fun n ->
    for _ = 1 to n do
      Dre.observe dre ~bytes_len:1500;
      ignore (Sys.opaque_identity (Dre.utilization dre) : float)
    done

let netsim_pool_cycle () n =
  for _ = 1 to n do
    let pkt =
      Packet_pool.acquire_tenant ~src:(Addr.of_int 1) ~dst:(Addr.of_int 2) ~conn_id:1
        ~subflow:0 ~src_port:10 ~dst_port:20 ~seq:0 ~ack:0 ~kind:Packet.Data
        ~payload:1400 ~ece:false
    in
    Packet_pool.release pkt
  done

(* A TCP sender/receiver pair wired back to back through a FIFO: each
   operation is one segment (data or ACK) handed to its endpoint, then
   recycled the way the receiving vswitch recycles it. *)
let transport_segment () =
  let sched = Scheduler.create () in
  let cfg = Transport.Tcp_config.default in
  let wire = Queue.create () in
  let a = Addr.of_int 1 and b = Addr.of_int 2 in
  let sender =
    Transport.Tcp.create_sender ~sched ~cfg ~conn_id:1 ~src:a ~dst:b ~src_port:1000
      ~dst_port:80 ~tx:(fun p -> Queue.push p wire) ()
  in
  let receiver =
    Transport.Tcp.create_receiver ~sched ~cfg ~conn_id:1 ~addr:b ~peer:a ~src_port:80
      ~dst_port:1000 ~tx:(fun p -> Queue.push p wire) ()
  in
  let job = 256 * cfg.Transport.Tcp_config.mss in
  fun n ->
    for _ = 1 to n do
      if Queue.is_empty wire then
        Transport.Tcp.send sender ~bytes:job ~on_complete:(fun () -> ());
      let pkt = Queue.pop wire in
      (match pkt.Packet.payload with
      | Packet.Tenant inner -> (
        match inner.Packet.seg.Packet.kind with
        | Packet.Data -> Transport.Tcp.on_data receiver inner
        | Packet.Ack -> Transport.Tcp.on_ack sender inner.Packet.seg)
      | Packet.Probe _ | Packet.Probe_reply _ -> ());
      Packet_pool.release pkt
    done

(* Vswitch.tx on a Clove-ECN host whose paths are discovered, with the
   uplink down so the cost ends at the host's egress (the down link
   counts the drop and forwards nothing).  Includes one pool
   acquire+release per packet. *)
let clove_vswitch_tx () =
  let params = { Scenario.default_params with Scenario.hosts_per_leaf = 2; seed = 1 } in
  let scn = Scenario.build ~shards:0 ~scheme:Scenario.S_clove_ecn params in
  let client = (Scenario.clients scn).(0) and server = (Scenario.servers scn).(0) in
  let (_ : Workload.Websearch.submit) = Scenario.connect scn ~src:client ~dst:server in
  let sched = Scenario.sched scn in
  Scheduler.run ~until:(Sim_time.add (Scheduler.now sched) (Scenario.warmup scn)) sched;
  Link.set_up (Host.uplink client) false;
  let v = Scenario.vswitch scn client in
  let src = Host.addr client and dst = Host.addr server in
  fun n ->
    for i = 1 to n do
      let pkt =
        Packet_pool.acquire_tenant ~src ~dst ~conn_id:(i land 63) ~subflow:0
          ~src_port:(1000 + (i land 63)) ~dst_port:80 ~seq:i ~ack:0 ~kind:Packet.Data
          ~payload:1400 ~ece:false
      in
      Clove.Vswitch.tx v pkt;
      Packet_pool.release pkt
    done

let clove_flowlet_touch () =
  let sched = Scheduler.create () in
  let rng = Rng.create 1 in
  let tbl = Clove.Flowlet.create ~sched ~gap:(Sim_time.us 40) ~dummy:0 in
  let pick ~flowlet_id = flowlet_id in
  fun n ->
    for _ = 1 to n do
      ignore (Clove.Flowlet.touch tbl ~key:(Rng.int rng 1024) ~pick : int)
    done

let clove_wrr_pick () =
  let wrr = Clove.Wrr.create ~weights:[| 0.1; 0.3; 0.3; 0.3 |] in
  fun n ->
    for _ = 1 to n do
      ignore (Clove.Wrr.pick wrr : int)
    done

let clove_path_update () =
  let sched = Scheduler.create () in
  let tbl = Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default in
  Clove.Path_table.install tbl
    (List.init 4 (fun i ->
         (50001 + i, [ { Packet.hop_node = 2 + (i / 2); hop_port = i mod 2 } ])));
  fun n ->
    for i = 1 to n do
      Clove.Path_table.note_congested tbl ~port:(50001 + (i land 3))
    done

let stats_record ~stream () =
  let rng = Rng.create 1 in
  fun n ->
    let sink = Workload.Fct_stats.create ~stream () in
    for i = 1 to n do
      let start = Sim_time.of_ns (i * 1000) in
      Workload.Fct_stats.record sink ~size:(1 + Rng.int rng 1_000_000) ~start
        ~finish:(Sim_time.add start (Sim_time.ns (1 + Rng.int rng 10_000_000)))
    done

let unit_cost_benches =
    [
      ("engine.queue_add_pop_ns", engine_queue_add_pop);
      ("engine.tag_schedule_step_ns", engine_tag_schedule_step);
      ("netsim.switch_forward_ns", netsim_switch_forward);
      ("netsim.ecmp_hash_ns", netsim_ecmp_hash);
      ("netsim.dre_ns", netsim_dre);
      ("netsim.pool_cycle_ns", netsim_pool_cycle);
      ("transport.segment_ns", transport_segment);
      ("clove.flowlet_touch_ns", clove_flowlet_touch);
      ("clove.wrr_pick_ns", clove_wrr_pick);
      ("clove.path_update_ns", clove_path_update);
      ("clove.vswitch_tx_ns", clove_vswitch_tx);
      ("stats.record_exact_ns", stats_record ~stream:false);
      ("stats.record_stream_ns", stats_record ~stream:true);
    ]

let unit_costs ~budget =
  List.map (fun (name, make) -> (name, unit_cost ~budget (make ()))) unit_cost_benches

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_metric buf (name, value, unit) =
  let value = if Float.is_finite value then value else 0.0 in
  Printf.bprintf buf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_result ~attempted ~failed metrics =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (failed = 0) attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ", ";
      json_metric buf m)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

type opts = {
  workload : string;
  w : workload;
  seed : int;
  seconds : float;
  trace : bool;
  shards : int;
}

(* Repetitions that must agree bit for bit: digests and counts. *)
let consistency reps =
  match reps with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun r ->
        if r.sim.digest <> first.sim.digest then
          [ ("FCT digest differs between repetitions", r.expected) ]
        else if r.counts <> first.counts then
          [ ("layer counts differ between repetitions", r.expected) ]
        else [])
      rest

let failures reps =
  List.concat_map (fun r -> r.issues) reps @ consistency reps

let report_failures fs =
  List.iter (fun (s, n) -> Printf.printf "FAILED (%d flows): %s\n" n s) fs

(* Repeat [one ()] until [budget] seconds are spent, predicting from the
   last repetition whether another fits; at least [min_reps]. *)
let repeat ~budget ~min_reps one =
  let start = wall () in
  let rec go acc last =
    let elapsed = wall () -. start in
    if List.length acc >= min_reps && elapsed +. last > budget then List.rev acc
    else
      let t0 = wall () in
      let r = one () in
      go (r :: acc) (wall () -. t0)
  in
  go [] 0.0

(* Set-up takes milliseconds, so each drive is followed by a second of
   set-up-only passes; spread over the whole run, they are likely to
   catch the host outside its slow phases. *)
let setup_window_s = 1.0

let setup_window o =
  let stop = wall () +. setup_window_s in
  let rec sample acc =
    if wall () >= stop then acc
    else sample (setup_total (setup_only o.w ~seed:o.seed ~shards:o.shards) :: acc)
  in
  sample []

let rep_with_setups o =
  let r = run_rep o.w ~seed:o.seed ~shards:o.shards in
  (r, setup_total r.setup :: setup_window o)

let print_header o =
  Printf.printf "workload %s seed %d shards %d host_cores %d trace %b\n" o.workload
    o.seed o.shards (Domain_pool.host_cores ()) o.trace

let print_rep label r =
  Printf.printf
    "%s setup %.4fs (build %.4f connect %.4f arm %.4f)  drive %.3fs wall %.3fs cpu  \
     hops %d  minor words %.0f  digest %s\n"
    label (setup_total r.setup) r.setup.build_s r.setup.connect_s r.setup.arm_s r.drive_s
    r.drive_cpu_s
    (count r.counts "netsim.pkt_hops")
    r.minor_words
    r.sim.digest

let hops_per_s r = fi (count r.counts "netsim.pkt_hops") /. r.drive_s
let hops_per_cpu_s r = fi (count r.counts "netsim.pkt_hops") /. r.drive_cpu_s

let run_untraced o =
  print_header o;
  let start = wall () in
  let early_setups = setup_window o in
  let first, first_setups = rep_with_setups o in
  (* the first drive's high-water mark: later repetitions only add heap
     fragmentation, and how many fit depends on the host's speed *)
  let peak_heap = peak_heap_mb () in
  (* at least two drives, so the determinism check always has a pair *)
  let rest =
    repeat ~budget:(o.seconds -. (wall () -. start)) ~min_reps:1 (fun () ->
        rep_with_setups o)
  in
  let reps = first :: List.map fst rest in
  let setups = early_setups @ first_setups @ List.concat_map snd rest in
  List.iteri (fun i r -> print_rep (Printf.sprintf "rep %d" i) r) reps;
  let s = first.sim in
  Printf.printf "digest %s %d %s\n" o.workload o.seed s.digest;
  Printf.printf "samples: %d drives, %d set-ups\n" (List.length reps)
    (List.length setups);
  (* deterministic for the seed; reported in the traced run's table *)
  Printf.printf
    "simulated: %d jobs, FCT avg %.4f p50 %.4f p99 %.4f ms, goodput %.3f Gbps, \
     %d mice, %d post-fault mice\n"
    s.jobs_n s.fct_avg_ms s.fct_p50_ms s.fct_p99_ms s.goodput_gbps s.mice_n s.post_n;
  let drive = List.fold_left (fun acc r -> acc +. r.drive_s) 0.0 reps in
  let drive_cpu = List.fold_left (fun acc r -> acc +. r.drive_cpu_s) 0.0 reps in
  Printf.printf
    "drive: %.3fs wall, %.3fs cpu over %d drives; median %.0f hops/s wall, %.0f \
     hops/s cpu\n"
    drive drive_cpu (List.length reps)
    (median (List.map hops_per_s reps))
    (median (List.map hops_per_cpu_s reps));
  let hops = fi (count first.counts "netsim.pkt_hops") in
  let fs = failures reps in
  report_failures fs;
  let attempted = List.fold_left (fun acc r -> acc + r.expected) 0 reps in
  let failed = min attempted (List.fold_left (fun acc (_, n) -> acc + n) 0 fs) in
  print_result ~attempted ~failed
    [
      (* the best set-up: shared hosts run memory-heavy work markedly
         slower in phases, and set-up is short enough to fit between them *)
      ("setup_s", List.fold_left Float.min infinity setups, "s");
      ("peak_heap_mb", peak_heap, "MB");
      (* host-independent drive cost; see README.md for why the drive's
         wall and CPU rates are per-layer metrics instead *)
      ( "alloc_words_per_hop",
        median (List.map (fun r -> r.minor_words) reps) /. hops,
        "words" );
      ("events_per_hop", fi (count first.counts "engine.events") /. hops, "events");
    ];
  if failed > 0 then exit 1

(* Where a metric cannot be read through a public function on this
   workload, it is reported as 0 and named here. *)
let unmeasured o =
  (if o.shards >= 2 then
     [
       "netsim.pool_acquires, netsim.pool_hit_rate: Packet_pool.stats sees \
        only the calling domain, and shards run on pool domains";
     ]
   else [])
  @ [
      "netsim link serialization and switch egress: no public per-packet entry \
       besides Switch.receive";
      "clove receive side (decap, feedback relay): no public per-packet entry";
      "faults: no public per-event entry; only the count is reported";
    ]

(* The traced run: untraced and traced repetitions alternate (U, T, U,
   T, ...), then the unit costs.  Tracing adds span records around the
   benchmark's calls into each layer; it must not change any count or
   digest, which the consistency check enforces. *)
let run_traced o =
  print_header o;
  let unit_budget = 0.25 in
  let n_costs = List.length unit_cost_benches in
  (* spans in memory, (name, seconds), written out at the end *)
  let spans = ref [] in
  let span name f =
    let r, dt = timed f in
    spans := (name, dt) :: !spans;
    r
  in
  let traced = ref false in
  let reps =
    repeat
      ~budget:(Float.max 0.0 (o.seconds -. (unit_budget *. fi n_costs)))
      ~min_reps:2
      (fun () ->
        let t = !traced in
        traced := not t;
        let r =
          if t then span "rep" (fun () -> run_rep o.w ~seed:o.seed ~shards:o.shards)
          else run_rep o.w ~seed:o.seed ~shards:o.shards
        in
        if t then
          spans :=
            [
              ("stats.query", r.query_s);
              ("engine.drive", r.drive_s);
              ("faults+workload.arm", r.setup.arm_s);
              ("transport.connect", r.setup.connect_s);
              ("experiments.build", r.setup.build_s);
            ]
            @ !spans;
        (t, r))
  in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let traced_reps = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
  let all = List.map snd reps in
  List.iter (fun (t, r) -> print_rep (if t then "traced" else "untraced") r) reps;
  let costs = span "unit_costs" (fun () -> unit_costs ~budget:unit_budget) in
  List.iter (fun (name, dt) -> Printf.printf "span %-22s %.6fs\n" name dt) (List.rev !spans);
  List.iter (fun u -> Printf.printf "unmeasured: %s\n" u) (unmeasured o);
  let r = List.hd traced_reps in
  Printf.printf "digest %s %d %s\n" o.workload o.seed r.sim.digest;
  let c name = fi (count r.counts name) in
  let cost name = List.assoc name costs in
  let med f = median (List.map f traced_reps) in
  let drive_s = med (fun r -> r.drive_s) in
  let drive_cpu_s = med (fun r -> r.drive_cpu_s) in
  let untraced_drive_s = median (List.map (fun r -> r.drive_s) untraced) in
  let events = c "engine.events" in
  let hops = c "netsim.pkt_hops" in
  let tenant = c "transport.tenant_pkts" in
  let timers = c "engine.wheel_scheduled" +. c "engine.heap_scheduled" in
  let windows = c "engine.shard.windows" in
  let relays = c "clove.feedback_piggybacked" +. c "clove.feedback_carriers" in
  let flows = c "stats.flows" in
  let streaming = c "stats.sketch_nodes" > 0.0 in
  let pool_hits, pool_acq =
    if o.shards >= 2 then (0.0, 0.0)
    else
      ( fi r.pool.Packet_pool.hits,
        fi (r.pool.Packet_pool.hits + r.pool.Packet_pool.misses) )
  in
  let est_engine = events *. cost "engine.tag_schedule_step_ns" *. 1e-9 in
  (* each cost counted once: a switch traversal's own event dispatch is
     the engine's, and the vswitch's packet comes from the pool *)
  let est_netsim =
    ((c "netsim.switch_rx"
     *. (cost "netsim.switch_forward_ns"
        -. (!forward_events_per_op *. cost "engine.tag_schedule_step_ns")))
    +. (tenant *. cost "netsim.pool_cycle_ns"))
    *. 1e-9
  in
  let est_transport = tenant *. cost "transport.segment_ns" *. 1e-9 in
  let est_clove =
    tenant *. (cost "clove.vswitch_tx_ns" -. cost "netsim.pool_cycle_ns") *. 1e-9
  in
  let est_stats =
    flows
    *. cost (if streaming then "stats.record_stream_ns" else "stats.record_exact_ns")
    *. 1e-9
  in
  let attributed = est_engine +. est_netsim +. est_transport +. est_clove +. est_stats in
  let metrics =
    [
      ("engine.events", events, "count");
      ("engine.events_per_hop", ratio events hops, "ratio");
      ("engine.minor_words_per_event", ratio (med (fun r -> r.minor_words)) events, "words");
      ( "engine.promoted_words_per_event",
        ratio (med (fun r -> r.promoted_words)) events,
        "words" );
      ("engine.timers_scheduled", timers, "count");
      ("engine.wheel_share", ratio (c "engine.wheel_scheduled") timers, "ratio");
      ("engine.compactions", c "engine.compactions", "count");
      ("engine.shard.windows", windows, "count");
      ("engine.shard.boundary_events", c "engine.shard.boundary_events", "count");
      ( "engine.shard.boundary_events_per_window",
        ratio (c "engine.shard.boundary_events") windows,
        "ratio" );
      ("engine.shard.stalls", c "engine.shard.stalls", "count");
      ("engine.shard.stalls_per_window", ratio (c "engine.shard.stalls") windows, "ratio");
      ("engine.cpu_per_wall", ratio drive_cpu_s drive_s, "ratio");
      ("engine.est_self_s", est_engine, "s");
      ("netsim.pkt_hops", hops, "count");
      ("netsim.switch_rx", c "netsim.switch_rx", "count");
      ("netsim.queue_drops", c "netsim.queue_drops", "count");
      ("netsim.drop_ratio", ratio (c "netsim.queue_drops") hops, "ratio");
      ("netsim.ecn_marks", c "netsim.ecn_marks", "count");
      ("netsim.mark_ratio", ratio (c "netsim.ecn_marks") hops, "ratio");
      ("netsim.max_queue_pkts", c "netsim.max_queue_pkts", "pkts");
      ("netsim.brownout_drops", c "netsim.brownout_drops", "count");
      ("netsim.pool_acquires", pool_acq, "count");
      ("netsim.pool_hit_rate", ratio pool_hits pool_acq, "ratio");
      ("netsim.est_self_s", est_netsim, "s");
      ("transport.tenant_pkts", tenant, "count");
      ("transport.retransmits", c "transport.retransmits", "count");
      ("transport.timeouts", c "transport.timeouts", "count");
      ("transport.retx_ratio", ratio (c "transport.retransmits") tenant, "ratio");
      ("transport.est_self_s", est_transport, "s");
      ("clove.flowlets", c "clove.flowlets", "count");
      ("clove.pkts_per_flowlet", ratio tenant (c "clove.flowlets"), "ratio");
      ("clove.feedback_relays", relays, "count");
      ("clove.feedback_carriers", c "clove.feedback_carriers", "count");
      ("clove.carrier_share", ratio (c "clove.feedback_carriers") relays, "ratio");
      ("clove.escalations", c "clove.escalations", "count");
      ("clove.peak_flows_tracked", c "clove.peak_flows_tracked", "count");
      ("clove.congestion_feedback", c "clove.congestion_feedback", "count");
      ("clove.suspect_paths", c "clove.suspect_paths", "count");
      ("clove.est_self_s", est_clove, "s");
      ("faults.events", c "faults.events", "count");
      ("stats.flows", flows, "count");
      ("stats.sketch_nodes", c "stats.sketch_nodes", "count");
      ("stats.query_s", med (fun r -> r.query_s), "s");
      ("stats.jobs", fi r.sim.jobs_n, "count");
      ("stats.fct_avg_ms", r.sim.fct_avg_ms, "ms");
      ("stats.fct_p50_ms", r.sim.fct_p50_ms, "ms");
      ("stats.fct_p99_ms", r.sim.fct_p99_ms, "ms");
      ("stats.goodput_gbps", r.sim.goodput_gbps, "Gbps");
      ("stats.mice_flows", fi r.sim.mice_n, "count");
      ("stats.mice_fct_p50_ms", r.sim.mice_p50_ms, "ms");
      ("stats.mice_fct_p99_ms", r.sim.mice_p99_ms, "ms");
      ("stats.post_fault_mice_flows", fi r.sim.post_n, "count");
      ("stats.post_fault_mice_fct_avg_ms", r.sim.post_avg_ms, "ms");
      ("stats.est_self_s", est_stats, "s");
      ("setup.build_s", med (fun r -> r.setup.build_s), "s");
      ("setup.connect_s", med (fun r -> r.setup.connect_s), "s");
      ("setup.arm_s", med (fun r -> r.setup.arm_s), "s");
      ("drive.wall_s", drive_s, "s");
      ("drive.pkt_hops_per_s", ratio hops drive_s, "1/s");
      ("drive.pkt_hops_per_cpu_s", ratio hops drive_cpu_s, "1/s");
      ("drive.cpu_s", drive_cpu_s, "s");
      (* the estimates are CPU work, so their base is the drive's CPU time
         (all domains), not its wall time *)
      ("drive.unattributed_share", 1.0 -. ratio attributed drive_cpu_s, "ratio");
      ("trace.overhead_share", ratio drive_s untraced_drive_s -. 1.0, "ratio");
      ("host.cores", fi (Domain_pool.host_cores ()), "count");
    ]
    @ List.map (fun (name, v) -> (name, v, "ns")) costs
  in
  let fs = failures all in
  report_failures fs;
  let attempted = List.fold_left (fun acc r -> acc + r.expected) 0 all in
  let failed = min attempted (List.fold_left (fun acc (_, n) -> acc + n) 0 fs) in
  print_result ~attempted ~failed metrics;
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--shards N]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let w = match List.assoc_opt workload workloads with Some w -> w | None -> usage () in
  let shards =
    match List.assoc_opt "shards" kv with
    | None -> if w = Clos3_brownout_pdes then clos3_default_shards else 0
    | Some _ when w <> Clos3_brownout_pdes -> usage ()
    | Some _ -> int_of "shards"
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  { workload; w; seed = int_of "seed"; seconds = fi (int_of "seconds"); trace; shards }

let () =
  let o = parse_args Sys.argv in
  try if o.trace then run_traced o else run_untraced o
  with e ->
    (* a drive that raises (a stalled simulation) fails all its flows *)
    Printf.printf "FAILED: %s\n" (Printexc.to_string e);
    let n = try rep_flows o.w ~seed:o.seed ~shards:o.shards with _ -> 1 in
    print_result ~attempted:n ~failed:n [];
    exit 1
