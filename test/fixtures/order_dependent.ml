(* A deliberately order-dependent "load balancer" used as an analyzer
   fixture: each definition below violates one determinism or
   unit-safety rule of clove-check's parsetree pass.  It is compiled
   (sema_fixtures, never linked) so that clove-check, which needs a
   typedtree for every .ml it scans, can run over it; the default run
   skips [fixtures] directories unless pointed at one explicitly:

     clove-check test/fixtures    # must exit 1, naming every rule *)

let weights : (int, float) Hashtbl.t = Hashtbl.create 16
let log = Buffer.create 256

(* sema-hashtbl-order: effectful closure visits in bucket order *)
let dump_weights () =
  Hashtbl.iter
    (fun port w -> Buffer.add_string log (Printf.sprintf "%d:%f\n" port w))
    weights

(* sema-raw-random: bypasses the seeded Engine.Rng streams *)
let pick_port ports = List.nth ports (Random.int (List.length ports))

(* sema-wall-clock: wall time leaks into the simulation *)
let stamp () = Unix.gettimeofday ()

(* sema-adhoc-seed: constant seed decoupled from the experiment seed *)
let local_rng = Rng.create 42

(* sema-wildcard-variant: silent fall-through over protocol payloads *)
let is_probe pkt = match pkt.Packet.payload with Packet.Probe _ -> true | _ -> false

(* sema-time-boundary: raw nanoseconds outside the whitelist *)
let gap_ns = Sim_time.span_ns (Sim_time.us 500)

(* sema-unit-mix: bytes added to nanoseconds *)
let nonsense flow_bytes = flow_bytes + gap_ns
