type job = { end_seq : int; on_complete : unit -> unit }

(* Congestion-control floats live in their own all-float record: OCaml
   stores such a record as a flat float block, so the per-ACK writes
   ([cwnd] grows on every ACK) store unboxed doubles in place.  The same
   fields as mutable floats of the mixed [sender] record would box a
   fresh float on every write. *)
type cc = {
  mutable cwnd : float; (* packets *)
  mutable ssthresh : float; (* packets *)
  mutable dctcp_alpha : float; (* DCTCP marked-byte fraction estimate *)
  mutable min_rtt_ns : float; (* lowest raw sample seen; HyStart baseline *)
}

type sender = {
  sched : Scheduler.t;
  cfg : Tcp_config.t;
  conn_id : int;
  subflow : int;
  src : Addr.t;
  dst : Addr.t;
  src_port : int;
  dst_port : int;
  tx : Packet.t -> unit;
  jobs : job Queue.t;
  rtt : Rtt_estimator.t;
  mutable snd_una : int;
  mutable snd_next : int;
  mutable stream_end : int;
  cc : cc;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  (* re-armable timers, built once per sender: [arm_rto] runs on every
     ACK and re-arms both without allocating *)
  mutable rto : Scheduler.timer;
  mutable tlp : Scheduler.timer;
  mutable tlp_fired : bool; (* one probe per flight *)
  (* the in-flight RTT probe, flattened from [(int * Sim_time.t) option]
     so arming one (once per window) writes two immediates instead of
     allocating a tuple inside an option; seq < 0 means "no probe" *)
  mutable rtt_probe_seq : int;
  mutable rtt_probe_t0 : Sim_time.t;
  mutable last_ecn_cut : Sim_time.t;
  mutable ever_cut : bool;
  (* DCTCP state: fraction of marked bytes over the last window *)
  mutable dctcp_acked : int;
  mutable dctcp_marked : int;
  mutable dctcp_window_end : int;
  mutable pull : (unit -> int) option;
  (* the LIA-coupled subflows of one MPTCP connection, this one
     included; [[||]] when uncoupled *)
  mutable group : sender array;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable stopped : bool;
  mutable on_acked : (int -> unit) option;
  mutable on_timeout : (unit -> unit) option;
}

let set_pull s f = s.pull <- Some f

let couple senders = Array.iter (fun s -> s.group <- senders) senders
let cwnd_pkts s = s.cc.cwnd
let srtt s = Rtt_estimator.srtt s.rtt
let flight_bytes s = s.snd_next - s.snd_una
let snd_una s = s.snd_una
let snd_next s = s.snd_next
let stream_end s = s.stream_end
let retransmits s = s.retransmits
let timeouts s = s.timeouts
let conn_id s = s.conn_id
let subflow_id s = s.subflow
let dst s = s.dst
let set_on_acked s f = s.on_acked <- Some f
let set_on_timeout s f = s.on_timeout <- Some f

let mss s = s.cfg.Tcp_config.mss
let cwnd_bytes s = int_of_float (s.cc.cwnd *. float_of_int (mss s))

let stop s =
  s.stopped <- true;
  Scheduler.disarm s.rto;
  Scheduler.disarm s.tlp

let emit_data s ~seq ~payload =
  s.tx
    (Packet_pool.acquire_tenant ~src:s.src ~dst:s.dst ~conn_id:s.conn_id
       ~subflow:s.subflow ~src_port:s.src_port ~dst_port:s.dst_port ~seq ~ack:0
       ~kind:Packet.Data ~payload ~ece:false)

let rec arm_rto s =
  if flight_bytes s > 0 && not s.stopped then begin
    Scheduler.arm s.rto ~after:(Rtt_estimator.rto s.rtt);
    arm_tlp s
  end
  else Scheduler.disarm s.rto

and arm_tlp s =
  (* tail loss probe (Linux since 3.10): if no ACK arrives for ~2 SRTT,
     retransmit the last unacked segment; a lost flight tail then recovers
     via dupacks/cumulative ACK instead of a full RTO.  The SRTT is read
     through the option-free raw accessors: this runs per ACK and the
     [srtt] option would be a per-ACK box *)
  if (not s.tlp_fired) && (not (Scheduler.armed s.tlp)) && not s.in_recovery then begin
    let pto =
      if Rtt_estimator.has_sample s.rtt then
        Sim_time.add_span
          (Sim_time.mul_span (Rtt_estimator.srtt_span s.rtt) 2.0)
          (Sim_time.us 100)
      else Sim_time.ms 1
    in
    Scheduler.arm s.tlp ~after:pto
  end

and on_tlp s =
  if flight_bytes s > 0 && (not s.stopped) && not s.in_recovery then begin
    s.tlp_fired <- true;
    let seq = max s.snd_una (s.snd_next - mss s) in
    let payload = min (mss s) (s.stream_end - seq) in
    if payload > 0 then begin
      s.retransmits <- s.retransmits + 1;
      s.rtt_probe_seq <- -1;
      emit_data s ~seq ~payload
    end
  end

and on_rto s =
  if flight_bytes s > 0 && not s.stopped then begin
    s.timeouts <- s.timeouts + 1;
    Scheduler.disarm s.tlp;
    s.tlp_fired <- false;
    Rtt_estimator.backoff s.rtt;
    let flight_pkts = float_of_int (flight_bytes s) /. float_of_int (mss s) in
    s.cc.ssthresh <- Float.max (flight_pkts /. 2.0) 2.0;
    s.cc.cwnd <- 1.0;
    s.in_recovery <- false;
    s.dup_acks <- 0;
    s.rtt_probe_seq <- -1;
    (* go-back-N: rewind and retransmit from the oldest unacked byte *)
    s.snd_next <- s.snd_una;
    s.retransmits <- s.retransmits + 1;
    let payload = min (mss s) (s.stream_end - s.snd_una) in
    if payload > 0 then begin
      emit_data s ~seq:s.snd_una ~payload;
      s.snd_next <- s.snd_una + payload
    end;
    arm_rto s;
    match s.on_timeout with Some f -> f () | None -> ()
  end

let create_sender ~sched ~cfg ~conn_id ?(subflow = 0) ~src ~dst ~src_port ~dst_port ~tx
    () =
  let s =
    {
      sched;
      cfg;
      conn_id;
      subflow;
      src;
      dst;
      src_port;
      dst_port;
      tx;
      jobs = Queue.create ();
      rtt = Rtt_estimator.create ~min_rto:cfg.Tcp_config.min_rto ~max_rto:cfg.Tcp_config.max_rto ();
      snd_una = 0;
      snd_next = 0;
      stream_end = 0;
      cc =
        {
          cwnd = cfg.Tcp_config.init_cwnd_pkts;
          ssthresh = 1e9;
          dctcp_alpha = 1.0;
          min_rtt_ns = infinity;
        };
      dup_acks = 0;
      in_recovery = false;
      recover = 0;
      rto = Scheduler.timer sched ignore;
      tlp = Scheduler.timer sched ignore;
      tlp_fired = false;
      rtt_probe_seq = -1;
      rtt_probe_t0 = Sim_time.zero;
      last_ecn_cut = Sim_time.zero;
      ever_cut = false;
      dctcp_acked = 0;
      dctcp_marked = 0;
      dctcp_window_end = 0;
      pull = None;
      group = [||];
      retransmits = 0;
      timeouts = 0;
      stopped = false;
      on_acked = None;
      on_timeout = None;
    }
  in
  (* tie the timer-body knot: the thunks capture [s], so the real timers
     replace the placeholders once [s] exists *)
  s.rto <- Scheduler.timer sched (fun () -> on_rto s);
  s.tlp <- Scheduler.timer sched (fun () -> on_tlp s);
  s

let retransmit_hole s =
  let payload = min (mss s) (s.stream_end - s.snd_una) in
  if payload > 0 then begin
    s.retransmits <- s.retransmits + 1;
    s.rtt_probe_seq <- -1;
    emit_data s ~seq:s.snd_una ~payload
  end

let rec try_send s =
  if s.stopped then ()
  else begin
    (* extend the stream from the MPTCP scheduler if we have window room *)
    (if s.snd_next >= s.stream_end then
       match s.pull with
       | Some pull when s.snd_next - s.snd_una < cwnd_bytes s ->
         let granted = pull () in
         if granted > 0 then s.stream_end <- s.stream_end + granted
       | _ -> ());
    if s.snd_next < s.stream_end && s.snd_next - s.snd_una < cwnd_bytes s then begin
      let payload = min (mss s) (s.stream_end - s.snd_next) in
      emit_data s ~seq:s.snd_next ~payload;
      if s.rtt_probe_seq < 0 then begin
        s.rtt_probe_seq <- s.snd_next + payload;
        s.rtt_probe_t0 <- Scheduler.now s.sched
      end;
      s.snd_next <- s.snd_next + payload;
      if not (Scheduler.armed s.rto) then arm_rto s;
      try_send s
    end
  end

let send s ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Tcp.send: bytes must be positive";
  s.stream_end <- s.stream_end + bytes;
  Queue.add { end_seq = s.stream_end; on_complete } s.jobs;
  try_send s

(* top-level recursion, not a local loop: this runs on every ACK and a
   local function capturing [s] would be allocated per call *)
let rec complete_jobs s =
  if (not (Queue.is_empty s.jobs)) && (Queue.peek s.jobs).end_seq <= s.snd_una
  then begin
    let job = Queue.pop s.jobs in
    job.on_complete ();
    complete_jobs s
  end

let window_cut s =
  (* at most one multiplicative decrease per RTT, RFC 3168 style; DCTCP
     scales the decrease by the marked fraction instead of halving *)
  let now = Scheduler.now s.sched in
  let guard =
    if Rtt_estimator.has_sample s.rtt then Rtt_estimator.srtt_span s.rtt
    else Sim_time.us 100
  in
  if (not s.ever_cut) || Sim_time.(now >= add s.last_ecn_cut guard) then begin
    s.ever_cut <- true;
    s.last_ecn_cut <- now;
    let factor =
      if s.cfg.Tcp_config.dctcp then 1.0 -. (s.cc.dctcp_alpha /. 2.0) else 0.5
    in
    s.cc.ssthresh <- Float.max (s.cc.cwnd *. factor) 2.0;
    s.cc.cwnd <- s.cc.ssthresh
  end

let dctcp_account s ~acked_bytes ~ece =
  if s.cfg.Tcp_config.dctcp then begin
    s.dctcp_acked <- s.dctcp_acked + acked_bytes;
    if ece then s.dctcp_marked <- s.dctcp_marked + acked_bytes;
    if s.snd_una >= s.dctcp_window_end && s.dctcp_acked > 0 then begin
      let f = float_of_int s.dctcp_marked /. float_of_int s.dctcp_acked in
      let g = s.cfg.Tcp_config.dctcp_g in
      s.cc.dctcp_alpha <- ((1.0 -. g) *. s.cc.dctcp_alpha) +. (g *. f);
      s.dctcp_acked <- 0;
      s.dctcp_marked <- 0;
      s.dctcp_window_end <- s.snd_next
    end
  end

let ecn_signal s = if s.cfg.Tcp_config.respond_to_ecn then window_cut s

(* smoothed RTT in seconds for the LIA weights: floored at 1 us, and
   100 us before the first sample *)
let[@inline] lia_rtt s =
  if Rtt_estimator.has_sample s.rtt then
    (* per ACK: a cross-module float result would box, so convert from
       raw ns here — lint: allow sema-time-boundary *)
    let ns = Sim_time.span_ns (Rtt_estimator.srtt_span s.rtt) in
    Float.max (float_of_int ns /. 1e9) 1e-6
  else 100e-6

(* MPTCP's coupled increase (LIA, RFC 6356) for a subflow in congestion
   avoidance:
     alpha = cwnd_total * max_r(w_r / rtt_r^2) / (sum_r w_r / rtt_r)^2
   and the per-packet-acked increase for this subflow is
   min(alpha / w_total, 1 / w_k).  Computed here rather than by the
   MPTCP layer so no float crosses a module boundary per ACK; it takes
   the acked byte count and updates [cwnd] in place for the same
   reason. *)
let lia_grow s ~acked_bytes =
  let acked_pkts = float_of_int acked_bytes /. float_of_int (mss s) in
  let g = s.group in
  let w_total = ref 0.0 and best = ref 0.0 and denom = ref 0.0 in
  for i = 0 to Array.length g - 1 do
    let w = g.(i).cc.cwnd and r = lia_rtt g.(i) in
    w_total := !w_total +. w;
    best := Float.max !best (w /. (r *. r));
    denom := !denom +. (w /. r)
  done;
  let inc =
    if !denom <= 0.0 || !w_total <= 0.0 then 0.0
    else begin
      let alpha = !w_total *. !best /. (!denom *. !denom) in
      let wk = Float.max s.cc.cwnd 1e-9 in
      Float.min (alpha /. !w_total) (1.0 /. wk)
    end
  in
  s.cc.cwnd <- s.cc.cwnd +. (inc *. acked_pkts)

let grow_window s ~acked_bytes =
  let acked_pkts = float_of_int acked_bytes /. float_of_int (mss s) in
  if s.cc.cwnd < s.cc.ssthresh then
    s.cc.cwnd <- s.cc.cwnd +. acked_pkts (* slow start *)
  else if Array.length s.group = 0 then
    s.cc.cwnd <- s.cc.cwnd +. (acked_pkts /. s.cc.cwnd)
  else lia_grow s ~acked_bytes

let on_ack s (seg : Packet.tcp_seg) =
  if s.stopped then ()
  else begin
    if seg.Packet.ece then ecn_signal s;
    let ack = seg.Packet.ack in
    if ack > s.snd_una then begin
      let acked_bytes = ack - s.snd_una in
      dctcp_account s ~acked_bytes ~ece:seg.Packet.ece;
      if s.rtt_probe_seq >= 0 && ack >= s.rtt_probe_seq then begin
        let sample = Sim_time.diff (Scheduler.now s.sched) s.rtt_probe_t0 in
        Rtt_estimator.sample s.rtt sample;
        (* the CC heuristics below mirror RTTs as a raw ns float for cheap
           ratio tests — lint: allow sema-time-boundary *)
        let ns = float_of_int (Sim_time.span_ns sample) in
        if ns < s.cc.min_rtt_ns then s.cc.min_rtt_ns <- ns;
        (* HyStart-style delay increase detection: leave slow start when
           queueing inflates the RTT, instead of overshooting until loss *)
        if
          s.cc.cwnd < s.cc.ssthresh && s.cc.cwnd > 16.0
          && Float.is_finite s.cc.min_rtt_ns
          && ns > s.cc.min_rtt_ns *. 1.5
        then s.cc.ssthresh <- s.cc.cwnd;
        s.rtt_probe_seq <- -1
      end;
      s.snd_una <- ack;
      s.dup_acks <- 0;
      if s.in_recovery then begin
        if ack >= s.recover then begin
          s.in_recovery <- false;
          s.cc.cwnd <- s.cc.ssthresh
        end
        else
          (* NewReno partial ACK: the next hole is lost too *)
          retransmit_hole s
      end
      else grow_window s ~acked_bytes;
      (match s.on_acked with Some f -> f acked_bytes | None -> ());
      complete_jobs s;
      Scheduler.disarm s.tlp;
      s.tlp_fired <- false;
      arm_rto s;
      try_send s
    end
    else if flight_bytes s > 0 then begin
      s.dup_acks <- s.dup_acks + 1;
      (* RFC 5827 early retransmit: with a small flight there can never be
         enough duplicate ACKs, so lower the threshold to flight-1 *)
      let flight_pkts = (flight_bytes s + mss s - 1) / mss s in
      let threshold =
        min s.cfg.Tcp_config.dupack_threshold (max 1 (flight_pkts - 1))
      in
      if s.dup_acks >= threshold && not s.in_recovery then begin
        let flight_pkts = float_of_int (flight_bytes s) /. float_of_int (mss s) in
        s.cc.ssthresh <- Float.max (flight_pkts /. 2.0) 2.0;
        s.in_recovery <- true;
        s.recover <- s.snd_next;
        retransmit_hole s;
        s.cc.cwnd <- s.cc.ssthresh +. 3.0
      end
      else if s.in_recovery then begin
        (* window inflation per additional dupack *)
        s.cc.cwnd <- s.cc.cwnd +. 1.0;
        try_send s
      end
    end
  end

(* ------------------------------------------------------------------ *)

type receiver = {
  r_sched : Scheduler.t;
  r_cfg : Tcp_config.t;
  r_conn_id : int;
  r_subflow : int;
  r_addr : Addr.t;
  r_peer : Addr.t;
  r_src_port : int;
  r_dst_port : int;
  r_tx : Packet.t -> unit;
  mutable rcv_next : int;
  (* out-of-order byte ranges above rcv_next: [ooo_lo.(i), ooo_hi.(i)),
     i < ooo_len, disjoint, non-adjacent and sorted.  Flat arrays, not a
     list of pairs: reordering across flowlet switches makes this a
     per-segment path, and the list rebuilt its prefix on every insert *)
  mutable ooo_lo : int array;
  mutable ooo_hi : int array;
  mutable ooo_len : int;
  mutable delivered : int;
  mutable ooo_count : int;
}

let create_receiver ~sched ~cfg ~conn_id ?(subflow = 0) ~addr ~peer ~src_port ~dst_port
    ~tx () =
  {
    r_sched = sched;
    r_cfg = cfg;
    r_conn_id = conn_id;
    r_subflow = subflow;
    r_addr = addr;
    r_peer = peer;
    r_src_port = src_port;
    r_dst_port = dst_port;
    r_tx = tx;
    rcv_next = 0;
    ooo_lo = [||];
    ooo_hi = [||];
    ooo_len = 0;
    delivered = 0;
    ooo_count = 0;
  }

let conn_id_r r = r.r_conn_id
let subflow_id_r r = r.r_subflow
let rcv_next r = r.rcv_next
let delivered_bytes r = r.delivered
let ooo_segments r = r.ooo_count

(* first interval not wholly below [lo] *)
let rec first_reaching r ~lo i =
  if i < r.ooo_len && r.ooo_hi.(i) < lo then first_reaching r ~lo (i + 1) else i

(* widen interval [i] over each following interval [j..] it reaches;
   one past the last one absorbed *)
let rec merge_from r i j =
  if j < r.ooo_len && r.ooo_lo.(j) <= r.ooo_hi.(i) then begin
    if r.ooo_hi.(j) > r.ooo_hi.(i) then r.ooo_hi.(i) <- r.ooo_hi.(j);
    merge_from r i (j + 1)
  end
  else j

(* drop intervals [i, j) of the buffer, closing the gap *)
let remove_range r i j =
  Array.blit r.ooo_lo j r.ooo_lo i (r.ooo_len - j);
  Array.blit r.ooo_hi j r.ooo_hi i (r.ooo_len - j);
  r.ooo_len <- r.ooo_len - (j - i)

(* insert [lo, hi) and coalesce with every interval it overlaps or
   touches, keeping the buffer sorted *)
let insert_interval r ~lo ~hi =
  let i = first_reaching r ~lo 0 in
  if i = r.ooo_len || hi < r.ooo_lo.(i) then begin
    if r.ooo_len = Array.length r.ooo_lo then begin
      let cap = max 4 (2 * r.ooo_len) in
      let los = Array.make cap 0 and his = Array.make cap 0 in
      Array.blit r.ooo_lo 0 los 0 r.ooo_len;
      Array.blit r.ooo_hi 0 his 0 r.ooo_len;
      r.ooo_lo <- los;
      r.ooo_hi <- his
    end;
    Array.blit r.ooo_lo i r.ooo_lo (i + 1) (r.ooo_len - i);
    Array.blit r.ooo_hi i r.ooo_hi (i + 1) (r.ooo_len - i);
    r.ooo_lo.(i) <- lo;
    r.ooo_hi.(i) <- hi;
    r.ooo_len <- r.ooo_len + 1
  end
  else begin
    if lo < r.ooo_lo.(i) then r.ooo_lo.(i) <- lo;
    if hi > r.ooo_hi.(i) then r.ooo_hi.(i) <- hi;
    remove_range r (i + 1) (merge_from r i (i + 1))
  end

(* intervals [0, k) now contiguous with rcv_next, advancing it over each *)
let rec absorbed r k =
  if k < r.ooo_len && r.ooo_lo.(k) <= r.rcv_next then begin
    if r.ooo_hi.(k) > r.rcv_next then r.rcv_next <- r.ooo_hi.(k);
    absorbed r (k + 1)
  end
  else k

(* consume buffered intervals now contiguous with rcv_next *)
let absorb r =
  let k = absorbed r 0 in
  if k > 0 then remove_range r 0 k

let send_ack r ~ece =
  ignore r.r_cfg;
  ignore r.r_sched;
  r.r_tx
    (Packet_pool.acquire_tenant ~src:r.r_addr ~dst:r.r_peer
       ~conn_id:r.r_conn_id ~subflow:r.r_subflow ~src_port:r.r_src_port
       ~dst_port:r.r_dst_port ~seq:0 ~ack:r.rcv_next ~kind:Packet.Ack
       ~payload:0 ~ece)

let on_data r (inner : Packet.inner) =
  let seg = inner.Packet.seg in
  let lo = seg.Packet.seq and hi = seg.Packet.seq + seg.Packet.payload in
  let before = r.rcv_next in
  if hi <= r.rcv_next then () (* pure duplicate *)
  else if lo <= r.rcv_next then begin
    r.rcv_next <- hi;
    absorb r
  end
  else begin
    insert_interval r ~lo ~hi;
    r.ooo_count <- r.ooo_count + 1
  end;
  r.delivered <- r.delivered + (r.rcv_next - before);
  let ece = inner.Packet.inner_ecn = Packet.Ce in
  send_ack r ~ece
