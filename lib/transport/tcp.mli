(** Packet-level TCP endpoints (NewReno-style, no SACK).

    The model mirrors NS2's: MSS-granularity segments, slow start,
    congestion avoidance, three-dupack fast retransmit with NewReno partial
    ACK handling, retransmission timeouts with exponential backoff, per-
    packet cumulative ACKs, and a receive-side reordering buffer.  Both
    directions of a connection are modelled — data flows sender to
    receiver, ACKs flow back as real packets through the same network (so
    reverse traffic exists for Clove's feedback piggybacking, and ACK
    clocking stalls create flowlet gaps exactly as the paper describes).

    Endpoints hand *inner* (unencapsulated) packets to a transmit callback
    provided by the hypervisor virtual-switch layer, which encapsulates
    and forwards them; inbound inner packets are dispatched back by
    {!Stack}. *)

type sender
type receiver

(** {2 Sender} *)

val create_sender :
  sched:Scheduler.t ->
  cfg:Tcp_config.t ->
  conn_id:int ->
  ?subflow:int ->
  src:Addr.t ->
  dst:Addr.t ->
  src_port:int ->
  dst_port:int ->
  tx:(Packet.t -> unit) ->
  unit ->
  sender

val send : sender -> bytes:int -> on_complete:(unit -> unit) -> unit
(** Append a job of [bytes] to the stream; [on_complete] fires when its
    last byte is cumulatively acknowledged.  Jobs are a FIFO byte stream,
    matching transfers multiplexed on a persistent connection. *)

val on_ack : sender -> Packet.tcp_seg -> unit
(** Process an inbound ACK segment (called by {!Stack}). *)

val ecn_signal : sender -> unit
(** Out-of-band congestion signal from the hypervisor (Clove relays ECN to
    the guest only when all paths are congested); reduces the window at
    most once per RTT, like an ECE. *)

val set_pull : sender -> (unit -> int) -> unit
(** MPTCP hook: when the stream is exhausted and window space remains, the
    sender calls this to request more bytes; the scheduler returns how many
    bytes it granted (0 = none available). *)

val couple : sender array -> unit
(** Couple the congestion avoidance of one MPTCP connection's subflows
    with LIA (RFC 6356): per acked packet, subflow [k] grows by
    [min(alpha / w_total, 1 / w_k)]. *)

val cwnd_bytes : sender -> int
(** The congestion window in bytes, rounded down. *)

val try_send : sender -> unit
(** Opportunistically transmit whatever the window allows. *)

val cwnd_pkts : sender -> float
val srtt : sender -> Sim_time.span option
val flight_bytes : sender -> int
val snd_una : sender -> int
val snd_next : sender -> int
val stream_end : sender -> int
val retransmits : sender -> int
val timeouts : sender -> int
val conn_id : sender -> int
val subflow_id : sender -> int
val dst : sender -> Addr.t

val set_on_acked : sender -> (int -> unit) -> unit
(** Callback invoked with the number of newly acknowledged bytes on every
    cumulative ACK advance (used by MPTCP to attribute bytes to jobs). *)

val set_on_timeout : sender -> (unit -> unit) -> unit
(** Callback invoked when the retransmission timer fires (used by MPTCP to
    reinject the stalled subflow's data on healthy subflows). *)

val stop : sender -> unit
(** Cancel timers (end of experiment). *)

(** {2 Receiver} *)

val create_receiver :
  sched:Scheduler.t ->
  cfg:Tcp_config.t ->
  conn_id:int ->
  ?subflow:int ->
  addr:Addr.t ->
  peer:Addr.t ->
  src_port:int ->
  dst_port:int ->
  tx:(Packet.t -> unit) ->
  unit ->
  receiver

val on_data : receiver -> Packet.inner -> unit
(** Process an inbound data segment; emits a (possibly duplicate) ACK. *)

val conn_id_r : receiver -> int
val subflow_id_r : receiver -> int
val rcv_next : receiver -> int
val delivered_bytes : receiver -> int
val ooo_segments : receiver -> int
(** Number of segments that arrived out of order (reordering metric). *)
