(** Unidirectional link: a queue discipline feeding a transmitter with a
    given bandwidth, followed by a fixed propagation delay.

    The link also keeps the measurement state the experiments need:
    arrival/drop/mark counters, a time-weighted queue-length average, bytes
    transmitted (for utilisation), and an optional trace of drop times and
    of the queue length (sampled on every change) for the Section 2
    predictor study.

    {b Packet ownership}: {!send} consumes the packet. A packet the
    discipline rejects (or that arrives while the link is down) is freed
    back to the arena after the event hook and drop trace have seen it; an
    accepted packet is owned by the link until it is handed to the
    delivery callback, whose installer owns it from then on. *)

type t

(** How the transmitter is driven.

    [Eager] schedules one transmission-complete event per packet — the
    classic discrete-event server. [Batched] (the default) computes
    transmission finish times arithmetically (a work-conserving FIFO
    server is a virtual clock) and materializes dequeues lazily in
    batches at the next observation point, eliminating the per-packet
    tx-complete event; {!Sim_engine.Sim.charge_events} keeps the logical
    event count identical, and every observer (disciplines, hooks,
    stats) still sees dequeues in chronological order with their true
    service times. Flow-level results are identical; only the
    intra-transmission timing of {!utilization}'s byte counter differs
    (bytes are accounted at service start rather than service end).

    Both services hand transmitted packets to the same delivery pipe: a
    per-link queue of packets on the wire, ordered by delivery instant,
    with one pending scheduler event for its head (two or more only
    while jitter lets a packet overtake). *)
type service = Eager | Batched

val create :
  ?jitter:Units.Time.t -> ?service:service -> Sim_engine.Sim.t ->
  arena:Packet.arena -> name:string -> bandwidth:Units.Rate.t ->
  delay:Units.Time.t -> disc:Queue_disc.t -> t
(** [jitter] (default 0) adds an independent uniform [\[0, jitter)] extra
    propagation delay per packet — deliberately allowing reordering, for
    robustness experiments. [arena] is the packet store all packets on
    this link live in (owned by {!Topology}). *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Install the receiver-side callback (set by {!Topology}). *)

val interpose_deliver :
  t -> ((Packet.t -> unit) -> Packet.t -> unit) -> unit
(** [interpose_deliver t wrap] replaces the delivery callback with
    [wrap inner], where [inner] is the current callback — the decoration
    point used by {!Fault} to impair traffic after it leaves the wire.
    Composable: later wrappers see earlier ones as [inner]. *)

(** Per-packet lifecycle events, for tracing. *)
type event =
  | Enqueue  (** accepted into the queue *)
  | Dequeue  (** transmission started *)
  | Receive  (** delivered to the far end *)
  | Drop  (** rejected by the discipline *)

val set_event_hook : t -> (now:float -> event -> Packet.t -> unit) -> unit
(** Observe every packet event on this link (one hook per link; setting
    again replaces it). The hook runs before the event's normal effect.
    [now] is the event's own time: under the [Batched] service a Dequeue
    is emitted at catch-up and carries its historical service time
    (events still arrive in chronological order). *)

val send : t -> Packet.t -> unit
(** Offer a packet to the link's queue; drops and marks happen here.
    Consumes the packet (see ownership above). *)

val name : t -> string
val sim : t -> Sim_engine.Sim.t
val disc : t -> Queue_disc.t
val arena : t -> Packet.arena
val service : t -> service

(** {2 Availability} *)

val set_up : t -> bool -> unit
(** Take the link down or bring it back up. While down, offered packets
    are dropped (counted in both {!drops} and {!outage_drops}), queued
    packets are retained, and any packet mid-transmission or mid-flight
    still arrives; on recovery the transmitter resumes draining the
    queue. Links start up. *)

val is_up : t -> bool

(** {2 Measurement} *)

val arrivals : t -> int
val drops : t -> int
val marks : t -> int
val outage_drops : t -> int
(** Packets dropped because the link was down (lifetime counter). *)

val conservation_error : t -> string option
(** Packet-conservation invariant over lifetime counters:
    [arrivals = dropped + queued + in_flight + delivered], plus the
    delivery pipe's own invariants: it holds every packet in flight
    except one an eager server is still serialising, its entries are in
    (delivery time, seq) order, and its head has a pending event.
    Returns a diagnostic when any of them has drifted — the
    {!Sim_engine.Audit} check registered per link by the experiment
    harness. *)

val avg_queue_pkts : t -> Units.Pkts.t
(** Time-weighted average queue length since the last {!reset_stats}. *)

val max_queue_pkts : t -> int
(** Largest instantaneous queue length since the last {!reset_stats}. *)

val utilization : t -> float
(** Fraction of capacity used since the last {!reset_stats}. *)

val drop_rate : t -> float
(** Drops / arrivals since the last {!reset_stats}; 0 if no arrivals. *)

val reset_stats : t -> unit
(** Restart the measurement window at the current simulation time (used to
    discard warm-up transients, as the paper measures only 100–300 s). *)

val enable_drop_trace : t -> unit
val drop_times : t -> float array
(** Times of queue-level drops since tracing was enabled. *)

val enable_queue_trace : t -> ?interval:Units.Time.t -> unit -> unit
(** Sample the instantaneous queue length every [interval] (default 10 ms)
    of simulated time. *)

val queue_at : t -> Units.Time.t -> float
(** [queue_at t time]: traced queue length (packets) at [time] (last sample
    at or before [time]); 0 before the first sample. Requires
    {!enable_queue_trace}. *)
