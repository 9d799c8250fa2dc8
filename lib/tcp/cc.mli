(** Pluggable congestion control.

    The sender ({!Flow}) owns loss detection, retransmission and the
    NewReno/SACK recovery machinery, which are identical across the
    schemes the paper compares. A [Cc.t] customises only the control law:
    how the window grows on ACKs, and whether/when to perform a
    {e proactive early response} (the subject of the paper).

    All window arithmetic is in packets; [Window.t] is the shared mutable
    state the sender exposes to the controller. *)

module Window : sig
  type t = {
    mutable cwnd : float;  (** congestion window, packets, >= 1 *)
    mutable ssthresh : float;  (** slow-start threshold, packets *)
    mutable in_slow_start : bool;
  }
end

type early_action =
  | No_response
  | Reduce of float
      (** [Reduce f]: multiplicative early decrease
          [cwnd <- max 1 ((1 - f) * cwnd)]; also leaves slow start. *)

type t = {
  name : string;
  on_ack :
    Window.t -> newly_acked:int -> rtt:Units.Time.t option -> now:float -> unit;
      (** Window increase on a cumulative ACK for [newly_acked] packets
          outside loss recovery. [rtt] is this ACK's sample if one was
          taken. Default AIMD behaviour lives in {!val-reno_increase}. *)
  early : Window.t -> rtt:Units.Time.t option -> now:float -> early_action;
      (** Early-response hook, consulted on every ACK (also inside
          recovery; the sender ignores [Reduce] while recovering). The
          [rtt] argument is the sender's configured {e delay signal}: the
          RTT sample by default, or the forward one-way delay when the
          flow uses [`Owd] (see {!Flow.create}) — the paper's Section 7
          variant that ignores reverse-path congestion. *)
  on_loss : now:float -> unit;
      (** Notification that a loss (or ECN) response was applied, so the
          controller can synchronise its own once-per-RTT logic. *)
  ecn_beta : float;
      (** Multiplicative decrease factor applied on an ECN echo
          (standard: 0.5). *)
}

val reno_increase :
  Window.t -> newly_acked:int -> rtt:Units.Time.t option -> now:float -> unit
(** Slow start: [cwnd += newly_acked]; congestion avoidance:
    [cwnd += newly_acked /. cwnd] (one packet per RTT). *)

val newreno : unit -> t
(** Plain loss-based AIMD — the "SACK" endpoint of the paper's baselines
    (the SACK machinery itself lives in {!Flow}). *)
