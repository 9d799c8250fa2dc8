(** PI (proportional-integral) active queue management after Hollot et al.,
    INFOCOM 2001 — the router baseline for the paper's Section 6.

    The mark/drop probability is updated on a fixed sampling clock:

    [p(k) = p(k-1) + a * (q(k) - q_ref) - b * (q(k-1) - q_ref)]

    with [a > b > 0], and every arrival is marked (ECN) or dropped with the
    current probability. *)

type params = {
  a : float;  (** gain on the current queue error, 1/packets *)
  b : float;  (** gain on the previous queue error, 1/packets *)
  q_ref : float;  (** target queue length, packets *)
  sample_interval : Units.Time.t;  (** between probability updates *)
  ecn : bool;
}

type t
(** A PI discipline together with its live controller state. *)

val create : rng:Sim_engine.Rng.t -> params:params -> limit_pkts:int -> t

val disc : t -> Queue_disc.t
(** The discipline a link serves. *)

val probability : t -> Units.Prob.t
(** Current controller output. *)
