(** REM — Random Exponential Marking (Athuraliya, Low, Li & Yin 2001),
    one of the AQM schemes the paper lists as an emulation target.

    A "price" integrates the mismatch between demand and capacity:

    [price(k+1) = max 0 (price(k)
                         + gamma * (alpha * (backlog - b_ref)
                                    + input_rate - capacity))]

    updated every [sample_interval]; arrivals are marked (or dropped) with
    probability [1 - phi ** (-. price)]. *)

type params = {
  gamma : float;  (** price gain (per packet), e.g. 0.001 *)
  alpha : float;  (** backlog weight, e.g. 0.1 *)
  b_ref : float;  (** target backlog, packets *)
  phi : float;  (** marking base, > 1, e.g. 1.001 *)
  sample_interval : Units.Time.t;
  ecn : bool;
}

val default_params : capacity_pps:float -> params
(** [gamma = 0.001], [alpha = 0.1], [b_ref = 20], [phi = 1.001],
    [sample_interval = 10 ms]; independent of capacity except for the
    documentation of intent. *)

type t
(** A REM discipline together with its live price state. *)

val create :
  rng:Sim_engine.Rng.t -> params:params -> capacity_pps:float ->
  limit_pkts:int -> t

val disc : t -> Queue_disc.t
(** The discipline a link serves. *)

val price : t -> float
(** Current price. *)

val mark_probability : t -> Units.Prob.t
