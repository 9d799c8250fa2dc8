(** The PERT/PI decision engine (Section 6): replaces the gentle-RED curve
    with a discretised proportional-integral controller on queueing delay,
    per paper eq. (19):

    [p(k) = p(k-1) + gamma * (Tq(k) - Tq0) - beta * (Tq(k-1) - Tq0)]

    where [gamma = K/m + K*delta/2 > beta = K/m - K*delta/2] come from the
    bilinear transform of the continuous PI (16), [Tq0] is the target
    queueing delay (paper: 3 ms) and [delta] the sampling interval.

    As in the router PI of Hollot et al., the probability is updated on a
    fixed clock rather than per packet; between updates each ACK responds
    with the latest probability, at most once per RTT. *)

type decision = Hold | Early_response

type gains = { gamma : float; beta : float }

val gains_of_pi : k:float -> m:float -> delta:float -> gains
(** Bilinear-transform discretisation of [C_PI(s) = K (1 + s/m) / s] with
    sampling interval [delta] (paper eq. 18). *)

type t

val create :
  ?alpha:float -> ?decrease_factor:float -> gains:gains ->
  target_delay:Units.Time.t -> sample_interval:Units.Time.t -> unit -> t

val on_ack : t -> now:float -> rtt:Units.Time.t -> u:float -> decision
(** Feed one ACK. Probability updates happen lazily on the internal clock
    (every [sample_interval] seconds of [now]). *)

val probability : t -> Units.Prob.t
(** Current controller output, clamped to [\[0,1\]]. *)

(* Kept despite no external caller: the four PERT-family engines
   (Pert, Pert_pi, Pert_rem, Pert_avq) expose one uniform
   inspection surface for code that drives an engine directly;
   deleting per-engine members would make the interfaces drift
   apart. *)
val srtt : t -> Srtt.t [@@lint.allow "S3"]

val decrease_factor : t -> float
val early_responses : t -> int [@@lint.allow "S3"]
val note_loss : t -> now:float -> unit
