(** Statistics accumulators used by monitors and experiment drivers. *)

(** Streaming mean/variance (Welford). *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 if empty. *)

  val variance : t -> float
  (** Sample variance; 0 if fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  (** [min]/[max] raise [Invalid_argument] if empty. *)
end

(** Average of a piecewise-constant signal weighted by the time each value
    was held — the right notion of "average queue length". *)
module Time_weighted : sig
  type t

  val create : start:float -> value:float -> t
  val update : t -> now:float -> value:int -> unit
  (** Record that the signal changed to [value] at time [now]. The signal
      is a count (a queue length); an [int] crosses the call unboxed. *)

  val average : t -> now:float -> float
  (** Time-weighted mean over [\[start, now\]]. *)

  val reset : t -> now:float -> unit
  (** Forget history; keep the current value, restart the window at [now]. *)
end

(** Fixed-bin histogram on [\[lo, hi)]; out-of-range samples clamp to the
    edge bins. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit
  val total : t -> int
  val counts : t -> int array
  val pdf : t -> float array
  (** Fraction of samples per bin; all zeros if empty. *)

  val bin_center : t -> int -> float
end

val jain_index : float array -> float
(** Jain fairness index [(sum x)^2 / (n * sum x^2)]; 1.0 for an empty or
    all-zero vector by convention. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,1\]], nearest-rank on a sorted copy.
    Raises [Invalid_argument] on an empty array. *)
