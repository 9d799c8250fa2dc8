(** AVQ — Adaptive Virtual Queue (Kunniyur & Srikant 2001), another AQM
    scheme on the paper's emulation wish-list, provided as a router
    baseline.

    A virtual queue drains at an adaptive virtual capacity
    [c_tilde <= c]; an arrival that would overflow the virtual buffer is
    marked (dropped when not ECN-capable). Between arrivals the virtual
    capacity moves toward the desired utilisation [gamma]:

    [c_tilde' = alpha * (gamma * c - arrival_rate)]. *)

type params = {
  gamma : float;  (** desired utilisation, e.g. 0.98 *)
  alpha : float;  (** adaptation gain, e.g. 0.15 *)
  virtual_buffer : float;  (** packets *)
  ecn : bool;
}

val default_params : unit -> params
(** [gamma = 0.98], [alpha = 0.15], [virtual_buffer = 20]. *)

type t
(** An AVQ discipline together with its live virtual-queue state. *)

val create : params:params -> capacity_pps:float -> limit_pkts:int -> t

val disc : t -> Queue_disc.t
(** The discipline a link serves. *)

val virtual_capacity : t -> float
(** Current virtual capacity, pkts/s. *)
