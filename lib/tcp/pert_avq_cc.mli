(** PERT/AVQ congestion control: Reno-style increase plus the end-host
    virtual-queue controller of {!Pert_core.Pert_avq}. *)

val create :
  rng:Sim_engine.Rng.t ->
  ?params:Pert_core.Pert_avq.params ->
  ?srtt_alpha:float ->
  ?decrease_factor:float ->
  unit ->
  Cc.t
