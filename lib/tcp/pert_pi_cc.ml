module Pert_pi = Pert_core.Pert_pi
module Rng = Sim_engine.Rng

let create ~rng ~gains ~target_delay ~sample_interval ?alpha ?decrease_factor
    () =
  let engine =
    Pert_pi.create ?alpha ?decrease_factor ~gains ~target_delay
      ~sample_interval ()
  in
  let early _w ~rtt ~now =
    match rtt with
    | None -> Cc.No_response
    | Some sample -> (
        match Pert_pi.on_ack engine ~now ~rtt:sample ~u:(Rng.float rng 1.0) with
        | Pert_pi.Hold -> Cc.No_response
        | Pert_pi.Early_response ->
            Cc.Reduce (Pert_pi.decrease_factor engine))
  in
  {
    Cc.name = "pert-pi";
    on_ack = Cc.reno_increase;
    early;
    on_loss = (fun ~now -> Pert_pi.note_loss engine ~now);
    ecn_beta = 0.5;
  }
