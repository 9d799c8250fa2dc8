module Pert_avq = Pert_core.Pert_avq
module Rng = Sim_engine.Rng

let create ~rng ?(params = Pert_avq.default_params) ?srtt_alpha
    ?decrease_factor () =
  let engine = Pert_avq.create ?srtt_alpha ?decrease_factor ~params () in
  let early _w ~rtt ~now =
    match rtt with
    | None -> Cc.No_response
    | Some sample -> (
        match Pert_avq.on_ack engine ~now ~rtt:sample ~u:(Rng.float rng 1.0) with
        | Pert_avq.Hold -> Cc.No_response
        | Pert_avq.Early_response ->
            Cc.Reduce (Pert_avq.decrease_factor engine))
  in
  {
    Cc.name = "pert-avq";
    on_ack = Cc.reno_increase;
    early;
    on_loss = (fun ~now -> Pert_avq.note_loss engine ~now);
    ecn_beta = 0.5;
  }
