module Pert_rem = Pert_core.Pert_rem
module Rng = Sim_engine.Rng

let create ~rng ?(params = Pert_rem.default_params) ?srtt_alpha
    ?decrease_factor () =
  let engine = Pert_rem.create ?srtt_alpha ?decrease_factor ~params () in
  let early _w ~rtt ~now =
    match rtt with
    | None -> Cc.No_response
    | Some sample -> (
        match Pert_rem.on_ack engine ~now ~rtt:sample ~u:(Rng.float rng 1.0) with
        | Pert_rem.Hold -> Cc.No_response
        | Pert_rem.Early_response ->
            Cc.Reduce (Pert_rem.decrease_factor engine))
  in
  {
    Cc.name = "pert-rem";
    on_ack = Cc.reno_increase;
    early;
    on_loss = (fun ~now -> Pert_rem.note_loss engine ~now);
    ecn_beta = 0.5;
  }
