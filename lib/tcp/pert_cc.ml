module Pert_red = Pert_core.Pert_red
module Rng = Sim_engine.Rng

let create ~rng ?curve ?alpha ?decrease_factor ?limit_per_rtt () =
  let engine = Pert_red.create ?curve ?alpha ?decrease_factor ?limit_per_rtt () in
  let early _w ~rtt ~now =
    match rtt with
    | None -> Cc.No_response
    | Some sample -> (
        match
          Pert_red.on_ack engine ~now ~rtt:sample ~u:(Rng.float rng 1.0)
        with
        | Pert_red.Hold -> Cc.No_response
        | Pert_red.Early_response ->
            Cc.Reduce (Pert_red.decrease_factor engine))
  in
  {
    Cc.name = "pert";
    on_ack = Cc.reno_increase;
    early;
    on_loss = (fun ~now -> Pert_red.note_loss engine ~now);
    ecn_beta = 0.5;
  }
