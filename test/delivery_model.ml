(* Reference model of one link's delivery schedule, the oracle for the
   delivery-pipe property test in [Test_net].

   The link is a work-conserving FIFO server with an unbounded buffer:
   each packet starts service at the later of its arrival and the
   previous packet's finish, and is due [delay] plus a uniform jitter
   draw after it finishes. The draws come, one per packet in service
   order, from the stream the link itself draws from: the first split of
   a fresh simulation's root generator. Deliveries are listed by due
   instant; ties keep service (materialisation) order.

   The due instant is computed with each service's own float operations:
   the batched server adds the propagation delay to the finish time and
   then the jitter, the eager one schedules [delay + jitter] after its
   transmission-complete event. *)

module Rng = Sim_engine.Rng

let deliveries ~service ~seed ~bps ~delay ~jitter ~size arrivals =
  let rng = Rng.split (Rng.create seed) in
  let tx = float_of_int (8 * size) /. bps in
  let free = ref 0.0 in
  let due =
    List.map
      (fun (seq, arrival) ->
        let finish = Float.max arrival !free +. tx in
        free := finish;
        let extra = if jitter > 0.0 then Rng.float rng jitter else 0.0 in
        match (service : Netsim.Link.service) with
        | Batched -> (seq, finish +. delay +. extra)
        | Eager -> (seq, finish +. (delay +. extra)))
      arrivals
  in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) due
