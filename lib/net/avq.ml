type params = {
  gamma : float;
  alpha : float;
  virtual_buffer : float;
  ecn : bool;
}

let default_params () =
  { gamma = 0.98; alpha = 0.15; virtual_buffer = 20.0; ecn = true }

(* All-float record for the mutable virtual-queue state: in a record
   mixed with [params] every computed store ([st.vq <- Float.max ...])
   would box its float per arrival (pertalloc rule A2). *)
type floats = {
  mutable vq : float;  (** virtual queue length, packets *)
  mutable c_tilde : float;  (** virtual capacity, pkts/s *)
  mutable last_arrival : float;
}

type state = { p : params; capacity_pps : float; f : floats }

(* The handle shares [st] with the discipline's closures. *)
type t = { st : state; disc : Queue_disc.t }

let create ~params ~capacity_pps ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Avq.create: limit must be positive";
  if params.gamma <= 0.0 || params.gamma > 1.0 then
    invalid_arg "Avq.create: gamma in (0,1]";
  let fifo = Queue_disc.Fifo.create () in
  let st =
    {
      p = params;
      capacity_pps;
      f =
        {
          vq = 0.0;
          c_tilde = params.gamma *. capacity_pps;
          last_arrival = 0.0;
        };
    }
  in
  let[@alloc.zero] enqueue ~now ~size ~ecn pkt =
    let f = st.f in
    let dt = Float.max 0.0 (now -. f.last_arrival) in
    f.last_arrival <- now;
    (* Drain the virtual queue at the virtual capacity. *)
    f.vq <- Float.max 0.0 (f.vq -. (f.c_tilde *. dt));
    (* Kunniyur-Srikant adaptation, integrated between arrivals: the
       (gamma C) term over dt, minus one packet for this arrival. *)
    f.c_tilde <-
      Float.min st.capacity_pps
        (Float.max 0.0
           (f.c_tilde
           +. (st.p.alpha *. ((st.p.gamma *. st.capacity_pps *. dt) -. 1.0))));
    if Queue_disc.Fifo.pkts fifo >= limit_pkts then Queue_disc.Reject
    else if f.vq +. 1.0 > st.p.virtual_buffer then
      if st.p.ecn && ecn then begin
        Queue_disc.Fifo.push fifo pkt ~size;
        Queue_disc.Accept_marked
      end
      else Queue_disc.Reject
    else begin
      f.vq <- f.vq +. 1.0;
      Queue_disc.Fifo.push fifo pkt ~size;
      Queue_disc.Accept
    end
  in
  let[@alloc.zero] dequeue ~now:_ = Queue_disc.Fifo.pop_exn fifo in
  let disc =
    {
      Queue_disc.name = "avq";
      enqueue;
      dequeue;
      pkt_length = (fun () -> Queue_disc.Fifo.pkts fifo);
      byte_length = (fun () -> Queue_disc.Fifo.bytes fifo);
      capacity_pkts = limit_pkts;
    }
  in
  { st; disc }

let disc t = t.disc
let virtual_capacity t = t.st.f.c_tilde
