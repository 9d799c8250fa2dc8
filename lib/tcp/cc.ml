module Window = struct
  type t = {
    mutable cwnd : float;
    mutable ssthresh : float;
    mutable in_slow_start : bool;
  }

end

type early_action = No_response | Reduce of float

type t = {
  name : string;
  on_ack :
    Window.t -> newly_acked:int -> rtt:Units.Time.t option -> now:float -> unit;
  early : Window.t -> rtt:Units.Time.t option -> now:float -> early_action;
  on_loss : now:float -> unit;
  ecn_beta : float;
}

let reno_increase w ~newly_acked ~rtt:_ ~now:_ =
  let acked = float_of_int newly_acked in
  if w.Window.in_slow_start then begin
    w.Window.cwnd <- w.Window.cwnd +. acked;
    if w.Window.cwnd >= w.Window.ssthresh then w.Window.in_slow_start <- false
  end
  else w.Window.cwnd <- w.Window.cwnd +. (acked /. w.Window.cwnd)

let newreno () =
  {
    name = "newreno";
    on_ack = reno_increase;
    early = (fun _ ~rtt:_ ~now:_ -> No_response);
    on_loss = (fun ~now:_ -> ());
    ecn_beta = 0.5;
  }
