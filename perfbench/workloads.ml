(* The three dumbbell workloads. Each is a fixed simulated interval cut
   into equal slices; the warm-up end is a slice boundary. *)

module D = Experiments.Dumbbell
module Schemes = Experiments.Schemes

type t = {
  name : string;
  config : seed:int -> D.config;
  slice : float;  (** simulated seconds per timed slice *)
  checkpoint_events : int option;
      (** write a checkpoint at the first slice boundary after this many
          events since the last one *)
  nominal_hops : int;
      (** typical packet-hops (packets offered to links) of the interval;
          run time and allocation are reported scaled to it *)
}

(* The per-ACK tcp -> core path; the queue discipline (DropTail, no
   drops) does almost nothing. *)
let pert_quick =
  {
    name = "pert-quick";
    config =
      (fun ~seed ->
        D.uniform_flows
          {
            D.default with
            scheme = Schemes.Pert;
            bandwidth = 100e6;
            duration = 60.0;
            warmup = 15.0;
            seed;
          }
          ~n:50);
    slice = 1.0;
    checkpoint_events = None;
    nominal_hops = 3_860_000;
  }

(* Bypasses the PERT decision; stresses RED marking, ECN, loss
   recovery, flow churn and the closure-scheduled web timers. Web
   sessions cannot checkpoint. *)
let red_web =
  {
    name = "red-web";
    config =
      (fun ~seed ->
        D.uniform_flows
          {
            D.default with
            scheme = Schemes.Sack_red_ecn;
            bandwidth = 100e6;
            reverse_flows = 10;
            web_sessions = 100;
            duration = 30.0;
            warmup = 7.5;
            seed;
          }
          ~n:50);
    slice = 0.5;
    checkpoint_events = None;
    nominal_hops = 2_400_000;
  }

(* The paper's 1 Gbps / 1000-flow point, truncated in simulated time:
   a large pending set, a heap far beyond cache, 1000-flow audits and
   checkpoint writes at the default cadence. *)
let pert_paper =
  {
    name = "pert-paper";
    config =
      (fun ~seed ->
        D.uniform_flows
          {
            D.default with
            scheme = Schemes.Pert;
            bandwidth = 1e9;
            duration = 4.0;
            warmup = 2.0;
            start_window = (0.0, 0.5);
            seed;
          }
          ~n:1000);
    slice = 0.1;
    checkpoint_events = Some 2_000_000;
    nominal_hops = 2_270_000;
  }

let all = [ pert_quick; red_web; pert_paper ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Slice boundaries in simulated seconds: [slice], [2 slice], ...,
   [duration]. The warm-up end must be one of them, exactly, so that the
   statistics are reset where [Dumbbell.run] resets them. *)
let boundaries w (config : D.config) =
  let n = Float.to_int (Float.round (config.duration /. w.slice)) in
  let snap b =
    if Float.abs (b -. config.warmup) < 1e-9 then config.warmup
    else if Float.abs (b -. config.duration) < 1e-9 then config.duration
    else b
  in
  let bs = Array.init n (fun i -> snap (float_of_int (i + 1) *. w.slice)) in
  if not (Array.exists (Float.equal config.warmup) bs) then
    invalid_arg (w.name ^ ": the warm-up end is not a slice boundary");
  bs
