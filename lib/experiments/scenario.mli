(** A small text language for describing simulations, so arbitrary
    topologies (not just the built-in dumbbell) can be run without
    writing OCaml: [experiments_cli scenario FILE] runs one and prints
    its report.

    One directive per line; [#] starts a comment. Example:

    {v
    # three-node chain with a PERT flow and web background
    node a
    node r
    node b
    duplex a r bw=100M delay=1ms queue=droptail:10000
    duplex r b bw=10M  delay=20ms queue=red:50
    flow a b cc=pert
    flow a b cc=newreno start=5 total=2000
    web a b sessions=20
    cbr b a rate=1M start=10 stop=20
    run 60
    v}

    Directives:
    - [node NAME]
    - [link SRC DST bw=RATE delay=TIME queue=KIND:PKTS] — unidirectional
    - [duplex A B bw=RATE delay=TIME queue=KIND:PKTS] — both directions
      (independent queues of the same kind)
    - [flow SRC DST cc=CC] with optional [start=TIME], [total=PKTS],
      [ecn], [owd], [delack]
    - [web SRC DST sessions=N]
    - [cbr SRC DST rate=RATE] with optional [start=TIME], [stop=TIME]
    - [seed N]
    - [run TIME] — must be last

    Rates accept [k]/[M]/[G] suffixes (bits/s); times accept [ms]/[s]
    (default seconds). A queue [KIND] and a flow's [CC] are both
    {!Schemes.of_name} names: the queue is that scheme's
    {!Schemes.bottleneck_disc}, the controller its {!Schemes.cc_factory}.
    Queue kinds are usually [droptail], [red], [pi], [rem] or [avq] (AQM
    parameters are auto-configured from the link rate; RED, PI, REM and
    AVQ mark ECN-capable packets), CC kinds [newreno], [vegas], [pert],
    [pert-pi], [pert-rem] or [pert-avq]. Gains that depend on the
    scenario (PI, PERT/PI) are designed for a nominal 100 ms, 10-flow
    regime. *)

type t

type report = {
  duration : float;
  flows : (string * Units.Rate.t) list;
      (** per-flow label and goodput, in declaration order *)
  links : (string * float * Units.Pkts.t * int) list;
      (** link name, utilisation, average queue, drops *)
}

val parse : string -> (t, string) result
(** Parse a scenario from source text; the error carries a line number. *)

val parse_and_run : string -> (report, string) result
(** Parse, then build and execute the scenario; metrics cover the full
    run. *)

val pp_report : Format.formatter -> report -> unit
