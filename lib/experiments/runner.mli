(** Crash-safe experiment execution: every independent simulation cell
    runs as a supervised {!Parallel} task (deadline classification,
    bounded deterministic retries), its result is checkpointed in an
    optional {!Store}, and failures degrade to explicit table markers
    instead of aborting the sweep.

    Determinism contract: for a fixed context, {!map}'s successful cells
    are byte-identical at any [jobs] and whether they were computed or
    replayed from the store ([Marshal] round-trips floats exactly). *)

type checkpoint_policy = {
  dir : string;  (** directory holding one [.snap] file per running cell *)
  every_events : int option;  (** snapshot cadence in executed sim events *)
  every_wall : Units.Time.t option;  (** snapshot cadence in wall time *)
}
(** Live-checkpoint policy for long cells: each uncached cell
    periodically writes a {!Sim_engine.Sim.Snapshot} of its whole
    simulation, and a rerun of the same cell (same canonical key) after
    a crash or SIGKILL resumes from the latest snapshot instead of
    starting over. Snapshots are deleted when their cell completes. *)

val checkpoint_policy :
  ?every_events:int -> ?every_wall:Units.Time.t -> string -> checkpoint_policy
(** [checkpoint_policy dir] with neither cadence defaults to a snapshot
    every 2M executed events.
    @raise Invalid_argument on a non-positive cadence. *)

type checkpoint = {
  snap_path : string;  (** this cell's snapshot file *)
  snap_every_events : int option;
  snap_every_wall : Units.Time.t option;
}
(** Per-cell view of the policy, handed to {!map}'s worker function. *)

type ctx = {
  jobs : int;  (** {!Parallel} pool width, >= 1 *)
  store : Store.t option;  (** checkpoint store ([None]: recompute all) *)
  retries : int;  (** extra attempts per failing cell *)
  backoff : Units.Time.t;  (** base retry backoff (seeded-deterministic) *)
  deadline : Units.Time.t option;
      (** wall budget per cell, enforced cooperatively via
          {!Sim_engine.Sim.set_budget} *)
  max_events : int option;  (** event budget per cell (deterministic) *)
  seed : int;  (** base seed for per-task backoff jitter *)
  scheduler : [ `Heap | `Wheel ];
      (** event scheduler for every cell's simulation; results are
          byte-identical either way (the determinism replays assert it) *)
  checkpoint : checkpoint_policy option;  (** live mid-run snapshots *)
}

val ctx :
  ?jobs:int ->
  ?store:Store.t ->
  ?retries:int ->
  ?backoff:Units.Time.t ->
  ?deadline:Units.Time.t ->
  ?max_events:int ->
  ?seed:int ->
  ?scheduler:[ `Heap | `Wheel ] ->
  ?checkpoint:checkpoint_policy ->
  unit ->
  ctx
(** Defaults: sequential, no store, no retries, 20 ms backoff, no
    budgets, [`Wheel] scheduler, no live checkpoints. *)

val default : ctx

val sequential : ctx -> ctx
(** Same context at [jobs = 1] — used by the registry's coarse-grained
    fan-out so nested pools never spawn domains inside domains. *)

(** {1 Cells} *)

type failure =
  | Failed of { attempts : int; reason : string }
      (** every attempt raised; [reason] is the last error *)
  | Timed_out of string  (** deadline or event budget exhausted *)

type 'a cell = ('a, failure) result

val failure_cell : failure -> string
(** The {!Output} marker: [FAILED(reason)] or [TIMEOUT]. *)

val failure_cells : width:int -> failure -> string list
(** A row fragment of [width] metric columns: the marker followed by
    ["-"] placeholders. *)

val map :
  ctx ->
  key:('a -> Store.key) ->
  (ckpt:checkpoint option -> 'a -> 'b) ->
  'a list ->
  'b cell list
(** [map ctx ~key f xs] runs [f] over [xs] with results in input order:
    cells found in [ctx.store] (checksum-verified) are replayed without
    running anything; the rest run as supervised tasks on a transient
    pool of [min ctx.jobs misses] domains, retried per [ctx.retries] /
    [ctx.backoff], and committed to the store on success. Failures and
    timeouts come back as [Error] cells — and are deliberately never
    cached, so a rerun retries them. Each one also prints a line to
    stderr naming the cell's canonical store key, its attempt count and
    the full failure reason (a table cell holds only a truncated one).
    Exceptions escaping the supervision
    machinery itself (harness bugs) are re-raised.

    With [ctx.checkpoint] set, [f] additionally receives this cell's
    {!checkpoint} (snapshot path named by the MD5 of the cell's
    canonical key, plus the policy's cadences); a cell worker that
    honours it ({!Dumbbell.run}) resumes from the snapshot when one
    exists — including across supervised retries within this process,
    whose restarts then skip the already-simulated prefix. Completed
    cells have their snapshot removed by the supervision layer. *)
