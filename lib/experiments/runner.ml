(* Crash-safe execution context for experiment cells. See the .mli. *)

type checkpoint_policy = {
  dir : string;
  every_events : int option;
  every_wall : Units.Time.t option;
}

let checkpoint_policy ?every_events ?every_wall dir =
  (match every_events with
  | Some n when n <= 0 ->
      invalid_arg "Runner.checkpoint_policy: every_events must be positive"
  | _ -> ());
  (match every_wall with
  | Some w when Units.Time.to_s w <= 0.0 ->
      invalid_arg "Runner.checkpoint_policy: every_wall must be positive"
  | _ -> ());
  (* With no cadence given, checkpoint roughly every couple of million
     events: cheap against a full-scale cell, frequent enough that a
     killed run loses little. *)
  let every_events =
    match (every_events, every_wall) with
    | None, None -> Some 2_000_000
    | _ -> every_events
  in
  { dir; every_events; every_wall }

type checkpoint = {
  snap_path : string;
  snap_every_events : int option;
  snap_every_wall : Units.Time.t option;
}

type ctx = {
  jobs : int;
  store : Store.t option;
  retries : int;
  backoff : Units.Time.t;
  deadline : Units.Time.t option;
  max_events : int option;
  seed : int;
  scheduler : [ `Heap | `Wheel ];
  checkpoint : checkpoint_policy option;
}

let ctx ?(jobs = 1) ?store ?(retries = 0) ?(backoff = Units.Time.ms 20.0)
    ?deadline ?max_events ?(seed = 2007) ?(scheduler = `Wheel) ?checkpoint ()
    =
  {
    jobs = max 1 jobs;
    store;
    retries;
    backoff;
    deadline;
    max_events;
    seed;
    scheduler;
    checkpoint;
  }

let default = ctx ()
let sequential c = { c with jobs = 1 }

type failure =
  | Failed of { attempts : int; reason : string }
  | Timed_out of string

type 'a cell = ('a, failure) result

let is_timeout_exn = function
  | Sim_engine.Sim.Budget_exceeded _ -> true
  | _ -> false

let failure_cell = function
  | Failed { reason; _ } -> Output.failed_cell ~reason
  | Timed_out _ -> Output.timeout_cell

let failure_cells ~width f =
  if width < 1 then invalid_arg "Runner.failure_cells: width must be >= 1";
  failure_cell f :: List.init (width - 1) (fun _ -> "-")

let encode v = Marshal.to_string v []

let cached ctx k =
  match ctx.store with
  | None -> None
  | Some store ->
      Option.map (fun payload -> Marshal.from_string payload 0)
        (Store.find store k)

let commit ctx k v =
  match ctx.store with
  | None -> ()
  | Some store -> Store.put store k ~payload:(encode v)

let last_error attempts =
  match List.rev attempts with a :: _ -> a.Parallel.error | [] -> "unknown"

let outcome_to_cell = function
  | Parallel.Ok v -> Ok v
  | Parallel.Failed attempts ->
      Error
        (Failed
           { attempts = List.length attempts; reason = last_error attempts })
  | Parallel.Timed_out { reason; _ } -> Error (Timed_out reason)

(* A table cell only has room for a truncated, sanitised reason; the
   full one goes to stderr, named by the cell's store key. *)
let report_failure k outcome =
  let log verdict n reason =
    Printf.eprintf "pert-experiments: %s %s after %d attempt(s): %s\n%!"
      verdict (Store.canonical k) n reason
  in
  match outcome with
  | Parallel.Ok _ -> ()
  | Parallel.Failed attempts ->
      log "FAILED" (List.length attempts) (last_error attempts)
  | Parallel.Timed_out { attempts; reason } ->
      (* [attempts] lists the failures before the final, timed-out one *)
      log "TIMEOUT" (List.length attempts + 1) reason

(* Per-cell snapshot location under the policy's directory, addressed by
   the same canonical key as the store so a cell's snapshot survives
   process restarts and never collides with another cell's. *)
let cell_checkpoint policy k =
  {
    snap_path =
      Filename.concat policy.dir
        (Digest.to_hex (Digest.string (Store.canonical k)) ^ ".snap");
    snap_every_events = policy.every_events;
    snap_every_wall = policy.every_wall;
  }

let map ctx ~key f xs =
  match xs with
  | [] -> []
  | xs ->
      let keys = List.map key xs in
      let hits = List.map (cached ctx) keys in
      let n_uncached =
        List.length (List.filter Option.is_none hits)
      in
      Option.iter
        (fun policy ->
          if n_uncached > 0 then ignore (Store.open_ ~dir:policy.dir))
        ctx.checkpoint;
      if n_uncached = 0 then List.map (fun h -> Ok (Option.get h)) hits
      else begin
        let pool = Parallel.create ~jobs:(min ctx.jobs n_uncached) in
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () ->
            (* Submit the misses in input order (the pool queue is FIFO,
               so execution order — and thus jobs=1 behaviour — matches
               a sequential run over the misses); the supervision seed is
               the cell's position in the *full* list, so a task's retry
               trace does not depend on which other cells were cached. *)
            let slots =
              List.mapi
                (fun i (k, (x, hit)) ->
                  match hit with
                  | Some v -> Either.Left v
                  | None ->
                      let ckpt =
                        Option.map
                          (fun policy -> cell_checkpoint policy k)
                          ctx.checkpoint
                      in
                      Either.Right
                        (Parallel.submit_supervised pool
                           ?deadline:ctx.deadline ~retries:ctx.retries
                           ~backoff:ctx.backoff ~is_timeout:is_timeout_exn
                           ?checkpoint:
                             (Option.map (fun c -> c.snap_path) ckpt)
                           ~seed:(ctx.seed + i)
                           (fun ~deadline:_ -> f ~ckpt x)))
                (List.combine keys (List.combine xs hits))
            in
            List.map2
              (fun k slot ->
                match slot with
                | Either.Left v -> Ok v
                | Either.Right fut -> (
                    match Parallel.await fut with
                    | Error (exn, bt) ->
                        (* supervision caught task exceptions, so this is
                           a harness bug — surface it loudly *)
                        Printexc.raise_with_backtrace exn bt
                    | Ok outcome ->
                        let cell = outcome_to_cell outcome in
                        (match cell with
                        | Ok v -> commit ctx k v
                        | Error _ ->
                            (* failures are never cached: a rerun (or
                               --resume) retries them *)
                            report_failure k outcome);
                        cell))
              keys slots)
      end
