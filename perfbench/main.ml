(* End-to-end simulation benchmark: one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--out-dir DIR]

   --trace 0 repeats the workload until S seconds have passed and reports
   the end-to-end metrics; --trace 1 alternates untraced and traced
   repetitions for S seconds and reports the per-layer metrics. Every
   output check that fails is named on stderr and counted; the last line
   of stdout is the JSON result, and the exit code is 1 when any check
   failed. See perfbench/README.md. *)

module D = Experiments.Dumbbell

let workload = ref ""
let seed = ref 1
let seconds = ref 30.0
let trace = ref 0
let out_dir = ref ".bench_build/perfbench"
(* One top-level span tree in 16 is timed (see span.ml). *)
let sample_every = 16

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]"

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME pert-quick | red-web | pert-paper");
    ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S measuring time (default 30)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
    ("--out-dir", Arg.Set_string out_dir, "DIR checkpoints and span logs");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --- statistics ----------------------------------------------------------- *)

let median = Drive.median

(* Run time of a set of repetitions of one deterministic simulation:
   each slice's median over the repetitions, summed. A host slowdown that
   hits one repetition's slice is outvoted by the others. *)
let run_s (slices : Drive.slices list) =
  let n = Array.length (List.hd slices).Drive.factor in
  let norms = List.map Drive.norm_s slices in
  let raws = List.map (fun s -> Array.map2 ( +. ) s.Drive.run_raw s.Drive.save_raw) slices in
  let per f = Array.init n (fun i -> median (List.map (fun a -> a.(i)) f)) in
  (Drive.sum (per norms), Drive.sum (per raws))

(* --- checks ---------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* One attempt: it fails when any of its named checks fails. *)
let attempt checks =
  incr attempted;
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  List.iter
    (fun (name, _) -> Printf.eprintf "CHECK FAILED workload=%s check=%s\n%!" !workload name)
    bad;
  if bad <> [] then incr failed

let audit_ok (o : Drive.outcome) = ("audit_violations", o.result.audit_violations = 0)

(* --- output ---------------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name value unit = metrics := (name, value, unit) :: !metrics

let line fmt = Printf.printf (fmt ^^ "\n%!")

let print_json () =
  let m =
    List.rev !metrics
    |> List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
    |> String.concat ", "
  in
  line "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed m

let print_result (o : Drive.outcome) =
  line "result digest %s events %d" o.digest o.events;
  line "net.bneck.utilization %.17g" o.result.utilization;
  line "net.bneck.avg_queue_pkts %.17g" (Units.Pkts.to_float o.result.avg_queue_pkts)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* --- modes ----------------------------------------------------------------- *)

let snap_path w suffix =
  Filename.concat !out_dir (Printf.sprintf "%s-%d%s.snap" w.Workloads.name (Unix.getpid ()) suffix)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* Restore the checkpoint at [path], finish the run, and check it matches
   the straight run [expect]. Returns the load time normalised by host
   factor [f]. *)
let restore_check w path (expect : Drive.outcome) ~f =
  let world, raw = Drive.restore path in
  ignore (Drive.advance w world);
  let o = Drive.finish world in
  attempt [ audit_ok o; ("restore_identical", String.equal o.digest expect.digest) ];
  line "restore_s %.6f s (raw %.6f s, host factor %.4f)" (raw *. f) raw f;
  raw *. f

(* Seeds differ in how much traffic they generate (RED-ECN utilisation
   alone varies by 10 % between seeds), and run time and allocation
   follow the traffic. They are reported scaled to the workload's
   nominal packet-hops, a count that a change which only speeds up the
   simulator leaves identical. *)
let traffic_scale (w : Workloads.t) (o : Drive.outcome) =
  float_of_int w.nominal_hops /. float_of_int o.hops

let deadline () =
  let t0 = Clock.now_ns () in
  fun () -> Clock.seconds_since t0 >= !seconds

let end_to_end (w : Workloads.t) =
  let snap = Option.map (fun _ -> snap_path w "") w.checkpoint_events in
  (* Set-up is timed first, in the fresh process a user's run starts
     from, each build from a settled heap: at least 11 builds, and up to
     101 until a second of building is covered, since a small dumbbell
     builds in about a millisecond. Later builds reuse the repetitions'
     freed heap, and their time varied twice as much. The kernel runs
     after each build, and the median of its scores is the set-up's host
     factor: build speed did not follow the host factor of the
     repetitions' slices. *)
  let setups = ref [] and kernels = ref [ Refkernel.measure_ns () ] in
  while
    let n = List.length !setups in
    n < 11 || (n < 101 && List.fold_left ( +. ) 0.0 !setups < 1.0)
  do
    setups := snd (Drive.build_timed (w.config ~seed:!seed)) :: !setups;
    kernels := Refkernel.measure_ns () :: !kernels
  done;
  let setups = !setups in
  let setup_k = Float.to_int (median (List.map float_of_int !kernels)) in
  let setup_f = Refkernel.factor setup_k setup_k in
  let over = deadline () in
  let rec repeat acc n =
    if n >= 2 && over () then List.rev acc
    else repeat (Drive.rep ?snap_path:snap w ~seed:!seed :: acc) (n + 1)
  in
  let reps = repeat [] 0 in
  let first = (List.hd reps).outcome in
  List.iter
    (fun (r : Drive.rep) ->
      attempt [ audit_ok r.outcome; ("repeat_identical", String.equal r.outcome.digest first.digest) ])
    reps;
  let f_all = median (List.map (fun (r : Drive.rep) -> Drive.host_factor r.slices) reps) in
  let peak_words = (Gc.quick_stat ()).top_heap_words in
  let run_norm, run_raw = run_s (List.map (fun (r : Drive.rep) -> r.slices) reps) in
  let setup_raw = median setups in
  let setup_norm = setup_raw *. setup_f in
  let alloc = median (List.map (fun (r : Drive.rep) -> r.alloc_words) reps) in
  let scale = traffic_scale w first in
  line "repetitions %d" (List.length reps);
  print_result first;
  line "run_s %.6f s (raw %.6f s, host factor %.4f, traffic scale %.4f)" (run_norm *. scale)
    run_raw (run_norm /. run_raw) scale;
  line "setup_s %.6f s (raw %.6f s, host factor %.4f, %d builds)" setup_norm setup_raw setup_f
    (List.length setups);
  line "alloc_mwords %.6f Mwords (unscaled %.6f, traffic scale %.4f)" (alloc *. scale /. 1e6)
    (alloc /. 1e6) scale;
  line "peak_heap_mb %.3f MB" (mb peak_words);
  Option.iter
    (fun path ->
      ignore (restore_check w path first ~f:f_all);
      remove_if_exists path)
    snap;
  line "fail_ratio %.4f (%d of %d attempts failed)"
    (float_of_int !failed /. float_of_int !attempted)
    !failed !attempted;
  metric "run_s" (run_norm *. scale) "s";
  metric "setup_s" setup_norm "s";
  metric "alloc_mwords" (alloc *. scale /. 1e6) "Mwords";
  metric "peak_heap_mb" (mb peak_words) "MB"

let per_layer (w : Workloads.t) =
  let snap = Option.map (fun _ -> snap_path w "") w.checkpoint_events in
  let tsnap = Option.map (fun _ -> snap_path w "-traced") w.checkpoint_events in
  let over = deadline () in
  let rec repeat acc n =
    if n >= 1 && over () then List.rev acc
    else begin
      let u = Drive.rep ?snap_path:snap w ~seed:!seed in
      let t = Trace.rep ?snap_path:tsnap ~sample_every w ~seed:!seed in
      repeat ((u, t) :: acc) (n + 1)
    end
  in
  let pairs = repeat [] 0 in
  let u0 = (fst (List.hd pairs)).Drive.outcome in
  List.iter
    (fun ((u : Drive.rep), (t : Trace.rep)) ->
      attempt
        [
          audit_ok u.outcome;
          ("repeat_identical", String.equal u.outcome.digest u0.digest);
        ];
      attempt
        [
          audit_ok t.outcome;
          ("traced_reproduces_result", String.equal t.outcome.digest u.outcome.digest);
          ("traced_reproduces_events", t.outcome.events = u.outcome.events);
        ])
    pairs;
  (* The slicing itself must not perturb the simulation: one unsliced
     [Dumbbell.run_world] of the same config gives the same digest. *)
  let whole =
    let built, result = D.run_world (w.config ~seed:!seed) in
    let events = Sim_engine.Sim.events_executed (Netsim.Topology.sim built.topo) in
    Digest.to_hex (Digest.string (Drive.render result ~events))
  in
  attempt [ ("sliced_matches_dumbbell_run", String.equal whole u0.digest) ];
  let u_factor = median (List.map (fun ((u : Drive.rep), _) -> Drive.host_factor u.slices) pairs) in
  let load_s = match snap with Some path -> restore_check w path u0 ~f:u_factor | None -> 0.0 in
  List.iter remove_if_exists (List.filter_map Fun.id [ snap; tsnap ]);
  let us = List.map fst pairs and ts = List.map snd pairs in
  let u_norm, _ = run_s (List.map (fun (r : Drive.rep) -> r.slices) us) in
  let t_norm, t_raw = run_s (List.map (fun (r : Trace.rep) -> r.slices) ts) in
  (* The last traced repetition supplies spans and counters; its host
     factor scales the span times. *)
  let t = List.hd (List.rev ts) in
  let f =
    Drive.sum (Drive.norm_s t.slices)
    /. Drive.sum (Array.map2 ( +. ) t.slices.run_raw t.slices.save_raw)
  in
  let norm_of part =
    median (List.map (fun (r : Drive.rep) -> Drive.sum (Array.map2 ( *. ) (part r) r.slices.factor)) us)
  in
  let sim_run_norm = norm_of (fun r -> r.slices.run_raw) in
  let saves_norm = norm_of (fun r -> r.slices.save_raw) in
  let u1 = List.hd us in
  let o = t.outcome in
  let calls k = float_of_int (Span.calls_of k) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let gc_minor = t.gc1.minor_collections - t.gc0.minor_collections in
  let gc_major = t.gc1.major_collections - t.gc0.major_collections in
  let promoted = t.gc1.promoted_words -. t.gc0.promoted_words in
  let web_objects, web_pkts =
    match t.web with
    | Some s -> (s.objects_completed, s.pkts_completed)
    | None -> (0, 0)
  in
  let enq = Span.calls_of Span.Enqueue in
  let early = Span.calls_of Span.Early in
  let overhead = (t_norm /. u_norm) -. 1.0 in
  line "traced pairs %d, one span tree in %d timed" (List.length pairs) sample_every;
  print_result o;
  line "packet-hops %d (traffic scale %.4f)" o.hops (traffic_scale w o);
  line "trace overhead %.1f %% (untraced run_s %.6f s, traced %.6f s, traced raw %.6f s)"
    (100.0 *. overhead) u_norm t_norm t_raw;
  line "span clock overhead subtracted: %.1f ns per span, %.1f ns per nested span"
    (float_of_int !Span.inner_t *. !Span.ns_per_tick)
    (float_of_int !Span.pair_t *. !Span.ns_per_tick);
  if !Gcev.lost > 0 then line "gc events lost %d" !Gcev.lost;
  let spans = Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.tsv" w.name !seed) in
  Span.write spans;
  line "span log %s (%d spans)" spans !Span.log_len;
  metric "engine.events" (float_of_int o.events) "count";
  metric "engine.ns_per_event" (u_norm /. float_of_int u1.outcome.events *. 1e9) "ns";
  metric "engine.self_s" (sim_run_norm -. (Span.top_s () *. f)) "s";
  metric "engine.audit.calls" (calls Span.Audit) "count";
  metric "engine.audit.s" (Span.incl_s Span.Audit *. f) "s";
  metric "engine.snapshot.saves" (float_of_int u1.slices.saves) "count";
  metric "engine.snapshot.save_s" saves_norm "s";
  metric "engine.snapshot.mb" (float_of_int u1.slices.snap_bytes /. 1e6) "MB";
  metric "engine.snapshot.load_s" load_s "s";
  metric "net.deliver.calls" (calls Span.Deliver) "count";
  metric "net.deliver.s" (Span.incl_s Span.Deliver *. f) "s";
  metric "net.deliver.self_s" (Span.self_s Span.Deliver *. f) "s";
  metric "net.disc.enqueue.calls" (calls Span.Enqueue) "count";
  metric "net.disc.enqueue.s" (Span.incl_s Span.Enqueue *. f) "s";
  metric "net.disc.dequeue.calls" (calls Span.Dequeue) "count";
  metric "net.disc.dequeue.s" (Span.incl_s Span.Dequeue *. f) "s";
  metric "net.disc.accept_ratio" (ratio !Trace.accepted enq) "ratio";
  metric "net.disc.marks" (float_of_int !Trace.marked) "count";
  metric "net.disc.drops" (float_of_int !Trace.rejected) "count";
  metric "net.arena.capacity" (float_of_int t.arena_capacity) "packets";
  metric "tcp.cc.on_ack.calls" (calls Span.On_ack) "count";
  metric "tcp.cc.on_ack.s" (Span.incl_s Span.On_ack *. f) "s";
  metric "tcp.flow.retransmissions" (float_of_int t.retransmissions) "count";
  metric "tcp.flow.timeouts" (float_of_int t.timeouts) "count";
  metric "tcp.flow.goodput_ratio" (ratio t.acked (t.acked + t.retransmissions)) "ratio";
  metric "core.pert.calls" (float_of_int early) "count";
  metric "core.pert.s" (Span.incl_s Span.Early *. f) "s";
  metric "core.pert.responses" (float_of_int !Trace.responses) "count";
  metric "core.pert.response_ratio" (ratio !Trace.responses early) "ratio";
  metric "traffic.web.objects_completed" (float_of_int web_objects) "count";
  metric "traffic.web.pkts_completed" (float_of_int web_pkts) "packets";
  metric "gc.minor_collections" (float_of_int gc_minor) "count";
  metric "gc.major_collections" (float_of_int gc_major) "count";
  metric "gc.promoted_mwords" (promoted /. 1e6) "Mwords";
  metric "gc.minor_s" (float_of_int !Gcev.minor_ns *. 1e-9 *. f) "s";
  metric "gc.major_s" (float_of_int !Gcev.major_ns *. 1e-9 *. f) "s";
  metric "net.bneck.utilization" o.result.utilization "ratio";
  metric "net.bneck.avg_queue_pkts" (Units.Pkts.to_float o.result.avg_queue_pkts) "packets";
  metric "trace.overhead" overhead "ratio";
  List.iter
    (fun (n, v, u) -> line "%s %.6g %s" n v u)
    (List.rev !metrics)

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S (usage: %s)" !workload usage
  in
  if !seconds <= 0.0 then die "--seconds must be positive";
  mkdir_p !out_dir;
  line "workload %s seed %d trace %d" w.name !seed !trace;
  (match !trace with
  | 0 -> end_to_end w
  | 1 -> per_layer w
  | n -> die "--trace must be 0 or 1, not %d" n);
  print_json ();
  exit (if !failed = 0 then 0 else 1)
