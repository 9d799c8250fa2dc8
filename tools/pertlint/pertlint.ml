(* pertlint — the repo's one static analyzer: determinism, numerical
   safety, domain safety and the zero-allocation hot path.

   Loads every .cmt/.cmti file dune produces under _build once and runs
   four rule families over them, in this order: the expression-local
   rules (Lint_core.check_file), the whole-program analyses S1, S2, S3
   and S5 (Scan_core), the allocation-effect analysis (Alloc_core), and
   S4 last, once every family has credited the allows it exercised.
   Together they enforce the invariants PERT's bit-identical-replay
   guarantee rests on.

   Expression-local rules, one expression or file at a time:

     D1  no [Random.*] outside lib/engine/rng.ml (all randomness must flow
         through the splittable [Rng]); also flags [module R = Random].
     D2  no wall-clock or environment reads ([Unix.gettimeofday], [Sys.time],
         [Sys.getenv], ...) inside lib/.
     D3  no module-toplevel mutable state ([ref], mutable records, arrays,
         [Hashtbl.create], ...) inside lib/ — shared state that survives
         across runs breaks replay.  State created under a [fun] (i.e. per
         call, inside an explicit constructor) is fine.
     N1  no polymorphic/structural comparison on float operands ([=], [<>],
         [compare], [min], [max]) — NaN-oblivious; use [Float.equal],
         [Float.compare], [Float.min]/[Float.max] or a tolerance.
     N2  no [Obj.magic].
     H1  no catch-all [try ... with _ ->] swallowing exceptions.
     M1  every lib/ module ships an .mli (checked as: the .cmt has a
         sibling .cmti).
     U1  no float-typed binding or record label with a unit-suffixed name
         ([_s], [_ms], [_us], [_bps], [_mbps], [_bytes], [_pkts], [_prob],
         [_p]) inside lib/ — a value that names its unit must carry it in
         the type ([Units.Time.t], [Units.Rate.t], ...), not in a comment.
     U2  no inline probability decision: comparing a raw [Rng.float] draw
         against a bare float re-implements Bernoulli sampling without the
         [Units.Prob] clamping/NaN guarantees; use [Rng.bernoulli].
     U3  no bare truncation ([int_of_float], [truncate], [Float.to_int])
         of a unit-suffixed value, anywhere — rounding a quantity that
         carries a unit is a semantic decision; spell it with
         [Units.Round.trunc]/[floor]/[ceil]/[nearest].
     N3  no [int_of_float]/[truncate]/[Float.to_int] inside lib/ at all,
         outside lib/units/units.ml where [Units.Round] wraps them.
     P1  no concurrency primitives ([Domain.*], [Mutex.*], [Condition.*],
         [Atomic.*]) inside lib/ outside lib/parallel — every simulation
         stays a single-domain island; cross-domain coordination lives in
         the one audited pool.  Also flags [module D = Domain] aliasing.
     R1  no blocking or process-control calls ([Unix.sleep], [Unix.sleepf],
         [Unix.select], [Sys.command], [Unix.system], [exit]) inside lib/ —
         deadlines, retry and backoff must go through the supervised-task
         API ([Parallel.submit_supervised], [Sim.set_budget]), never an
         ad-hoc sleep or a library-initiated process exit.
     W1  no raw-int window binding inside lib/tcp outside tcp_window.ml:
         a binding or record label named like a TCP window ([wnd],
         [window], [rwnd], [awnd] or the [_wnd]/[_window]/[_rwnd]/[_awnd]
         suffixes) whose type is bare [int] re-opens the byte-vs-field
         confusion window scaling exists to close; window arithmetic must
         go through [Tcp_window] ([Units.Size]-typed, scale-aware).


   Whole-program rules, over every unit in scope at once (Scan_core;
   S4 in Lint_core):

     S1  shared-mutable-escape race detector — a ref / array / Hashtbl /
         Buffer / Queue / Bytes / mutable-record value that is reachable
         from a closure handed to [Parallel.submit]/[map]/
         [submit_supervised] (directly, through a record field such as
         [Registry.experiment.run], or through a function argument
         forwarded by a submitter like [Runner.map]) while also being
         reachable from the submitting context, with no
         [Mutex.protect]/[Parallel.Guard.with_] on the accesses inside
         the task.  The diagnostic carries the whole chain: allocation
         site -> capture/access site -> submission site.
     S2  determinism taint — sources are Hashtbl iteration order
         ([iter]/[fold]/[to_seq*]), physical equality on boxed values,
         shortest-round-trip float formatting ([string_of_float]/
         [Float.to_string], which emit non-finite tokens), and draws from
         an Rng minted at module toplevel (not derived from a per-sim
         seed); sinks are the result store ([Store.put]/[write_atomic]),
         the table renderers ([Output.*] and [Output.table] literals) and
         the trace emitters ([Tracer.to_string]/[save]).  Taint flows
         through lets, calls and data constructors; sorting
         ([List.sort*]/[Array.sort*]) sanitizes.
     S3  unused exports — a [val] in an .mli never referenced outside its
         own module anywhere in the program (bins, tests, examples and
         benches count as references).
     S4  stale suppressions — a [@lint.allow] attribute that suppressed
         no diagnostic of any rule.  Every family always runs (--rules
         only filters reporting), so S4 is exact under any rule subset.
     S5  snapshot-invisible mutable state — [Sim.Snapshot.save] marshals
         exactly what is reachable from the (simulation, world) pair, so
         a module-level mutable in lib/ silently resets on restore, and a
         record field holding an OS resource ([out_channel],
         [Unix.file_descr], [Mutex.t], ...) either aborts Marshal or
         restores as a dead handle.  Both must carry [@snapshot.opaque]
         — a reviewed claim that the state is recomputable or
         deliberately per-process.

   Allocation-effect rules (Alloc_core): functions annotated
   [@alloc.zero] must allocate nothing transitively.  Per-function
   allocation summaries are propagated over the cross-module call graph
   and every allocation site reachable from an annotated root is
   reported with the kind of allocation and the call chain:

     A1  heap allocation reachable from an [@alloc.zero] root
     A2  boxed-float allocation on the zero-alloc hot path
     A3  per-iteration closure allocation in a loop on the hot path

   The static contract is cross-checked dynamically by bench/main.ml's
   Gc.minor_words budget (see README "Allocation discipline").

   Suppression: attach [@lint.allow "D3"] to an expression or
   [let[@lint.allow "D3"] x = ...] to a binding; a floating
   [@@@lint.allow "M1"] disables a rule for the whole file.  The payload
   may list several rules separated by spaces or commas.  S1 is judged
   at the submission site, S2 at the sink, S3 at the [val] in the .mli
   ([val f : t [@@lint.allow "S3"]] with a comment saying why the export
   is kept), S5 at the binding or field declaration (prefer
   [@snapshot.opaque], which also documents the checkpointing contract),
   A1..A3 at the allocation site or its enclosing binding.  S4 is not
   suppressible: delete the stale attribute.

   The expression-local checks are intentionally structural (no Env
   reconstruction), so type abbreviations of [float] are not expanded —
   direct float operands only.

   Usage: pertlint [--rules R1,R2] [--assume-scope lib|lib/tcp] [--stats]
   [--quiet] [--format=text|json] paths, where paths point at the _build
   tree.  Exit 1 on findings, 2 on a configuration error (unknown rule,
   bad option, or a scope with no scannable implementation). *)

open Lint_core

let set_rules s =
  let ids =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.iter
    (fun id ->
      if rule_by_id id = None then begin
        Printf.eprintf "%s: unknown rule %S\n" prog id;
        exit 2
      end)
    ids;
  enabled_rules := ids

let spec =
  [
    ("--rules", Arg.String set_rules, "R1,R2 only report the listed rules");
    ( "--assume-scope",
      Arg.String
        (fun s ->
          match s with
          | "lib" -> assume_scope_lib := true
          | "lib/tcp" ->
              (* lib/tcp is inside lib: the narrower assumption implies
                 the wider one. *)
              assume_scope_lib := true;
              assume_scope_tcp := true
          | _ ->
              Printf.eprintf "%s: --assume-scope takes 'lib' or 'lib/tcp'\n"
                prog;
              exit 2),
      "SCOPE treat every file as if it lived under lib/ or lib/tcp/ (fixture testing)" );
    ("--stats", Arg.Set stats, " print a per-rule violation count table");
    ("--quiet", Arg.Set quiet, " suppress per-violation diagnostics");
    ( "--format",
      Arg.String
        (fun s ->
          match s with
          | "text" -> format_json := false
          | "json" -> format_json := true
          | _ ->
              Printf.eprintf "%s: --format takes 'text' or 'json'\n" prog;
              exit 2),
      "FMT output format: text (default) or json (findings array on stdout)" );
  ]

let () =
  let roots = ref [] in
  let usage = "pertlint [options] [dir-or-cmt ...]  (default: scan .)" in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  let roots = if !roots = [] then [ "." ] else List.rev !roots in
  let cmts =
    collect_under ~suffix:".cmt" roots
    |> require_nonempty ~what:".cmt files" roots
  in
  let impls = List.filter_map load_cmt cmts in
  (* Even a non-empty .cmt set can hold zero implementations (e.g. a
     directory holding only interface or generated artifacts); CI must
     treat that as a configuration error, not a clean pass. *)
  if impls = [] then begin
    Printf.eprintf
      "%s: %d .cmt file(s) under %s but none was a scannable \
       implementation — wrong scope?\n"
      prog (List.length cmts)
      (String.concat " " roots);
    exit 2
  end;
  let intfs = List.filter_map load_cmti (collect_under ~suffix:".cmti" roots) in
  (* The family order from the header; S4 must come last, after every
     family has credited the allows it hit. *)
  List.iter check_file impls;
  let prepared = List.map (fun l -> (l, Scan_core.prepare l)) impls in
  Scan_core.run prepared intfs;
  Alloc_core.run prepared;
  report_stale_allows ();
  finish ~files:(List.length impls)
