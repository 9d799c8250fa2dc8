(* End-to-end tests for pertlint's whole-program rules (S1 race escape,
   S2 determinism taint, S3 dead exports, S4 stale allows, S5
   snapshot-invisible state), run as a subprocess over the fixture
   .cmt/.cmti files in test/scan_fixtures. Every analysis is exercised as
   a pair: a true positive asserting the documented diagnostic and
   location, and a structurally-matched true negative that must stay
   silent.  Runs select this family with --rules unless a test picks its
   own subset. *)

open Pertlint_harness

let fixture_dir = "../scan_fixtures/.scan_fixtures.objs/byte"

let fixture_cmt modname =
  Printf.sprintf "%s/scan_fixtures__%s.cmt" fixture_dir modname

let fixture_cmti modname =
  Printf.sprintf "%s/scan_fixtures__%s.cmti" fixture_dir modname

(* The library wrapper module, compiled from dune's generated .ml-gen —
   a .cmt pertlint deliberately refuses to treat as a scannable unit. *)
let wrapper_cmt = Printf.sprintf "%s/scan_fixtures.cmt" fixture_dir

let scan args = "--rules" :: scan_rules :: args

let fires ~rule ~modname =
  fires ~rule ~args:(scan [ fixture_cmt modname ])

let silent ~modname = silent ~modname ~args:(scan [ fixture_cmt modname ])

let s1_capture_true_positive =
  fires ~rule:"S1" ~modname:"Race_capture_bad"
    ~loc:"test/scan_fixtures/race_capture_bad.ml:7"
    ~fragments:
      [
        "mutable 'hits' (ref, allocated at \
         test/scan_fixtures/race_capture_bad.ml:6)";
        "captured (at test/scan_fixtures/race_capture_bad.ml:7)";
        "handed to Parallel.submit";
        "cross-domain data race";
      ]

let s1_global_true_positive =
  fires ~rule:"S1" ~modname:"Race_global_bad"
    ~loc:"test/scan_fixtures/race_global_bad.ml:9"
    ~fragments:
      [
        "module-level mutable 'Race_global_bad.table' (Hashtbl.t, defined \
         at test/scan_fixtures/race_global_bad.ml:6)";
        "accessed unguarded at test/scan_fixtures/race_global_bad.ml:11";
        "reachable directly";
        "handed to Parallel.map";
      ]

let s2_taint_true_positive =
  fires ~rule:"S2" ~modname:"Taint_bad"
    ~loc:"test/scan_fixtures/taint_bad.ml:8"
    ~fragments:
      [
        "Hashtbl iteration order (introduced at \
         test/scan_fixtures/taint_bad.ml:7)";
        "reaches 'Output.cell_f'";
        "run-to-run nondeterminism";
      ]

let s4_stale_true_positive =
  fires ~rule:"S4" ~modname:"Stale_allow"
    ~loc:"test/scan_fixtures/stale_allow.ml:5"
    ~fragments:
      [ "[@lint.allow \"N2\"] suppresses no diagnostic"; "stale" ]

(* S3 needs the using module and the interface in scope together: [used]
   has a cross-module reference (negative), [unused] has none
   (positive), [kept] is unreferenced but allowed. *)
let s3_scope =
  [
    fixture_cmt "Dead_export";
    fixture_cmt "Use_site";
    fixture_cmti "Dead_export";
  ]

let s3_dead_vs_used_export () =
  let code, lines = run ([ "--rules"; "S3" ] @ s3_scope) in
  check_int "S3 exit code" 1 code;
  (match tagged "S3" lines with
  | [ line ] ->
      check_bool "S3 flagged at dead_export.mli:7" true
        (contains_sub line "test/scan_fixtures/dead_export.mli:7:");
      check_bool "S3 names the dead export" true
        (contains_sub line "'Dead_export.unused' is exported by its .mli")
  | other ->
      Alcotest.failf "expected exactly one [S3] line, got %d"
        (List.length other));
  check_bool "the referenced export is not flagged" true
    (not (List.exists (fun l -> contains_sub l "Dead_export.used'") lines));
  check_bool "the allowed export is not flagged" true
    (not (List.exists (fun l -> contains_sub l "Dead_export.kept") lines))

(* S4 vs a live allow: with S3 enabled, the [@@lint.allow "S3"] on
   [Dead_export.kept] suppresses a real diagnostic and must be credited;
   only the no-op N2 allow in stale_allow.ml is stale. *)
let s4_stale_vs_live_allow () =
  let code, lines =
    run ([ "--rules"; "S3,S4" ] @ s3_scope @ [ fixture_cmt "Stale_allow" ])
  in
  check_int "S3,S4 exit code" 1 code;
  (match tagged "S4" lines with
  | [ line ] ->
      check_bool "S4 flagged at stale_allow.ml:5" true
        (contains_sub line "test/scan_fixtures/stale_allow.ml:5:")
  | other ->
      Alcotest.failf "expected exactly one [S4] line, got %d"
        (List.length other));
  check_bool "the live allow on Dead_export.kept is credited, not stale" true
    (not
       (List.exists
          (fun l ->
            contains_sub l "[S4]" && contains_sub l "dead_export.mli")
          lines))

(* S5 is scoped to lib/ and the fixtures live under test/, so every S5
   case runs with --assume-scope lib; the raw whole-tree run below
   doubles as the out-of-scope true negative. *)
let s5_fires ~modname ~loc ~fragments =
  Pertlint_harness.fires ~rule:"S5"
    ~args:(scan [ "--assume-scope"; "lib"; fixture_cmt modname ])
    ~loc ~fragments

let s5_global_true_positive =
  s5_fires ~modname:"Snap_global_bad"
    ~loc:"test/scan_fixtures/snap_global_bad.ml:6"
    ~fragments:
      [
        "module-level mutable 'Snap_global_bad.biases' (Hashtbl.t)";
        "invisible to Sim.Snapshot.save";
        "[@snapshot.opaque]";
      ]

let s5_resource_field_true_positive =
  s5_fires ~modname:"Snap_resource_bad"
    ~loc:"test/scan_fixtures/snap_resource_bad.ml:5"
    ~fragments:
      [
        "record field 'sink.chan' holds an OS resource (out_channel)";
        "annotate the field [@snapshot.opaque]";
      ]

let s5_opaque_fixtures_silent =
  Pertlint_harness.silent ~modname:"Snap_ok"
    ~args:(scan [ "--assume-scope"; "lib"; fixture_cmt "Snap_ok" ])

(* S4 interplay: in lib scope the [@lint.allow "S5"] suppresses a real
   diagnostic and is credited — a silent run.  Out of scope the same
   attribute suppresses nothing and is itself the finding. *)
let s5_allow_credited_in_scope () =
  let code, lines =
    run (scan [ "--assume-scope"; "lib"; fixture_cmt "Snap_allow" ])
  in
  check_int "credited allow exit code" 0 code;
  check_int "credited allow run is silent" 0 (List.length lines);
  let code, lines = run (scan [ fixture_cmt "Snap_allow" ]) in
  check_int "out-of-scope exit code" 1 code;
  match tagged "S4" lines with
  | [ line ] ->
      check_bool "stale S5 allow flagged at snap_allow.ml:7" true
        (contains_sub line "test/scan_fixtures/snap_allow.ml:7:")
  | other ->
      Alcotest.failf "expected exactly one [S4] line, got %d"
        (List.length other)

(* The whole fixture tree under every scan rule at once: exactly the
   six documented findings, nothing from the true negatives.  (The
   second S4 finding is snap_allow.ml's [@lint.allow "S5"]: live only
   under --assume-scope lib, stale in this raw run — see above.) *)
let whole_tree_finding_counts () =
  let code, lines = run (scan [ "--stats"; fixture_dir ]) in
  check_int "whole-tree exit code" 1 code;
  check_int "two S1 findings" 2 (List.length (tagged "S1" lines));
  check_int "one S2 finding" 1 (List.length (tagged "S2" lines));
  check_int "one S3 finding" 1 (List.length (tagged "S3" lines));
  check_int "two S4 findings" 2 (List.length (tagged "S4" lines));
  check_int "no S5 finding outside lib scope" 0
    (List.length (tagged "S5" lines));
  check_bool "stats total" true
    (List.exists (fun l -> contains_sub l "total: 6 violation(s)") lines)

let json_format () =
  let code, lines =
    run (scan [ "--format=json"; fixture_cmt "Taint_bad" ])
  in
  check_int "json exit code" 1 code;
  let blob = String.concat "\n" lines in
  List.iter
    (fun frag ->
      check_bool (Printf.sprintf "json contains %S" frag) true
        (contains_sub blob frag))
    [
      "\"rule\": \"S2\"";
      "\"file\": \"test/scan_fixtures/taint_bad.ml\"";
      "\"line\": 8";
      "\"severity\": \"error\"";
    ]

let () =
  Alcotest.run "pertscan"
    [
      ( "s1-races",
        [
          ("captured local ref is a true positive", `Quick,
           s1_capture_true_positive);
          ("module-level Hashtbl is a true positive", `Quick,
           s1_global_true_positive);
          ("Mutex.protect-guarded accesses are silent", `Quick,
           silent ~modname:"Race_ok");
          ("Parallel.Guard-guarded cache is silent", `Quick,
           silent ~modname:"Guard_ok");
        ] );
      ( "s2-determinism",
        [
          ("Hashtbl-order float reaching cell_f is a true positive", `Quick,
           s2_taint_true_positive);
          ("sorted fold is silent", `Quick, silent ~modname:"Taint_ok");
        ] );
      ( "s3-s4-exports-and-allows",
        [
          ("dead export flagged, used export not", `Quick,
           s3_dead_vs_used_export);
          ("stale allow flagged, live allow credited", `Quick,
           s4_stale_vs_live_allow);
          ("stale allow alone is a true positive", `Quick,
           s4_stale_true_positive);
        ] );
      ( "s5-snapshot-state",
        [
          ("module-level Hashtbl is a true positive", `Quick,
           s5_global_true_positive);
          ("out_channel record field is a true positive", `Quick,
           s5_resource_field_true_positive);
          ("[@snapshot.opaque] bindings/fields and plain mutable records \
            are silent", `Quick, s5_opaque_fixtures_silent);
          ("S5 allow is credited in lib scope, stale outside it", `Quick,
           s5_allow_credited_in_scope);
        ] );
      ( "driver",
        [
          ("whole fixture tree: exact finding counts", `Quick,
           whole_tree_finding_counts);
          ("json findings carry file/line/rule", `Quick, json_format);
          ("pertscan: empty scope exits 2", `Quick,
           empty_scope_is_an_error ~name:"scan rules" ~args:(scan []));
          ("pertlint: empty scope exits 2", `Quick,
           empty_scope_is_an_error ~name:"lint rules"
             ~args:[ "--rules"; lint_rules ]);
          ("pertscan: wrapper-only scope exits 2", `Quick,
           wrapper_only_scope_is_an_error ~name:"scan rules" ~args:(scan [])
             wrapper_cmt);
          ("pertlint: wrapper-only scope exits 2", `Quick,
           wrapper_only_scope_is_an_error ~name:"lint rules"
             ~args:[ "--rules"; lint_rules ] wrapper_cmt);
        ] );
      ( "rule selection",
        [
          ("--rules S1 alone flags Race_capture_bad", `Quick,
           single_rule_flags ~rule:"S1" (fixture_cmt "Race_capture_bad"));
        ] );
    ]
