(* End-to-end tests for pertlint's allocation-effect rules: the
   interprocedural analysis runs as a subprocess over the fixture .cmt
   files in test/alloc_fixtures. Every rule is exercised as a pair: a
   true positive asserting the documented diagnostic, location and (for
   A1) the interprocedural call chain, and a structurally-matched true
   negative that must stay silent.  Runs select this family with --rules
   unless a test picks its own subset. *)

open Pertlint_harness

let fixture_dir = "../alloc_fixtures/.alloc_fixtures.objs/byte"

let fixture_cmt modname =
  Printf.sprintf "%s/alloc_fixtures__%s.cmt" fixture_dir modname

(* The library wrapper module, compiled from dune's generated .ml-gen —
   a .cmt pertlint deliberately refuses to treat as a scannable unit. *)
let wrapper_cmt = Printf.sprintf "%s/alloc_fixtures.cmt" fixture_dir

let alloc args = "--rules" :: alloc_rules :: args

let fires ~rule ~modname =
  fires ~rule ~args:(alloc [ fixture_cmt modname ])

let silent ~modname = silent ~modname ~args:(alloc [ fixture_cmt modname ])

(* A1: the allocation is two calls away from the annotated root, and
   the diagnostic must spell out the interprocedural chain. *)
let a1_chain_true_positive =
  fires ~rule:"A1" ~modname:"A1_bad" ~loc:"test/alloc_fixtures/a1_bad.ml:4"
    ~fragments:
      [
        "constructor '::' allocation";
        "on the zero-alloc path from [@alloc.zero] 'A1_bad.root'";
        "call chain: A1_bad.root -> A1_bad.middle -> A1_bad.helper";
      ]

let a2_float_option_true_positive =
  fires ~rule:"A2" ~modname:"A2_bad" ~loc:"test/alloc_fixtures/a2_bad.ml:5"
    ~fragments:
      [
        "'Some' of a float allocates an option cell around a boxed float";
        "[@alloc.zero] 'A2_bad.lookup'";
        "directly in the annotated body";
      ]

let a3_loop_closure_true_positive =
  fires ~rule:"A3" ~modname:"A3_bad" ~loc:"test/alloc_fixtures/a3_bad.ml:6"
    ~fragments:
      [
        "per-iteration local function 'f' rebuilds a closure capturing \
         2 variable(s)";
        "[@alloc.zero] 'A3_bad.root'";
      ]

(* [@lint.allow "A1"] on the allocation site: the A rules must stay
   silent, and the stale-allow rule (S4) — reported alone, while the
   allocation analysis still runs and credits the allows it exercises —
   must see the allow as credited, not stale. *)
let allow_suppresses_and_is_credited () =
  silent ~modname:"Alloc_allow_ok" ();
  let code, lines =
    run [ "--rules"; "S4"; fixture_cmt "Alloc_allow_ok" ]
  in
  check_int "S4 exit code on credited alloc allow" 0 code;
  check_int "no stale-allow finding" 0 (List.length (tagged "S4" lines))

(* The whole fixture tree: exactly one finding per rule, nothing from
   the true negatives, and the stats footer adds up. *)
let whole_tree_finding_counts () =
  let code, lines = run (alloc [ "--stats"; fixture_dir ]) in
  check_int "whole-tree exit code" 1 code;
  check_int "one A1 finding" 1 (List.length (tagged "A1" lines));
  check_int "one A2 finding" 1 (List.length (tagged "A2" lines));
  check_int "one A3 finding" 1 (List.length (tagged "A3" lines));
  check_bool "stats total" true
    (List.exists (fun l -> contains_sub l "total: 3 violation(s)") lines)

let json_format () =
  let code, lines = run (alloc [ "--format=json"; fixture_cmt "A2_bad" ]) in
  check_int "json exit code" 1 code;
  let blob = String.concat "\n" lines in
  List.iter
    (fun frag ->
      check_bool (Printf.sprintf "json contains %S" frag) true
        (contains_sub blob frag))
    [
      "\"rule\": \"A2\"";
      "\"file\": \"test/alloc_fixtures/a2_bad.ml\"";
      "\"line\": 5";
      "\"severity\": \"error\"";
    ]

let () =
  Alcotest.run "pertalloc"
    [
      ( "a1-heap-alloc",
        [
          ("allocation two calls from the root carries the chain", `Quick,
           a1_chain_true_positive);
          ("pure-arithmetic call chain is silent", `Quick,
           silent ~modname:"A1_ok");
        ] );
      ( "a2-boxed-floats",
        [
          ("Some of a float is a true positive", `Quick,
           a2_float_option_true_positive);
          ("computed stores into a flat float record are silent", `Quick,
           silent ~modname:"A2_ok");
        ] );
      ( "a3-loop-closures",
        [
          ("per-iteration capturing closure is a true positive", `Quick,
           a3_loop_closure_true_positive);
          ("hoisted toplevel helper in the loop is silent", `Quick,
           silent ~modname:"A3_ok");
        ] );
      ( "driver",
        [
          ("allowed site is suppressed and credits its allow", `Quick,
           allow_suppresses_and_is_credited);
          ("whole fixture tree: exact finding counts", `Quick,
           whole_tree_finding_counts);
          ("json findings carry file/line/rule", `Quick, json_format);
          ("empty scope exits 2", `Quick,
           empty_scope_is_an_error ~name:"alloc rules" ~args:(alloc []));
          ("wrapper-only scope exits 2", `Quick,
           wrapper_only_scope_is_an_error ~name:"alloc rules"
             ~args:(alloc []) wrapper_cmt);
        ] );
      ( "rule selection",
        [
          ("--rules A1 alone flags A1_bad", `Quick,
           single_rule_flags ~rule:"A1" (fixture_cmt "A1_bad"));
        ] );
    ]
