(* End-to-end tests for pertlint's expression-local rules: each fixture
   in test/lint_fixtures violates exactly one rule at a documented line;
   pertlint (run as a subprocess on the fixture's .cmt) must flag exactly
   that line, and the allow_ok fixture must come out clean.  Runs that
   rely on the default rule set select this family with --rules: the
   whole-program rules (S3, S4, S5) would otherwise report on the
   fixtures too. *)

open Pertlint_harness

let fixture_cmt modname =
  Printf.sprintf "../lint_fixtures/.lint_fixtures.objs/byte/lint_fixtures__%s.cmt"
    modname

(* (rule, fixture module, source basename, expected 1-based line,
   --assume-scope needed to arm the rule on a fixture .cmt) *)
let bad_fixtures =
  [
    ("D1", "D1_bad", "d1_bad.ml", 4, "lib");
    ("D2", "D2_bad", "d2_bad.ml", 4, "lib");
    ("D3", "D3_bad", "d3_bad.ml", 4, "lib");
    ("N1", "N1_bad", "n1_bad.ml", 4, "lib");
    ("N2", "N2_bad", "n2_bad.ml", 4, "lib");
    ("H1", "H1_bad", "h1_bad.ml", 4, "lib");
    ("M1", "M1_bad", "m1_bad.ml", 1, "lib");
    ("U1", "U1_bad", "u1_bad.ml", 4, "lib");
    ("U2", "U2_bad", "u2_bad.ml", 4, "lib");
    ("U3", "U3_bad", "u3_bad.ml", 8, "lib");
    ("N3", "N3_bad", "n3_bad.ml", 4, "lib");
    ("P1", "P1_bad", "p1_bad.ml", 4, "lib");
    ("R1", "R1_bad", "r1_bad.ml", 4, "lib");
    ("W1", "W1_bad", "w1_bad.ml", 4, "lib/tcp");
  ]

let rule_fires (rule, modname, src, line, scope) () =
  let code, lines =
    run [ "--rules"; rule; "--assume-scope"; scope; fixture_cmt modname ]
  in
  check_int (rule ^ " exit code") 1 code;
  let hits = tagged rule lines in
  check_int (rule ^ " fires exactly once") 1 (List.length hits);
  check_bool
    (Printf.sprintf "%s flagged at %s:%d" rule src line)
    true
    (List.for_all
       (fun l -> contains_sub l (Printf.sprintf "%s:%d:" src line))
       hits)

(* The same fixtures contain no violation of any *other* expression-level
   rule: with the fixture's own rule (and M1, which fires on every
   mli-less fixture) disabled, pertlint must exit clean. Runs under the
   widest scope (lib/tcp implies lib), so e.g. the W1 fixture's int
   window would be caught if any other fixture leaked one. *)
let rule_isolated (rule, modname, _, _, _) () =
  let others =
    List.filter
      (fun r -> r <> rule && r <> "M1")
      (List.map (fun (r, _, _, _, _) -> r) bad_fixtures)
  in
  let code, lines =
    run
      [
        "--rules"; String.concat "," others;
        "--assume-scope"; "lib/tcp";
        fixture_cmt modname;
      ]
  in
  check_int (rule ^ " no cross-rule noise: exit") 0 code;
  check_int (rule ^ " no cross-rule noise: output") 0 (List.length lines)

let allow_suppresses () =
  let code, lines =
    run
      [ "--rules"; lint_rules; "--assume-scope"; "lib"; fixture_cmt "Allow_ok" ]
  in
  check_int "allow_ok exit code" 0 code;
  check_int "allow_ok diagnostics" 0 (List.length lines)

(* S4 reported alone: the expression-local rules still run and credit
   every allow in allow_ok, so none of them is stale. *)
let allows_credited_under_s4_alone () =
  let code, lines =
    run [ "--rules"; "S4"; "--assume-scope"; "lib"; fixture_cmt "Allow_ok" ]
  in
  check_int "S4-only exit code" 0 code;
  check_int "no stale-allow finding" 0 (List.length (tagged "S4" lines))

let stats_table () =
  let code, lines =
    run
      [
        "--stats"; "--rules"; lint_rules; "--assume-scope"; "lib";
        fixture_cmt "Allow_ok";
      ]
  in
  check_int "stats exit code" 0 code;
  check_bool "stats prints a total line" true
    (List.exists (fun l -> contains_sub l "total: 0 violation(s)") lines)

let json_format () =
  let code, lines =
    run
      [ "--format"; "json"; "--rules"; "N1"; "--assume-scope"; "lib";
        fixture_cmt "N1_bad" ]
  in
  check_int "json exit code" 1 code;
  let joined = String.concat "" lines in
  check_bool "json rule field" true (contains_sub joined "\"rule\": \"N1\"");
  check_bool "json line field" true (contains_sub joined "\"line\": 4");
  check_bool "json severity field" true
    (contains_sub joined "\"severity\": \"error\"");
  (* A clean scan must still print a valid (empty) JSON array. *)
  let code, lines =
    run
      [
        "--format"; "json"; "--rules"; lint_rules; "--assume-scope"; "lib";
        fixture_cmt "Allow_ok";
      ]
  in
  check_int "clean json exit code" 0 code;
  check_bool "clean scan prints []" true
    (List.exists (fun l -> String.trim l = "[]") lines)

let unknown_rule_rejected () =
  let code, _ = run [ "--rules"; "BOGUS"; fixture_cmt "Allow_ok" ] in
  check_int "unknown rule exit code" 2 code

let () =
  let fires =
    List.map
      (fun ((rule, _, _, _, _) as fx) ->
        (Printf.sprintf "%s fires at documented line" rule, `Quick, rule_fires fx))
      bad_fixtures
  in
  let isolated =
    List.map
      (fun ((rule, _, _, _, _) as fx) ->
        (Printf.sprintf "%s fixture is clean for other rules" rule, `Quick,
         rule_isolated fx))
      bad_fixtures
  in
  Alcotest.run "pertlint"
    [
      ("rule firing", fires);
      ("rule isolation", isolated);
      ( "suppression",
        [
          ("[@lint.allow] suppresses every rule", `Quick, allow_suppresses);
          ("--rules S4 alone credits every rule's allows", `Quick,
           allows_credited_under_s4_alone);
          ("--stats prints the summary table", `Quick, stats_table);
          ("--format=json emits a findings array", `Quick, json_format);
          ("unknown --rules id is rejected", `Quick, unknown_rule_rejected);
        ] );
      ( "rule selection",
        [
          ("--rules D1 alone flags D1_bad", `Quick,
           single_rule_flags ~rule:"D1" (fixture_cmt "D1_bad"));
        ] );
    ]
