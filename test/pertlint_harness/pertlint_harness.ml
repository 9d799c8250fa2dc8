(* Subprocess helpers shared by the pertlint fixture suites (test/lint,
   test/scan, test/alloc).  Each suite runs from
   _build/default/test/<suite>, so the executable and the fixture objects
   are reachable by relative path. *)

let exe =
  Filename.concat (Filename.concat ".." "..") "tools/pertlint/pertlint.exe"

(* Each rule family's ids, for the suites that check one family alone. *)
let lint_rules = "D1,D2,D3,N1,N2,H1,M1,U1,U2,U3,N3,P1,R1,W1"
let scan_rules = "S1,S2,S3,S4,S5"
let alloc_rules = "A1,A2,A3"

(* Returns (exit_code, output_lines), stderr included — the exit-2
   config errors print there. *)
let run args =
  let out = Filename.temp_file "pertlint" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove out;
  (code, lines)

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tagged rule lines =
  List.filter (fun l -> contains_sub l (Printf.sprintf "[%s]" rule)) lines

(* A true positive: pertlint on [args] exits 1 with exactly one line
   carrying the rule tag, pinned to the documented location and
   containing every documented message fragment. *)
let fires ~rule ~args ~loc ~fragments () =
  let code, lines = run args in
  check_int (rule ^ " exit code") 1 code;
  match tagged rule lines with
  | [ line ] ->
      check_bool
        (Printf.sprintf "%s flagged at %s" rule loc)
        true
        (contains_sub line (loc ^ ":"));
      List.iter
        (fun frag ->
          check_bool
            (Printf.sprintf "%s diagnostic mentions %S" rule frag)
            true (contains_sub line frag))
        fragments
  | other ->
      Alcotest.failf "%s: expected exactly one [%s] line, got %d" rule rule
        (List.length other)

(* A true negative: the structurally-matched clean fixture produces no
   output at all and exits 0. *)
let silent ~modname ~args () =
  let code, lines = run args in
  check_int (modname ^ " exit code") 0 code;
  check_int (modname ^ " is clean") 0 (List.length lines)

(* [--rules] with a single id reports that rule whatever its family —
   the three rule families share one driver, so no family's default
   set can swallow another family's rule. *)
let single_rule_flags ~rule cmt () =
  let code, lines = run [ "--rules"; rule; cmt ] in
  check_int (Printf.sprintf "--rules %s exit code" rule) 1 code;
  check_bool
    (Printf.sprintf "--rules %s prints a [%s] line" rule rule)
    true
    (tagged rule lines <> [])

(* Exit-code contract for misdirected scopes: an empty directory (no
   .cmt at all) and a wrapper-only scope (a .cmt compiled from dune's
   generated .ml-gen, which is not a scannable implementation) are
   configuration errors — exit 2, never a clean 0 — whatever rules are
   selected by [args]. *)
let fresh_empty_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "pertlint_empty_scope"
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let empty_scope_is_an_error ~name ~args () =
  let code, lines = run (args @ [ fresh_empty_dir () ]) in
  check_int (name ^ " exit code on empty scope") 2 code;
  check_bool (name ^ " explains the empty scope") true
    (List.exists (fun l -> contains_sub l "no .cmt files") lines)

let wrapper_only_scope_is_an_error ~name ~args wrapper_cmt () =
  let code, lines = run (args @ [ wrapper_cmt ]) in
  check_int (name ^ " exit code on wrapper-only scope") 2 code;
  check_bool (name ^ " explains the unscannable scope") true
    (List.exists
       (fun l -> contains_sub l "none was a scannable implementation")
       lines)
