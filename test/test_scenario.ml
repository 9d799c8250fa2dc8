(* Tests for the scenario description language. *)

module Scenario = Experiments.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let chain_source =
  {|
# three-node chain
node a
node r
node b
duplex a r bw=100M delay=1ms queue=droptail:10000
duplex r b bw=10M delay=10ms queue=droptail:100
flow a b cc=pert
flow a b cc=newreno start=2 total=500
seed 7
run 20
|}

let parse_ok () =
  match Scenario.parse chain_source with
  | Error e -> Alcotest.fail e
  | Ok _ -> ()

let runs_and_reports () =
  match Scenario.parse_and_run chain_source with
  | Error e -> Alcotest.fail e
  | Ok report ->
      Alcotest.(check (float 1e-9)) "duration" 20.0 report.Scenario.duration;
      check_int "two flows" 2 (List.length report.Scenario.flows);
      check_int "four links" 4 (List.length report.Scenario.links);
      (* the long-lived PERT flow gets most of the 10 Mbps bottleneck *)
      (match report.Scenario.flows with
      | (label1, goodput1) :: _ ->
          check_bool "labelled" true
            (String.length label1 > 0 && label1.[0] = 'f');
          check_bool "pert flow used the pipe" true (Units.Rate.to_bps goodput1 > 3e6)
      | [] -> Alcotest.fail "no flows");
      (* the bottleneck link (r->b) is well utilised *)
      let _, util, _, _ =
        List.find (fun (n, _, _, _) -> n = "r->b") report.Scenario.links
      in
      check_bool "bottleneck utilised" true (util > 0.7)

let finite_flow_completes () =
  let src =
    {|
node a
node b
duplex a b bw=10M delay=5ms queue=droptail:1000
flow a b cc=newreno total=100
run 10
|}
  in
  match Scenario.parse_and_run src with
  | Error e -> Alcotest.fail e
  | Ok report ->
      let _, goodput = List.hd report.Scenario.flows in
      (* 100 MSS over 10 s of report window *)
      Alcotest.(check (float 1e3)) "goodput of finished transfer"
        (100.0 *. 8000.0 /. 10.0)
        (Units.Rate.to_bps goodput)

let all_queue_kinds_accepted () =
  List.iter
    (fun kind ->
      let src =
        Printf.sprintf
          {|
node a
node b
link a b bw=10M delay=5ms queue=%s:100
link b a bw=10M delay=5ms queue=droptail:100
flow a b cc=newreno %s
run 5
|}
          kind
          (if kind = "droptail" then "" else "ecn")
      in
      match Scenario.parse_and_run src with
      | Error e -> Alcotest.fail (kind ^ ": " ^ e)
      | Ok report ->
          let _, goodput = List.hd report.Scenario.flows in
          check_bool (kind ^ " carries traffic") true
            (Units.Rate.to_bps goodput > 1e5))
    [ "droptail"; "red"; "pi"; "rem"; "avq" ]

let all_cc_kinds_accepted () =
  List.iter
    (fun cc ->
      let src =
        Printf.sprintf
          {|
node a
node b
duplex a b bw=10M delay=5ms queue=droptail:200
flow a b cc=%s
run 5
|}
          cc
      in
      match Scenario.parse_and_run src with
      | Error e -> Alcotest.fail (cc ^ ": " ^ e)
      | Ok report ->
          let _, goodput = List.hd report.Scenario.flows in
          check_bool (cc ^ " carries traffic") true
            (Units.Rate.to_bps goodput > 1e6))
    [ "newreno"; "vegas"; "pert"; "pert-pi"; "pert-rem"; "pert-avq" ]

let web_and_cbr_directives () =
  let src =
    {|
node a
node b
duplex a b bw=10M delay=5ms queue=droptail:200
web a b sessions=5
cbr a b rate=2M start=1 stop=3
run 6
|}
  in
  match Scenario.parse_and_run src with
  | Error e -> Alcotest.fail e
  | Ok report ->
      let _, util, _, _ = List.hd report.Scenario.links in
      check_bool "background traffic flowed" true (util > 0.05)

let error_cases () =
  let expect_error src frag =
    match Scenario.parse src with
    | Ok _ -> Alcotest.fail ("expected parse error mentioning " ^ frag)
    | Error e ->
        let has_sub sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        check_bool (frag ^ " in: " ^ e) true (has_sub frag e)
  in
  expect_error "node a\nrun 5" "no links";
  expect_error "node a\nnode a\nrun 5" "duplicate node";
  expect_error "node a\nlink a b bw=1M delay=1ms queue=droptail:10\nrun 5"
    "unknown node";
  expect_error "node a\nnode b\nlink a b bw=1M delay=1ms queue=magic:10\nrun 5"
    "unknown queue kind";
  expect_error "node a\nnode b\nduplex a b bw=1M delay=1ms queue=droptail:10"
    "missing `run";
  expect_error
    "node a\nnode b\nduplex a b bw=1M delay=1ms queue=droptail:10\nfrobnicate\nrun 5"
    "unknown directive";
  expect_error
    "node a\nnode b\nduplex a b bw=junk delay=1ms queue=droptail:10\nrun 5"
    "bad rate"

let units_parse () =
  let src =
    {|
node a
node b
duplex a b bw=2.5M delay=20ms queue=droptail:50
flow a b cc=newreno
run 1500ms
|}
  in
  match Scenario.parse_and_run src with
  | Error e -> Alcotest.fail e
  | Ok report ->
      Alcotest.(check (float 1e-9)) "ms horizon" 1.5 report.Scenario.duration

let suite =
  [
    ("parse ok", `Quick, parse_ok);
    ("runs and reports", `Quick, runs_and_reports);
    ("finite flow completes", `Quick, finite_flow_completes);
    ("all queue kinds", `Quick, all_queue_kinds_accepted);
    ("all cc kinds", `Quick, all_cc_kinds_accepted);
    ("web and cbr directives", `Quick, web_and_cbr_directives);
    ("error cases", `Quick, error_cases);
    ("units parse", `Quick, units_parse);
  ]
