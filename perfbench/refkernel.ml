(* Host-speed reference kernel.

   On a shared virtual machine the same simulation can run 20-40 % slower
   from one repetition to the next, and drift further over minutes. Two
   causes were seen on the reference host: whatever runs on the sibling
   hyperthread of our core (a spinning process there slowed the simulator
   by 25 %), and contention for the shared cache and memory. Raw wall
   time then measures the host as much as the code. The benchmark
   therefore runs this fixed kernel at every slice boundary and scales
   each slice's raw time by a host factor computed from the kernels on
   either side of it.

   The kernel shares no code with the simulator and never allocates: its
   tables live in Bigarrays outside the OCaml heap (so they do not count
   towards the heap peak either) and its loops keep their state in
   registers. It has three parts, each sensitive to one of the causes:
   - [ilp]: four independent xorshift chains, which need the core's
     execution ports the way the simulator's instruction mix does and so
     lose them to a busy sibling hyperthread (a single chain, tried first,
     barely noticed a sibling that slowed the simulator by 25 %);
   - [stream]: two sequential store passes over a 2 MiB table — the
     write traffic of the simulator's allocation (about 14 words per
     event);
   - [scatter]: random read-modify-write over an 8 MiB table, larger than
     a core's L2 — the simulator's pointer chasing through a heap of
     megabytes.

   The simulator is more sensitive to contention than the kernel: when
   the kernel slows by x %, the simulator slows by about 1.5 x %. The
   host factor therefore raises the kernel's speed ratio to [exponent].
   Parts and exponent were chosen on scratch runs (one process per seed,
   3-5 repetitions): the spread of raw run time over seeds (quartile
   distance over median) was 7 % on pert-quick and 13-19 % on
   pert-paper; normalised as here it was 4 % and 1-3 %. On red-web, in a
   noisy hour, neither raw nor normalised time did better than 13 %. *)

open Bigarray

type table = (int, int_elt, c_layout) Array1.t

let scatter_table : table =
  let t = Array1.create int c_layout (1 lsl 20) in
  Array1.fill t 1;
  t

let stream_table : table =
  let t = Array1.create int c_layout (1 lsl 18) in
  Array1.fill t 0;
  t

let ilp n =
  let a = ref 88172645463325252 and b = ref 1234567891011 in
  let c = ref 987654321987 and d = ref 55555555555 in
  for _ = 1 to n do
    a := !a lxor (!a lsl 13);
    b := !b lxor (!b lsl 13);
    c := !c lxor (!c lsl 13);
    d := !d lxor (!d lsl 13);
    a := !a lxor (!a lsr 7);
    b := !b lxor (!b lsr 7);
    c := !c lxor (!c lsr 7);
    d := !d lxor (!d lsr 7);
    a := !a lxor (!a lsl 17);
    b := !b lxor (!b lsl 17);
    c := !c lxor (!c lsl 17);
    d := !d lxor (!d lsl 17)
  done;
  !a + !b + !c + !d

let stream passes =
  let t = stream_table in
  let m = Array1.dim t in
  for r = 1 to passes do
    for i = 0 to m - 1 do
      Array1.unsafe_set t i (i + r)
    done
  done;
  Array1.unsafe_get t (m - 1)

let scatter n =
  let t = scatter_table in
  let mask = Array1.dim t - 1 in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land mask in
    acc := !acc + Array1.unsafe_get t i;
    Array1.unsafe_set t i (!acc land 7)
  done;
  !acc

(* Each part's time on the reference host (2 vCPU Xeon guest, OCaml
   5.1.1), measured right after a slice of simulation as the benchmark
   runs it. They fix the scale of every host-normalised number, so they
   are set once with the benchmark and never retuned. *)
let nominal_ilp_ns = 740_000
let nominal_stream_ns = 630_000
let nominal_scatter_ns = 1_270_000
let exponent = 1.5

let time_ns f n =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (f n));
  Clock.now_ns () - t0

(* One kernel run, as a score in nanoseconds: each part weighs the same
   relative to its nominal time, and the score is [nominal_score] on a
   host running at nominal speed. *)
let nominal_score = 3 * nominal_scatter_ns

let measure_ns () =
  let i = time_ns ilp 100_000 in
  let w = time_ns stream 2 in
  let s = time_ns scatter 60_000 in
  s + (i * nominal_scatter_ns / nominal_ilp_ns) + (w * nominal_scatter_ns / nominal_stream_ns)

(* Host factor for an interval bracketed by kernel scores [k0] and [k1]:
   multiply raw seconds by it to get host-normalised seconds. *)
let factor k0 k1 =
  (float_of_int (2 * nominal_score) /. float_of_int (k0 + k1)) ** exponent
