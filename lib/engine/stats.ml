module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = if t.n = 0 then invalid_arg "Stats.Acc.min: empty" else t.min
  let max t = if t.n = 0 then invalid_arg "Stats.Acc.max: empty" else t.max
end

module Time_weighted = struct
  type t = {
    mutable window_start : float;
    mutable last_time : float;
    mutable last_value : float;
    mutable integral : float;
  }

  let create ~start ~value =
    { window_start = start; last_time = start; last_value = value; integral = 0.0 }

  let advance t now =
    if now < t.last_time then invalid_arg "Stats.Time_weighted: time went backwards";
    t.integral <- t.integral +. (t.last_value *. (now -. t.last_time));
    t.last_time <- now

  (* [value] is an int (its one caller samples a queue length): a float
     argument would box at every call. *)
  let update t ~now ~value =
    advance t now;
    t.last_value <- float_of_int value

  let average t ~now =
    let span = now -. t.window_start in
    if span <= 0.0 then t.last_value
    else
      let tail = t.last_value *. (now -. t.last_time) in
      (t.integral +. tail) /. span

  let reset t ~now =
    advance t now;
    t.window_start <- now;
    t.integral <- 0.0
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    counts : int array;
    mutable total : int;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 || hi <= lo then invalid_arg "Stats.Histogram.create";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let raw = Units.Round.trunc (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo)) in
    let i = if raw < 0 then 0 else if raw >= bins then bins - 1 else raw in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let total t = t.total
  let counts t = Array.copy t.counts

  let pdf t =
    if t.total = 0 then Array.make (Array.length t.counts) 0.0
    else Array.map (fun c -> float_of_int c /. float_of_int t.total) t.counts

  let bin_center t i =
    let bins = float_of_int (Array.length t.counts) in
    t.lo +. ((float_of_int i +. 0.5) *. (t.hi -. t.lo) /. bins)
end

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let sum_sq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if Float.equal sum_sq 0.0 then 1.0
    else sum *. sum /. (float_of_int n *. sum_sq)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = Units.Round.ceil (p *. float_of_int n) - 1 in
  let rank = if rank < 0 then 0 else if rank >= n then n - 1 else rank in
  sorted.(rank)
