(* GC time from the runtime's own event ring, read in-process through a
   Runtime_events cursor on this process. Only the outermost phases are
   summed: a minor collection ([EV_MINOR]) and a major slice
   ([EV_MAJOR_SLICE]). *)

module R = Runtime_events

let minor_ns = ref 0
let major_ns = ref 0
let minor_start = ref 0
let major_start = ref 0
let lost = ref 0
let cursor = ref None
let ts t = Int64.to_int (R.Timestamp.to_int64 t)

let callbacks =
  R.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      match phase with
      | R.EV_MINOR -> minor_start := ts t
      | R.EV_MAJOR_SLICE -> major_start := ts t
      | _ -> ())
    ~runtime_end:(fun _ t phase ->
      match phase with
      | R.EV_MINOR -> minor_ns := !minor_ns + (ts t - !minor_start)
      | R.EV_MAJOR_SLICE -> major_ns := !major_ns + (ts t - !major_start)
      | _ -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

(* Drain the ring; call often enough that it never wraps (once per
   slice is ample). *)
let poll () =
  match !cursor with
  | Some c -> ignore (R.read_poll c callbacks None)
  | None -> ()

let start () =
  (match !cursor with
  | None ->
      R.start ();
      cursor := Some (R.create_cursor None)
  | Some _ -> R.resume ());
  poll ();
  minor_ns := 0;
  major_ns := 0;
  lost := 0

let stop () =
  poll ();
  R.pause ()
