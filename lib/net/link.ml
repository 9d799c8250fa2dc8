module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module Stats = Sim_engine.Stats
module Fvec = Sim_engine.Fvec
module Time = Units.Time
module Rate = Units.Rate

type event = Enqueue | Dequeue | Receive | Drop
type service = Eager | Batched

(* The link's float state lives in a [floatarray] plane: as mutable
   float fields of the mixed record below every store would box
   (pertalloc rule A2), and reading a plane slot costs no call. *)
let b_sched_free = 0 (* finish time of the last materialized transmission *)
let b_restart = 1 (* head restarts here after idle/outage, if > sched_free *)
let b_anchor = 2 (* earliest pending anchor event; infinity = none *)
let b_bps = 3 (* bandwidth, bits/s *)
let b_delay = 4 (* propagation delay, s *)
let b_jitter = 5 (* jitter bound, s; 0 = none *)
let b_due = 6 (* delivery instant staged for [pipe_push] *)
let b_slots = 7

type t = {
  sim : Sim.t;
  name : string;
  arena : Packet.arena;
  service : service;
  jitter_rng : Sim_engine.Rng.t;
  disc : Queue_disc.t;
  mutable deliver : Packet.t -> unit;
  mutable event_hook : (now:float -> event -> Packet.t -> unit) option;
  mutable busy : bool;  (* eager mode *)
  mutable up : bool;
  (* Preallocated transmission-complete machinery (eager mode): [tx_done]
     is built once at create and rescheduled for every packet, instead of
     allocating an event per transmission; the packet in flight on
     the bottleneck server travels through [tx_pkt]. *)
  mutable tx_pkt : Packet.t;  (* meaningful only while [busy] *)
  mutable tx_done : Event.t;
  (* Preallocated batched-mode anchor event (see [arm_anchor]). *)
  mutable anchor_ev : Event.t;
  bs : floatarray;
  (* The delivery pipe (see [pipe_push]): a ring of packets on the wire,
     one plane per field, in (due, seq) order from [p_head]. Capacity is
     0 or a power of two. *)
  mutable p_pkt : int array;
  mutable p_seq : int array;
  mutable p_due : floatarray;
  mutable p_armed : Bytes.t;  (* '\001' = has a pending event *)
  mutable p_head : int;
  mutable p_len : int;
  (* Preallocated delivery event, shared by every armed pipe entry. *)
  mutable pipe_ev : Event.t;
  (* lifetime accounting (never reset): conservation invariant *)
  mutable life_arrivals : int;
  mutable life_drops : int;
  mutable delivered : int;
  mutable in_flight : int;  (* dequeued, not yet handed to [deliver] *)
  mutable outage_drops : int;
  (* measurement (reset at window boundaries) *)
  mutable arrivals : int;
  mutable drops : int;
  mutable marks : int;
  mutable bytes_sent : int;
  mutable window_start : float;
  mutable qmax : int;
  qavg : Stats.Time_weighted.t;
  mutable drop_trace : Fvec.t option;
  mutable queue_trace : (Fvec.t * Fvec.t) option;  (* times, lengths *)
}

(* Payload of the self-rescheduling queue-trace event kind: the sampled
   link plus the (per-enable, fixed) sampling interval. *)
type qtrace = { qt_link : t; qt_interval : Time.t }

let[@inline] sched_free t = Float.Array.unsafe_get t.bs b_sched_free
let[@inline] set_sched_free t v = Float.Array.unsafe_set t.bs b_sched_free v
let[@inline] restart_at t = Float.Array.unsafe_get t.bs b_restart
let[@inline] set_restart_at t v = Float.Array.unsafe_set t.bs b_restart v
let[@inline] anchor_next t = Float.Array.unsafe_get t.bs b_anchor
let[@inline] set_anchor_next t v = Float.Array.unsafe_set t.bs b_anchor v
let[@inline] bps t = Float.Array.unsafe_get t.bs b_bps
let[@inline] delay t = Float.Array.unsafe_get t.bs b_delay
let[@inline] jitter t = Float.Array.unsafe_get t.bs b_jitter
let[@inline] due t = Float.Array.unsafe_get t.bs b_due
let[@inline] set_due t v = Float.Array.unsafe_set t.bs b_due v

(* Serialisation time of [size] bytes: the float operations of
   [Units.Size.tx_time], whose boxed return would cost two words per
   packet at the (non-inlined) module boundary. *)
let[@inline] tx_seconds t size = float_of_int (8 * size) /. bps t

(* Start of the next unmaterialized transmission: back-to-back with the
   previous one, unless the server restarted later (idle, outage end). *)
let[@inline] next_start t = Float.max (sched_free t) (restart_at t)

let set_deliver t f = t.deliver <- f

let interpose_deliver t wrap =
  let inner = t.deliver in
  t.deliver <- wrap inner

let set_event_hook t f = t.event_hook <- Some f

(* [now] is the event's own time: in batched mode a Dequeue is emitted at
   catch-up, after the fact, carrying its historical service time. *)
let emit t ~now event pkt =
  match t.event_hook with
  (* A1: the hook is instrumentation (tests, experiment tracing), wired
     only on request; what it allocates is charged to its author. *)
  | Some f -> (f ~now event pkt [@lint.allow "A1"])
  | None -> ()

let name t = t.name
let sim t = t.sim
let disc t = t.disc
let arena t = t.arena
let service t = t.service

let note_queue_change t ~now =
  (* A1: discipline access goes through a function-typed field pertalloc
     cannot see into; every discipline's accessors are allocation-free. *)
  let len = (t.disc.Queue_disc.pkt_length () [@lint.allow "A1"]) in
  if len > t.qmax then t.qmax <- len;
  Stats.Time_weighted.update t.qavg ~now ~value:len

(* --- the delivery pipe ----------------------------------------------------

   Packets on the wire wait in the pipe until their delivery instant. A
   link without jitter delivers in FIFO order, so one pending event per
   busy link carries all the scheduler needs: the pipe keeps its entries
   in (due, seq) order and only the head has an event.

   Each entry's [seq] is reserved ({!Sim.reserve_seq}) when the packet
   goes on the wire, and the entry is scheduled ({!Sim.at_ev_seq}) under
   that seq once it reaches the head. Invariant: the head is armed, i.e.
   has one pending [pipe_ev] at its own key. The scheduler therefore
   pops the head's key before any other entry's, and the head is armed
   before any event keyed after it can pop, so every delivery runs at
   the (time, seq) position an event scheduled at push time would have
   had.

   Jitter lets a packet overtake: a push that lands at the head arms the
   new head while the old head, now second, keeps its pending event
   ([p_armed] records which entries have one). That event fires after
   the overtaker's, when its entry is the head again. *)

let[@inline] pipe_mask t = Array.length t.p_pkt - 1
let[@inline] pipe_slot t k = (t.p_head + k) land pipe_mask t

(* [@lint.allow "A1"]: doubling amortises the fresh planes to O(1) words
   per packet, and a pipe at its steady-state population never grows
   again. Entries are unrolled to start at slot 0. *)
let[@lint.allow "A1"] pipe_grow t =
  let cap = Array.length t.p_pkt in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let pkts = Array.make cap' 0 and seqs = Array.make cap' 0 in
  let dues = Float.Array.make cap' 0.0 and armed = Bytes.make cap' '\000' in
  for k = 0 to t.p_len - 1 do
    let i = pipe_slot t k in
    Array.unsafe_set pkts k (Array.unsafe_get t.p_pkt i);
    Array.unsafe_set seqs k (Array.unsafe_get t.p_seq i);
    Float.Array.unsafe_set dues k (Float.Array.unsafe_get t.p_due i);
    Bytes.unsafe_set armed k (Bytes.unsafe_get t.p_armed i)
  done;
  t.p_pkt <- pkts;
  t.p_seq <- seqs;
  t.p_due <- dues;
  t.p_armed <- armed;
  t.p_head <- 0

let[@inline] armed t i = Bytes.unsafe_get t.p_armed i <> '\000'

(* Schedule the delivery event for the entry in ring slot [i]. *)
let pipe_arm t i =
  Bytes.unsafe_set t.p_armed i '\001';
  Sim.at_ev_seq t.sim
    (Time.s (Float.Array.unsafe_get t.p_due i))
    ~seq:(Array.unsafe_get t.p_seq i) t.pipe_ev

(* Insertion from the tail: opens a hole at logical position [k] and
   moves it towards the head past every entry due strictly later than
   the staged instant. The new entry's seq is the newest, so it goes
   after entries due at the same instant. Without jitter nothing is
   ever due later, and the first test stops. *)
let rec pipe_sift t k =
  if k = 0 then k
  else
    let prev = pipe_slot t (k - 1) in
    if Float.Array.unsafe_get t.p_due prev > due t then begin
      let hole = pipe_slot t k in
      Array.unsafe_set t.p_pkt hole (Array.unsafe_get t.p_pkt prev);
      Array.unsafe_set t.p_seq hole (Array.unsafe_get t.p_seq prev);
      Float.Array.unsafe_set t.p_due hole (Float.Array.unsafe_get t.p_due prev);
      Bytes.unsafe_set t.p_armed hole (Bytes.unsafe_get t.p_armed prev);
      pipe_sift t (k - 1)
    end
    else k

(* Put [pkt] on the wire, due at the instant staged in [b_due] (a float
   argument would box at the call), under the freshly reserved [seq]. *)
let pipe_push t pkt seq =
  if t.p_len = Array.length t.p_pkt then pipe_grow t;
  let k = pipe_sift t t.p_len in
  let i = pipe_slot t k in
  Array.unsafe_set t.p_pkt i pkt;
  Array.unsafe_set t.p_seq i seq;
  Float.Array.unsafe_set t.p_due i (due t);
  Bytes.unsafe_set t.p_armed i '\000';
  t.p_len <- t.p_len + 1;
  if k = 0 then pipe_arm t i

(* Pipe audit: [None] when the entries are in (due, seq) order and the
   head is armed, else a diagnostic. *)
let pipe_error t =
  let rec unsorted k =
    if k >= t.p_len then None
    else
      let a = pipe_slot t (k - 1) and b = pipe_slot t k in
      let da = Float.Array.get t.p_due a and db = Float.Array.get t.p_due b in
      if da < db || (Float.equal da db && t.p_seq.(a) < t.p_seq.(b)) then
        unsorted (k + 1)
      else
        Some
          (Printf.sprintf
             "delivery pipe out of order at entry %d: (%.17g, %d) before \
              (%.17g, %d)"
             k da t.p_seq.(a) db t.p_seq.(b))
  in
  if t.p_len > 0 && not (armed t t.p_head) then
    Some "delivery pipe head has no pending event"
  else unsorted 1

(* --- batched service ----------------------------------------------------

   The eager server runs one tx-complete event per packet. The batched
   server instead *computes* transmission finish times (a work-conserving
   FIFO server is a virtual clock: finish = start + size/bandwidth,
   back-to-back) and materializes the dequeue bookkeeping lazily, in
   batches, whenever the link is next observed — an arrival, a delivery,
   a stats read, or the safety-net anchor event. Each materialized
   packet enters the delivery pipe (the receiver still reacts at the
   exact arrival instant), and the per-packet tx-complete event
   disappears; [Sim.charge_events] keeps the logical event count.

   Invariants:
   - packets are materialized in FIFO order, with historical timestamps
     (their true service start) fed to the discipline, the queue-length
     average and the event hook — every observer therefore sees the same
     chronological sequence as under the eager server;
   - a packet is materialized no later than any event that could observe
     its effects, and no later than its own delivery time: whenever
     unmaterialized work exists, an anchor event is armed at or before
     [next_start + delay], which precedes every unscheduled delivery
     ([finish + delay + jitter > next_start + delay]). *)

let rec catch_up t ~charge =
  match t.service with
  | Eager -> ()
  | Batched ->
      if t.up then begin
        let now = Sim.now t.sim in
        catch_loop t now ~charge;
        arm_anchor t
      end

and catch_loop t now ~charge =
  if (t.disc.Queue_disc.pkt_length () [@lint.allow "A1"]) > 0 then begin
    let start = next_start t in
    if start <= now then begin
      materialize_one t ~start ~charge;
      catch_loop t now ~charge
    end
  end

(* One transmission, reconstructed after the fact: dequeue at its true
   service start, account the bytes, and schedule the delivery. *)
and materialize_one t ~start ~charge =
  let pkt = (t.disc.Queue_disc.dequeue ~now:start [@lint.allow "A1"]) in
  note_queue_change t ~now:start;
  emit t ~now:start Dequeue pkt;
  t.busy <- true;
  t.in_flight <- t.in_flight + 1;
  let size = Packet.size t.arena pkt in
  t.bytes_sent <- t.bytes_sent + size;
  let finish = start +. tx_seconds t size in
  set_sched_free t finish;
  let extra =
    if jitter t > 0.0 then Sim_engine.Rng.float t.jitter_rng (jitter t)
    else 0.0
  in
  set_due t (finish +. delay t +. extra);
  pipe_push t (pkt :> int) (Sim.reserve_seq t.sim);
  (* The tx-complete event this materialization replaced, kept in the
     logical event count (budgets, events_executed). Not charged from
     stats accessors: reading a counter must never trip a budget. *)
  if charge then Sim.charge_events t.sim 1

(* Safety-net event: with no arrival or delivery to piggyback on, the
   next unmaterialized transmission must still be realized before its
   delivery falls due. Armed at [next_start + delay], which is always
   at or after now (the head's start is in the future once catch-up has
   drained everything startable) and at or before the head's delivery
   time. [b_anchor] tracks the earliest armed anchor so re-arming only
   schedules when it strictly helps; a superseded anchor fires as a
   harmless no-op catch-up. *)
and arm_anchor t =
  if (t.disc.Queue_disc.pkt_length () [@lint.allow "A1"]) > 0 then begin
    let a = next_start t +. delay t in
    if a < anchor_next t then begin
      set_anchor_next t a;
      Sim.at_ev t.sim (Time.s a) t.anchor_ev
    end
  end
  else t.busy <- sched_free t > Sim.now t.sim

let anchor_tick t =
  set_anchor_next t infinity;
  catch_up t ~charge:true

(* The pipe's delivery event: the head is the entry it was armed for
   (see the pipe invariant), so pop it, arm its successor unless that
   already has an event, and hand the packet over. *)
let[@alloc.zero] pipe_fire t =
  let i = t.p_head in
  let pkt = Packet.unsafe_of_int (Array.unsafe_get t.p_pkt i) in
  Bytes.unsafe_set t.p_armed i '\000';
  t.p_head <- (i + 1) land pipe_mask t;
  t.p_len <- t.p_len - 1;
  if t.p_len > 0 && not (armed t t.p_head) then
    pipe_arm t t.p_head;
  (* Earlier service starts are part of this instant's past: materialize
     them first so hooks observe events in chronological order. *)
  catch_up t ~charge:true;
  emit t ~now:(Sim.now t.sim) Receive pkt;
  t.in_flight <- t.in_flight - 1;
  t.delivered <- t.delivered + 1;
  (* A1: the receiver's callback (a node, or a fault layer wrapping
     one); its cost is charged where it is defined. *)
  (t.deliver pkt [@lint.allow "A1"])

(* --- eager service ------------------------------------------------------ *)

let[@alloc.zero] start_transmission t =
  if not t.up then t.busy <- false
  else
    match
      (* A1: function-typed field — each discipline's [dequeue] carries
         its own [@alloc.zero] contract. *)
      (t.disc.Queue_disc.dequeue ~now:(Sim.now t.sim) [@lint.allow "A1"])
    with
    | exception Queue_disc.Empty -> t.busy <- false
    | pkt ->
        let now = Sim.now t.sim in
        note_queue_change t ~now;
        emit t ~now Dequeue pkt;
        t.busy <- true;
        t.in_flight <- t.in_flight + 1;
        t.tx_pkt <- pkt;
        Sim.at_ev t.sim
          (Time.s (now +. tx_seconds t (Packet.size t.arena pkt)))
          t.tx_done

(* Runs when the head packet finishes serialising onto the wire.
   Propagation proceeds in parallel with the next transmission, through
   the same delivery pipe as the batched service; per-packet jitter may
   reorder deliveries. *)
let[@alloc.zero] tx_complete t =
  let pkt = t.tx_pkt in
  t.bytes_sent <- t.bytes_sent + Packet.size t.arena pkt;
  let extra =
    if jitter t > 0.0 then Sim_engine.Rng.float t.jitter_rng (jitter t)
    else 0.0
  in
  set_due t (Sim.now t.sim +. (delay t +. extra));
  pipe_push t (pkt :> int) (Sim.reserve_seq t.sim);
  start_transmission t

(* Preallocated event kinds for the per-link singleton events: built
   once per link at create, rescheduled forever after. *)
let tx_kind = Event.define ~name:"link.tx" tx_complete
let anchor_kind = Event.define ~name:"link.anchor" anchor_tick
let pipe_kind = Event.define ~name:"link.pipe" pipe_fire

(* Initial value of those fields while [create] builds the record they
   point back to. *)
let unwired = Event.define ~name:"link.unwired" ignore ()

(* --- arrivals ----------------------------------------------------------- *)

(* Consumes the packet: dropped means gone. Freed only after the hook and
   trace have seen it. *)
let drop t pkt =
  t.drops <- t.drops + 1;
  t.life_drops <- t.life_drops + 1;
  emit t ~now:(Sim.now t.sim) Drop pkt;
  (match t.drop_trace with Some v -> Fvec.push v (Sim.now t.sim) | None -> ());
  Packet.free t.arena pkt

let[@alloc.zero] send t pkt =
  t.arrivals <- t.arrivals + 1;
  t.life_arrivals <- t.life_arrivals + 1;
  if not t.up then begin
    (* Down links lose offered packets on the floor, like an unplugged
       cable; queued and in-flight packets are kept. *)
    t.outage_drops <- t.outage_drops + 1;
    drop t pkt
  end
  else begin
    (* Transmissions that finished before this arrival are part of its
       past: realize them before the discipline sees the new packet. *)
    catch_up t ~charge:true;
    let now = Sim.now t.sim in
    let was_empty = (t.disc.Queue_disc.pkt_length () [@lint.allow "A1"]) = 0 in
    let size = Packet.size t.arena pkt in
    let ecn = Packet.ecn_capable t.arena pkt in
    match
      (* A1: function-typed field, same contract as [dequeue] above. *)
      (t.disc.Queue_disc.enqueue ~now ~size ~ecn pkt [@lint.allow "A1"])
    with
    | Queue_disc.Reject -> drop t pkt
    | Queue_disc.Accept | Queue_disc.Accept_marked as v ->
        if v = Queue_disc.Accept_marked then begin
          Packet.set_ecn_marked t.arena pkt true;
          t.marks <- t.marks + 1
        end;
        emit t ~now Enqueue pkt;
        note_queue_change t ~now;
        (match t.service with
        | Eager -> if not t.busy then start_transmission t
        | Batched ->
            (* An empty-and-idle server starts this packet immediately;
               otherwise it queues behind the computed schedule. *)
            if was_empty && sched_free t <= now then set_restart_at t now;
            arm_anchor t)
  end

let create ?(jitter = Time.zero) ?(service = Batched) sim ~arena ~name
    ~bandwidth ~delay ~disc =
  if Rate.to_bps bandwidth <= 0.0 then
    invalid_arg "Link.create: bandwidth must be positive";
  if Time.to_s delay < 0.0 then invalid_arg "Link.create: negative delay";
  if Time.to_s jitter < 0.0 then invalid_arg "Link.create: negative jitter";
  let bs = Float.Array.make b_slots 0.0 in
  Float.Array.set bs b_anchor infinity;
  Float.Array.set bs b_bps (Rate.to_bps bandwidth);
  Float.Array.set bs b_delay (Time.to_s delay);
  Float.Array.set bs b_jitter (Time.to_s jitter);
  let t =
    {
      sim;
      name;
      arena;
      service;
      jitter_rng = Sim_engine.Rng.split (Sim.rng sim);
      disc;
      deliver = (fun _ -> invalid_arg "Link: deliver not wired");
      event_hook = None;
      busy = false;
      up = true;
      tx_pkt = Packet.none;
      (* placeholders: replaced with this link's preallocated events
         below, never scheduled *)
      tx_done = unwired;
      anchor_ev = unwired;
      bs;
      p_pkt = [||];
      p_seq = [||];
      p_due = Float.Array.create 0;
      p_armed = Bytes.empty;
      p_head = 0;
      p_len = 0;
      pipe_ev = unwired;
      life_arrivals = 0;
      life_drops = 0;
      delivered = 0;
      in_flight = 0;
      outage_drops = 0;
      arrivals = 0;
      drops = 0;
      marks = 0;
      bytes_sent = 0;
      window_start = Sim.now sim;
      qmax = 0;
      qavg = Stats.Time_weighted.create ~start:(Sim.now sim) ~value:0.0;
      drop_trace = None;
      queue_trace = None;
    }
  in
  t.tx_done <- tx_kind t;
  t.anchor_ev <- anchor_kind t;
  t.pipe_ev <- pipe_kind t;
  t

let set_up t up =
  if up && not t.up then begin
    t.up <- true;
    (* Resume draining whatever accumulated during the outage. *)
    match t.service with
    | Eager -> if not t.busy then start_transmission t
    | Batched ->
        if t.disc.Queue_disc.pkt_length () > 0 then begin
          set_restart_at t (Sim.now t.sim);
          arm_anchor t
        end
  end
  else if not up then begin
    (* Realize everything that started before the outage: packets
       mid-transmission still arrive (see .mli). *)
    catch_up t ~charge:true;
    t.up <- false
  end

let is_up t = t.up

let arrivals t = t.arrivals
let drops t = t.drops
let marks t = t.marks
let outage_drops t = t.outage_drops

(* Stats reads first realize pending transmissions so counters reflect
   everything up to [now]; uncharged — observation must not trip a
   budget. *)
let conservation_error t =
  catch_up t ~charge:false;
  let queued = t.disc.Queue_disc.pkt_length () in
  let accounted = t.life_drops + queued + t.in_flight + t.delivered in
  (* Every packet in flight is in the pipe, except the one an eager
     server is still serialising. *)
  let on_wire =
    t.in_flight - if t.service = Eager && t.busy then 1 else 0
  in
  if t.life_arrivals <> accounted then
    Some
      (Printf.sprintf
         "packet conservation violated: %d arrivals <> %d dropped + %d \
          queued + %d in flight + %d delivered"
         t.life_arrivals t.life_drops queued t.in_flight t.delivered)
  else if t.p_len <> on_wire then
    Some
      (Printf.sprintf
         "delivery pipe holds %d packets, %d expected on the wire" t.p_len
         on_wire)
  else pipe_error t

let avg_queue_pkts t =
  catch_up t ~charge:false;
  Units.Pkts.v (Stats.Time_weighted.average t.qavg ~now:(Sim.now t.sim))

let max_queue_pkts t =
  catch_up t ~charge:false;
  t.qmax

let utilization t =
  catch_up t ~charge:false;
  let span = Sim.now t.sim -. t.window_start in
  if span <= 0.0 then 0.0
  else float_of_int (8 * t.bytes_sent) /. (bps t *. span)

let drop_rate t =
  if t.arrivals = 0 then 0.0
  else float_of_int t.drops /. float_of_int t.arrivals

let reset_stats t =
  catch_up t ~charge:false;
  t.arrivals <- 0;
  t.drops <- 0;
  t.marks <- 0;
  t.bytes_sent <- 0;
  t.window_start <- Sim.now t.sim;
  t.qmax <- t.disc.Queue_disc.pkt_length ();
  Stats.Time_weighted.reset t.qavg ~now:(Sim.now t.sim)

let enable_drop_trace t =
  if t.drop_trace = None then t.drop_trace <- Some (Fvec.create ())

let drop_times t =
  match t.drop_trace with
  | Some v -> Fvec.to_array v
  | None -> invalid_arg "Link.drop_times: tracing not enabled"

(* Self-rescheduling sample tick, stop-aware via [Sim.stopped]: reads
   the trace vectors back out of the link so the payload stays plain
   data. *)
let queue_trace_kind =
  Event.define_rec ~name:"link.queue-trace" (fun self qt ->
      let t = qt.qt_link in
      catch_up t ~charge:true;
      (match t.queue_trace with
      | Some (times, lengths) ->
          Fvec.push times (Sim.now t.sim);
          Fvec.push lengths (float_of_int (t.disc.Queue_disc.pkt_length ()))
      | None -> ());
      if not (Sim.stopped t.sim) then
        Sim.after_ev t.sim qt.qt_interval (self qt))

let enable_queue_trace t ?(interval = Time.s 0.01) () =
  match t.queue_trace with
  | Some _ -> ()
  | None ->
      t.queue_trace <- Some (Fvec.create (), Fvec.create ());
      Sim.at_ev t.sim
        (Time.s (Sim.now t.sim))
        (queue_trace_kind { qt_link = t; qt_interval = interval })

let queue_at t time =
  let time = Time.to_s time in
  match t.queue_trace with
  | None -> invalid_arg "Link.queue_at: tracing not enabled"
  | Some (times, lengths) ->
      let i = Fvec.lower_bound times time in
      (* We want the last sample at or before [time]. *)
      let i =
        if i < Fvec.length times && Fvec.get times i <= time then i else i - 1
      in
      if i < 0 then 0.0 else Fvec.get lengths i
