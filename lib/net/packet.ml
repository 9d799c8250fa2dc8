(* Flat packet arena: a packet is an [int] handle into preallocated
   struct-of-arrays storage. The hot path (Link/Queue_disc/Node churn)
   allocates nothing per packet — [alloc]/[free] are a free-list pop and
   push over int stores, and every field access is an array read at a
   fixed offset. Float fields (timestamps) live in their own
   [floatarray] plane so no store ever boxes (pertalloc rule A2). *)

type t = int

let none = -1
let unsafe_of_int (i : int) : t = i

type kind = Data | Ack | Probe | Rst

let mss = 1000
let header_size = 40
let data_size = mss + header_size
let probe_size = header_size + 1

(* Int plane: [stride] words per packet, addressed as
   [(handle lsl stride_shift) + field]. *)
let stride_shift = 4
let stride = 16
let o_id = 0
let o_flow = 1
let o_src = 2
let o_dst = 3
let o_size = 4
let o_flags = 5

(* [o_seq] holds the sequence number of Data/Probe/Rst packets and the
   cumulative acknowledgement of Ack packets — a packet is exactly one
   kind, so the two never coexist. *)
let o_seq = 6
let o_window = 7
let o_sack_n = 8
let o_sack = 9 (* 3 blocks x (first, last_exclusive): offsets 9..14 *)

(* Float plane: 2 slots per packet. *)
let fstride_shift = 1
let fo_sent_at = 0
let fo_ts_echo = 1

(* Flags word: kind in the low 2 bits, then one bit per boolean. *)
let kind_mask = 3
let k_data = 0
let k_ack = 1
let k_probe = 2
let k_rst = 3
let f_ecn_capable = 4
let f_ecn_marked = 8
let f_retransmit = 16
let f_corrupted = 32
let f_live = 64
let f_ecn_echo = 128

type arena = {
  mutable ints : int array;
  mutable floats : floatarray;
  mutable cap : int;  (* capacity in packet slots *)
  mutable free_head : int;  (* free-list threaded through [o_id]; -1 = end *)
  mutable high : int;  (* slots ever handed out; fresh slots come from here *)
  mutable live : int;
  mutable next_id : int;
}

let create_arena ?(capacity = 1024) () =
  if capacity <= 0 then
    invalid_arg "Packet.create_arena: capacity must be positive";
  {
    ints = Array.make (capacity * stride) 0;
    floats = Float.Array.make (capacity lsl fstride_shift) 0.0;
    cap = capacity;
    free_head = -1;
    high = 0;
    live = 0;
    next_id = 0;
  }

let live a = a.live
let capacity a = a.cap

(* [@lint.allow "A1"]: doubling amortises the fresh planes to O(1) words
   per packet, and an arena at its steady-state population never grows
   again. *)
let[@lint.allow "A1"] grow a =
  let cap' = 2 * a.cap in
  let ints = Array.make (cap' * stride) 0 in
  Array.blit a.ints 0 ints 0 (a.cap * stride);
  let floats = Float.Array.make (cap' lsl fstride_shift) 0.0 in
  Float.Array.blit a.floats 0 floats 0 (a.cap lsl fstride_shift);
  a.ints <- ints;
  a.floats <- floats;
  a.cap <- cap'

let[@alloc.zero] alloc_slot a =
  if a.free_head >= 0 then begin
    let h = a.free_head in
    a.free_head <- Array.unsafe_get a.ints ((h lsl stride_shift) + o_id);
    h
  end
  else begin
    if a.high = a.cap then grow a;
    let h = a.high in
    a.high <- h + 1;
    h
  end

(* Shared constructor body. [seq] doubles as the ack number for Ack
   packets (see [o_seq]); sack blocks are zeroed and filled by [ack]. *)
let[@alloc.zero] mk a ~flow ~src ~dst ~size ~flags ~seq ~window ~now ~ts_echo =
  let h = alloc_slot a in
  let base = h lsl stride_shift in
  let ints = a.ints in
  let id = a.next_id in
  a.next_id <- id + 1;
  Array.unsafe_set ints (base + o_id) id;
  Array.unsafe_set ints (base + o_flow) flow;
  Array.unsafe_set ints (base + o_src) src;
  Array.unsafe_set ints (base + o_dst) dst;
  Array.unsafe_set ints (base + o_size) size;
  Array.unsafe_set ints (base + o_flags) (flags lor f_live);
  Array.unsafe_set ints (base + o_seq) seq;
  Array.unsafe_set ints (base + o_window) window;
  Array.unsafe_set ints (base + o_sack_n) 0;
  let fbase = h lsl fstride_shift in
  Float.Array.unsafe_set a.floats (fbase + fo_sent_at) now;
  Float.Array.unsafe_set a.floats (fbase + fo_ts_echo) ts_echo;
  a.live <- a.live + 1;
  h

let[@alloc.zero] data a ~flow ~src ~dst ~seq ~ecn ?(retransmit = false) ~now ()
    =
  let flags =
    k_data
    lor (if ecn then f_ecn_capable else 0)
    lor if retransmit then f_retransmit else 0
  in
  mk a ~flow ~src ~dst ~size:data_size ~flags ~seq ~window:0 ~now ~ts_echo:0.0

(* Copies up to 3 sack blocks into the flat slots; any further blocks are
   dropped, as on the wire (the SACK option holds at most 3-4 blocks). *)
let rec store_sack ints base i = function
  | (lo, hi) :: rest when i < 3 ->
      ints.(base + o_sack + (2 * i)) <- lo;
      ints.(base + o_sack + (2 * i) + 1) <- hi;
      store_sack ints base (i + 1) rest
  | _ -> ints.(base + o_sack_n) <- i

let[@alloc.zero] ack a ~flow ~src ~dst ~ack ~sack ~ecn_echo ~ts_echo ~window
    ~now () =
  let flags = k_ack lor if ecn_echo then f_ecn_echo else 0 in
  let h =
    mk a ~flow ~src ~dst ~size:header_size ~flags ~seq:ack ~window ~now
      ~ts_echo
  in
  store_sack a.ints (h lsl stride_shift) 0 sack;
  h

let[@alloc.zero] probe a ~flow ~src ~dst ~seq ~now () =
  mk a ~flow ~src ~dst ~size:probe_size ~flags:k_probe ~seq ~window:0 ~now
    ~ts_echo:0.0

let[@alloc.zero] rst a ~flow ~src ~dst ~seq ~now () =
  mk a ~flow ~src ~dst ~size:header_size ~flags:k_rst ~seq ~window:0 ~now
    ~ts_echo:0.0

(* --- accessors ---------------------------------------------------------- *)

let[@inline] field a h o = Array.unsafe_get a.ints ((h lsl stride_shift) + o)
let[@inline] id a h = field a h o_id
let[@inline] flow a h = field a h o_flow
let[@inline] src a h = field a h o_src
let[@inline] dst a h = field a h o_dst
let[@inline] size a h = field a h o_size
let[@inline] seq a h = field a h o_seq
let[@inline] window a h = field a h o_window
let[@inline] flags a h = field a h o_flags

let[@inline] kind a h =
  match flags a h land kind_mask with
  | 0 -> Data
  | 1 -> Ack
  | 2 -> Probe
  | _ -> Rst

let[@inline] ecn_capable a h = flags a h land f_ecn_capable <> 0
let[@inline] ecn_marked a h = flags a h land f_ecn_marked <> 0
let[@inline] retransmit a h = flags a h land f_retransmit <> 0
let[@inline] corrupted a h = flags a h land f_corrupted <> 0
let[@inline] ecn_echo a h = flags a h land f_ecn_echo <> 0
let[@inline] is_live a h = h >= 0 && h < a.high && flags a h land f_live <> 0

let[@inline] ffield a h o =
  Float.Array.unsafe_get a.floats ((h lsl fstride_shift) + o)

let[@inline] sent_at a h = ffield a h fo_sent_at
let[@inline] ts_echo a h = ffield a h fo_ts_echo

let sack a h =
  let base = h lsl stride_shift in
  let ints = a.ints in
  let n = ints.(base + o_sack_n) in
  (* Most ACKs carry no block: answer them without building [go]. *)
  if n = 0 then []
  else
    let rec go i acc =
      if i < 0 then acc
      else
        go (i - 1)
          ((ints.(base + o_sack + (2 * i)), ints.(base + o_sack + (2 * i) + 1))
          :: acc)
    in
    go (n - 1) []

(* --- mutators ----------------------------------------------------------- *)

let[@inline] set_flag a h bit on =
  let base = h lsl stride_shift in
  let ints = a.ints in
  let w = Array.unsafe_get ints (base + o_flags) in
  Array.unsafe_set ints (base + o_flags)
    (if on then w lor bit else w land lnot bit)

let[@inline] set_ecn_marked a h on = set_flag a h f_ecn_marked on
let[@inline] set_corrupted a h on = set_flag a h f_corrupted on

let[@inline] set_window a h w =
  Array.unsafe_set a.ints ((h lsl stride_shift) + o_window) w

(* --- lifetime ----------------------------------------------------------- *)

let[@alloc.zero] free a h =
  if h < 0 || h >= a.high then invalid_arg "Packet.free: not a packet handle";
  let base = h lsl stride_shift in
  if Array.unsafe_get a.ints (base + o_flags) land f_live = 0 then
    invalid_arg "Packet.free: packet already freed (double free)";
  Array.unsafe_set a.ints (base + o_flags) 0;
  Array.unsafe_set a.ints (base + o_id) a.free_head;
  a.free_head <- h;
  a.live <- a.live - 1

let[@alloc.zero] copy a h =
  if not (is_live a h) then invalid_arg "Packet.copy: not a live packet";
  let h' = alloc_slot a in
  (* [alloc_slot] may have grown (and replaced) the planes: read the
     source block only afterwards. *)
  let base = h lsl stride_shift and base' = h' lsl stride_shift in
  Array.blit a.ints base a.ints base' stride;
  let fbase = h lsl fstride_shift and fbase' = h' lsl fstride_shift in
  Float.Array.blit a.floats fbase a.floats fbase' (1 lsl fstride_shift);
  a.live <- a.live + 1;
  h'
