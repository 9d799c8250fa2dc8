(** Network packets, stored in a flat arena.

    A packet is an [int] handle into an {!arena} — preallocated
    struct-of-arrays storage with int fields in one plane and float
    timestamps in a [floatarray] plane. Creating, copying and freeing a
    packet never allocates on the OCaml heap (free-list reuse), which is
    what keeps the Link/Queue_disc/Node churn path allocation-free.

    Every accessor takes the owning arena; handles from different arenas
    must not be mixed. A handle is only meaningful between its
    constructor and the matching {!free} — the component that consumes a
    packet (the receiving {!Node}, a dropping {!Link}, a wire fault)
    frees it, and anyone needing data past that point must copy the
    fields out (or {!copy} the packet) first.

    Data packets carry one MSS of payload and a sequence number in packet
    units. ACKs carry the cumulative acknowledgement, up to three SACK
    blocks, an ECN echo bit, a timestamp echo used by the sender for RTT
    sampling, and the raw 16-bit receive-window advertisement. Window
    probes are the 1-byte segments a sender in zero-window persist mode
    emits (RFC 6429); RSTs carry only a sequence number and are subject
    to RFC 5961 validation at the endpoint. *)

type t = private int
(** A packet handle. [private int] so queues can store handles in plain
    unboxed arrays; construct only through this module. *)

val none : t
(** Sentinel for "no packet" (never live); used as queue-slot filler. *)

val unsafe_of_int : int -> t
(** [unsafe_of_int i] rebuilds a handle from its integer image
    [(pkt :> int)] — the inverse of the coercion that stores a packet in
    an int plane (the link's delivery pipe) or in {!Event.define2}'s
    unboxed slot. No validation: only feed back integers obtained from
    the coercion, with the packet still live in the same arena. *)

type kind = Data | Ack | Probe | Rst

type arena
(** Owns the storage and the id space of its packets. One per
    {!Topology} (created there); tests may create their own. *)

val create_arena : ?capacity:int -> unit -> arena
(** [create_arena ()] preallocates [capacity] (default 1024) packet
    slots; the arena doubles transparently when the live population
    outgrows it. *)

val live : arena -> int
(** Packets currently allocated and not yet freed — the leak/conservation
    check used by tests. *)

val capacity : arena -> int
(** Current slot capacity (grows by doubling, never shrinks). *)

val mss : int
(** Data packet payload size used throughout: 1000 bytes. *)

val header_size : int
(** Bytes of header; ACKs and RSTs are [header_size] long. 40 bytes. *)

val data_size : int
(** [mss + header_size]. *)

(** {2 Constructors}

    Ids are drawn from the arena: unique and deterministic per arena.
    All constructors are allocation-free. *)

val data :
  arena -> flow:int -> src:int -> dst:int -> seq:int -> ecn:bool ->
  ?retransmit:bool -> now:float -> unit -> t

val ack :
  arena -> flow:int -> src:int -> dst:int -> ack:int ->
  sack:(int * int) list -> ecn_echo:bool -> ts_echo:float -> window:int ->
  now:float -> unit -> t
(** Only the first 3 [sack] blocks are carried, as on the wire. *)

val probe : arena -> flow:int -> src:int -> dst:int -> seq:int -> now:float ->
  unit -> t

val rst : arena -> flow:int -> src:int -> dst:int -> seq:int -> now:float ->
  unit -> t

(** {2 Accessors} *)

val kind : arena -> t -> kind

val id : arena -> t -> int
(** Unique per arena; preserved by {!copy} (a duplicate of the same
    wire packet). *)

val flow : arena -> t -> int
val src : arena -> t -> int
val dst : arena -> t -> int
val size : arena -> t -> int

val seq : arena -> t -> int
(** Sequence number of a [Data]/[Probe]/[Rst] packet; the cumulative
    acknowledgement of an [Ack]. *)

val window : arena -> t -> int
(** Raw 16-bit receive-window field of an [Ack]; interpret through the
    flow's negotiated {!Tcpstack.Tcp_window.Scale}. *)

val sack : arena -> t -> (int * int) list
(** The ACK's SACK blocks [(first, last_exclusive)], most recent first.
    Materializes a fresh list: endpoint read path only. *)

val ecn_capable : arena -> t -> bool
val ecn_marked : arena -> t -> bool
(** Set by an AQM queue (CE codepoint). *)

val ecn_echo : arena -> t -> bool
(** Congestion-experienced echo (ECE) on an [Ack]. *)

val retransmit : arena -> t -> bool
val corrupted : arena -> t -> bool
(** Header/payload bits flipped in flight ({!Fault}); endpoints must
    discard such segments at a checksum-style validity gate. *)

val sent_at : arena -> t -> float
(** Time the packet entered the network. *)

val ts_echo : arena -> t -> float
(** Send timestamp echoed by an [Ack]; NaN on pure ACKs so they never
    produce an RTT sample. *)

(** {2 Mutators} — the bits on-path elements may touch in flight. *)

val set_ecn_marked : arena -> t -> bool -> unit
val set_corrupted : arena -> t -> bool -> unit

val set_window : arena -> t -> int -> unit
(** On-path window rewrite (clamp attack, {!Fault}). *)

(** {2 Lifetime} *)

val free : arena -> t -> unit
(** Return the packet's slot to the free list. Raises [Invalid_argument]
    on a handle that is not live — a double free is always a bug in
    ownership, and the check keeps it deterministic instead of silently
    aliasing a recycled slot. *)

val copy : arena -> t -> t
(** A live duplicate with identical fields (including id — it is the
    same wire packet twice, as after {!Fault} duplication). The copy has
    its own slot and its own lifetime. *)

val is_live : arena -> t -> bool
(** Whether the handle currently designates an allocated packet. For
    tests and assertions; [is_live a none = false]. *)
