(** One level of set-associative cache with true-LRU replacement,
    write-back/write-allocate, and per-line fill times used to model
    in-flight software prefetches. *)

(** The fields are exposed for {!Hierarchy}'s replay kernel, which
    probes the L1 and records a hit (LRU tick, stamp, dirty bit) in
    place rather than through an out-of-line call; everything else goes
    through the functions below, and nothing outside this module
    creates, resizes or evicts. *)
type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;  (** [log2 line_bytes] *)
  set_mask : int;  (** [sets - 1] *)
  tags : int array;  (** [sets * assoc] ways, set-major; [-1] = invalid *)
  stamps : int array;  (** LRU stamp per way: larger = more recent *)
  fills : int array;  (** cycle at which the way's data arrives *)
  dirty : bool array;
  mutable tick : int;  (** LRU clock: bumped and stamped on every hit and insert *)
}

val create : Machine.cache -> t

(** Geometry echoes. *)
val sets : t -> int

val assoc : t -> int
val line_bytes : t -> int

(** Line number of a byte address at this level's line size. *)
val line_of_addr : t -> int -> int

(** [insert c ~now ~ready ~dirty ~line] allocates [line], evicting the
    LRU way.  Returns [true] when a dirty line was evicted (write-back
    traffic).  [ready] is the cycle at which the fill completes. *)
val insert : t -> now:int -> ready:int -> dirty:bool -> line:int -> bool

(** Mark a resident line dirty (no-op when absent). *)
val set_dirty : t -> line:int -> unit

(** Sentinel returned by {!access} on a miss. *)
val absent : int

(** [access c ~line ~write] probes for [line].  On a hit it updates
    LRU state, marks the line dirty when [write], and returns the cycle
    at which the line's data is ready; on a miss it returns {!absent}
    and changes nothing (the caller is expected to {!insert} with the
    right dirty bit).  [~write:false] is the plain read probe.  Does not
    allocate. *)
val access : t -> line:int -> write:bool -> int

(** [find_way tags ~line i stop] is the index of [line] among the ways
    [tags.(i .. stop-1)] of one set, or [-1].  The replay kernel probes
    ways 0 and 1 inline and calls this for the rest.  Does not
    allocate. *)
val find_way : int array -> line:int -> int -> int -> int

(** [resident c ~line] is true when the line is present (no LRU update). *)
val resident : t -> line:int -> bool

val reset : t -> unit

(** Mark every resident line's fill as complete (used when counters are
    rewound between a warm-up pass and a measured pass, so stale future
    fill times cannot charge phantom stalls). *)
val settle : t -> unit

(** Number of resident lines (for tests). *)
val occupancy : t -> int
