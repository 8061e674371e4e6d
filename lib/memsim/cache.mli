(** One level of set-associative cache with true-LRU replacement,
    write-back/write-allocate, and per-line fill times used to model
    in-flight software prefetches. *)

(** The fields are exposed for {!Hierarchy}'s simulation kernel, which
    probes, records hits, evicts and installs in place rather than
    through out-of-line calls, under the same LRU rule as {!insert};
    every other user goes through the functions below, and nothing
    outside this module creates or resizes. *)
type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;  (** [log2 line_bytes] *)
  set_mask : int;  (** [sets - 1] *)
  ways : int array;
      (** [sets * assoc] ways, set-major, four slots each: way [w] of set
          [s] starts at slot [i = 4 * (s * assoc + w)] and holds its tag
          at [i] ([-1] = invalid), its LRU stamp at [i + 1] (larger =
          more recent), the cycle its data arrives at [i + 2] and its
          dirty bit (0 or 1) at [i + 3] *)
  mutable tick : int;  (** LRU clock: bumped and stamped on every hit and insert *)
}

val create : Machine.cache -> t

(** Geometry echoes. *)
val sets : t -> int

val assoc : t -> int
val line_bytes : t -> int

(** Line number of a byte address at this level's line size. *)
val line_of_addr : t -> int -> int

(** [insert c ~ready ~dirty ~line] allocates [line], evicting the first
    invalid way, else the LRU way (earliest way on stamp ties).  Returns
    [true] when a dirty line was evicted (write-back traffic).  [ready]
    is the cycle at which the fill completes. *)
val insert : t -> ready:int -> dirty:bool -> line:int -> bool

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

(** [resident c ~line] is true when the line is present (no LRU update). *)
val resident : t -> line:int -> bool

val reset : t -> unit

(** Mark every resident line's fill as complete (used when counters are
    rewound between a warm-up pass and a measured pass, so stale future
    fill times cannot charge phantom stalls). *)
val settle : t -> unit

(** Number of resident lines (for tests). *)
val occupancy : t -> int
