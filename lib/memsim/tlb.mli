(** Translation lookaside buffer: fully associative with FIFO
    replacement (a good match for the R10000's random-replacement TLB at
    the granularity our experiments observe), with a one-entry MRU fast
    path. *)

(** Read-only view for {!Hierarchy}'s replay kernel, which settles a
    hit on the MRU page or on a page in its home slot of [keys] inline
    and calls {!access} only otherwise.  A hit changes no state but the
    MRU hint, so skipping the call is exact. *)
type t = private {
  entries : int;
  page_bytes : int;
  page_shift : int;  (** [log2 page_bytes] *)
  slots : int array;  (** FIFO ring of resident pages; [-1] = empty *)
  keys : int array;
      (** open-addressing set of resident pages, at most quarter-full;
          a page's home slot is [page land mask]; [-1] = empty *)
  mask : int;
  mutable next : int;
  mutable last_page : int;
      (** MRU hint: the page of the latest {!access}, always resident *)
}

val create : Machine.tlb -> t
val page_bytes : t -> int
val page_of_addr : t -> int -> int

(** [access t ~page] is [true] on a hit; on a miss the page is brought
    in, evicting the oldest entry when full. *)
val access : t -> page:int -> bool

(** [probe t ~page] checks residency without installing on a miss (used
    for prefetches, which the R10000 drops on a TLB miss). *)
val probe : t -> page:int -> bool

val reset : t -> unit
val occupancy : t -> int
