type t = {
  machine : Machine.t;
  caches : Cache.t array;
  hit_cycles : int array;
  tlb : Tlb.t;
  counters : Counters.t;
  mem_latency : int;
  event : int array;  (* the sink path's one-event buffer *)
}

let create (m : Machine.t) =
  {
    machine = m;
    caches = Array.of_list (List.map Cache.create m.Machine.caches);
    hit_cycles =
      Array.of_list (List.map (fun c -> c.Machine.hit_cycles) m.Machine.caches);
    tlb = Tlb.create m.Machine.tlb;
    counters = Counters.create ~levels:(List.length m.Machine.caches) ();
    mem_latency = m.Machine.memory_latency_cycles;
    event = [| 0 |];
  }

let machine t = t.machine
let counters t = t.counters
let now t = Counters.accesses t.counters + t.counters.stall_cycles
let cache t i = t.caches.(i)
let tlb t = t.tlb

let count_miss t level =
  let m = t.counters.Counters.misses in
  Array.unsafe_set m level (Array.unsafe_get m level + 1)

let count_hit t level =
  let h = t.counters.Counters.hits in
  Array.unsafe_set h level (Array.unsafe_get h level + 1)

(* --- The miss path ----------------------------------------------------

   An L1 miss probes, evicts and installs at every level through the
   helpers below, which read and write [Cache.t]'s way array in place.
   They live here, not in [Cache], because the default (dev) dune
   profile compiles every module with [-opaque]: no call across modules
   is inlined, and a miss path built on [Cache]'s functions makes about
   eight such calls per L1 miss.  Here the [@inline] helpers are
   inlined, the top-level recursive ones are direct calls, and nothing
   allocates.
   - Layout: a way is four adjacent slots of [Cache.t]'s [ways] (tag,
     stamp, fill, dirty), so a probe, a hit or an install touches one
     host cache line rather than one per field.  Ways are addressed by
     their first slot; a set's ways start at [base], [base + 4], ...
   - [way]: one probe per level; ways 0 and 1 inline, the rest in the
     top-level [scan] loop.
   - [victim]: the lowest stamp, earliest way on ties; one comparison
     at associativity 2, the top-level [lru] fold above it.  An invalid
     way has stamp 0 and a valid one >= 1 (the clock is bumped before
     every stamp), so this is [Cache.insert]'s rule: the first invalid
     way wins, else the LRU way.
   - [fill]: the install at any level.  A dirty victim (an invalid way
     is never dirty) is written back: its own line is marked dirty one
     level down when resident there.
   - [service]: the walk down the levels, measured or state-only. *)

(* First slot of [line]'s set in [c]. *)
let[@inline] set_base (c : Cache.t) line =
  4 * (line land c.Cache.set_mask) * c.Cache.assoc

(* First slot of [line]'s way among [i], [i + 4], ... below [stop], or
   -1. *)
let rec scan (ways : int array) (line : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get ways i = line then i
  else scan ways line (i + 4) stop

(* First slot of the way holding [line] in the set starting at [base],
   or -1.  A line occupies at most one way of its set. *)
let[@inline] way (ways : int array) ~assoc base (line : int) =
  if Array.unsafe_get ways base = line then base
  else if assoc < 2 then -1
  else if Array.unsafe_get ways (base + 4) = line then base + 4
  else if assoc = 2 then -1
  else scan ways line (base + 8) (base + (4 * assoc))

(* A hit on way [w], exactly as [Cache.access] records it: bump the LRU
   clock, stamp the way, mark it dirty on a write.  Returns the cycle
   the way's data is ready. *)
let[@inline] hit (c : Cache.t) (ways : int array) w ~write =
  let tick = c.Cache.tick + 1 in
  c.Cache.tick <- tick;
  Array.unsafe_set ways (w + 1) tick;
  if write then Array.unsafe_set ways (w + 3) 1;
  Array.unsafe_get ways (w + 2)

(* The way with the lowest stamp among [best] and [i], [i + 4], ...
   below [stop]. *)
let rec lru (ways : int array) i stop best =
  if i >= stop then best
  else
    lru ways (i + 4) stop
      (if Array.unsafe_get ways (i + 1) < Array.unsafe_get ways (best + 1) then i
       else best)

let[@inline] victim (ways : int array) ~assoc base =
  if assoc = 2 then
    if Array.unsafe_get ways (base + 5) < Array.unsafe_get ways (base + 1) then base + 4
    else base
  else if assoc = 1 then base
  else lru ways (base + 4) (base + (4 * assoc)) base

(* Mark the line holding byte [addr] dirty in [c] when it is resident. *)
let write_back (c : Cache.t) addr =
  let line = addr lsr c.Cache.line_shift in
  let w = way c.Cache.ways ~assoc:c.Cache.assoc (set_base c line) line in
  if w >= 0 then Array.unsafe_set c.Cache.ways (w + 3) 1

(* Install [line], absent from level [level]'s set at [base], with its
   data ready at cycle [ready].  A dirty victim is counted as a
   writeback (unless [warm]) and its own line is marked dirty in the
   next level down. *)
let[@inline] fill t level base line ~ready ~dirty ~warm =
  let c = Array.unsafe_get t.caches level in
  let ways = c.Cache.ways in
  let v = victim ways ~assoc:c.Cache.assoc base in
  if Array.unsafe_get ways (v + 3) = 1 then begin
    if not warm then
      t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
    if level + 1 < Array.length t.caches then
      write_back
        (Array.unsafe_get t.caches (level + 1))
        (Array.unsafe_get ways v lsl c.Cache.line_shift)
  end;
  let tick = c.Cache.tick + 1 in
  c.Cache.tick <- tick;
  Array.unsafe_set ways v line;
  Array.unsafe_set ways (v + 1) tick;
  Array.unsafe_set ways (v + 2) ready;
  Array.unsafe_set ways (v + 3) (Bool.to_int dirty)

(* Latency to deliver [addr] to level [level - 1], installing its line
   at every level it misses in, with fill time [now + latency] (the
   caller charges or hides that latency).  [~warm] evolves the same
   state without counters, installing fills at cycle 0: a warm-up
   pass's fills are settled or already past before anything is
   measured. *)
let rec service t level ~now ~addr ~warm =
  if level >= Array.length t.caches then t.mem_latency
  else begin
    let c = Array.unsafe_get t.caches level in
    let line = addr lsr c.Cache.line_shift in
    let base = set_base c line in
    let w = way c.Cache.ways ~assoc:c.Cache.assoc base line in
    let hit_cycles = Array.unsafe_get t.hit_cycles level in
    if w >= 0 then begin
      if not warm then count_hit t level;
      let ready = hit c c.Cache.ways w ~write:false in
      if ready > now then hit_cycles + (ready - now) else hit_cycles
    end
    else begin
      if not warm then count_miss t level;
      let latency = hit_cycles + service t (level + 1) ~now ~addr ~warm in
      fill t level base line ~ready:(if warm then 0 else now + latency) ~dirty:false ~warm;
      latency
    end
  end

(* The three L1 misses, [line] absent from the L1 set at [base].  A
   demand miss is served from below and installed (dirty on a store)
   ready now; it returns the stall cycles it costs. *)
let demand_miss t ~now ~addr ~write ~line ~base =
  count_miss t 0;
  let below = service t 1 ~now ~addr ~warm:false in
  fill t 0 base line ~ready:now ~dirty:write ~warm:false;
  below

(* A prefetch miss hides its latency: the line arrives later. *)
let prefetch_miss t ~now ~addr ~line ~base =
  count_miss t 0;
  let below = service t 1 ~now ~addr ~warm:false in
  t.counters.Counters.prefetch_hidden_cycles <-
    t.counters.Counters.prefetch_hidden_cycles + below;
  fill t 0 base line ~ready:(now + below) ~dirty:false ~warm:false

(* A warm-up miss: the same state changes, no accounting. *)
let warm_miss t ~addr ~write ~line ~base =
  ignore (service t 1 ~now:0 ~addr ~warm:true);
  fill t 0 base line ~ready:0 ~dirty:write ~warm:true

(* --- The replay kernel ------------------------------------------------

   [replay_packed], [warm_packed] and the [Batch] loops simulate packed
   event buffers ([Ir.Sink.pack] encoding) with identical counter and
   cache evolution (the test suites compare every counter, and a
   test-side reference model checks each path); the sink path is a
   one-event [replay_packed].  What keeps an event cheap:
   - its line, page and L1 set are shifts and masks of fields read once
     per call;
   - the TLB is called only when the page is neither its MRU page nor
     in its home slot;
   - the L1 probe and hit are inlined on the hoisted L1 way array;
   - an L1 miss is one direct call into the miss path above, which
     makes no call outside this module. *)

(* A TLB hit settled without a call: [page] is the MRU page, or sits in
   its home slot of the key table (kept at most quarter-full and hashed
   by identity, so a resident page nearly always does).  A hit changes
   no TLB state but the MRU hint, which only has to name some resident
   page, so skipping [Tlb.access] on a hit is exact. *)
let[@inline] tlb_resident (keys : int array) ~mask ~mru page =
  page = mru || Array.unsafe_get keys (page land mask) = page

(* The hot counters (loads, stores, stall cycles, L1 hits, prefetches)
   and the TLB's MRU page live in locals for the whole call; the
   counters are written back on return.  The local MRU page is the
   latest demand page, always resident: a TLB miss installs the page it
   missed on. *)
let replay_packed t buf ~pos ~len =
  let c = t.counters in
  let l1 = t.caches.(0) and tlb = t.tlb in
  let line_shift = l1.Cache.line_shift
  and set_mask = l1.Cache.set_mask
  and assoc = l1.Cache.assoc
  and stride = 4 * l1.Cache.assoc
  and ways = l1.Cache.ways
  and page_shift = tlb.Tlb.page_shift
  and tlb_keys = tlb.Tlb.keys
  and tlb_mask = tlb.Tlb.mask
  and tlb_miss_cycles = t.machine.Machine.tlb.Machine.miss_cycles
  and tag_prefetch = Ir.Sink.tag_prefetch
  and tag_store = Ir.Sink.tag_store in
  let loads = ref c.Counters.loads
  and stores = ref c.Counters.stores
  and stall = ref c.Counters.stall_cycles
  and hit0 = ref c.Counters.hits.(0)
  and prefs = ref c.Counters.prefetches
  and mru = ref tlb.Tlb.last_page in
  for e = pos to pos + len - 1 do
    let v = Array.unsafe_get buf e in
    let addr = v lsr 2 and tag = v land 3 in
    let line = addr lsr line_shift and page = addr lsr page_shift in
    let base = (line land set_mask) * stride in
    if tag <> tag_prefetch then begin
      let write = tag = tag_store in
      if write then incr stores else incr loads;
      if
        not
          (tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page
          || Tlb.access tlb ~page)
      then begin
        c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
        stall := !stall + tlb_miss_cycles
      end;
      mru := page;
      let now = !loads + !stores + !stall in
      let w = way ways ~assoc base line in
      if w >= 0 then begin
        incr hit0;
        let ready = hit l1 ways w ~write in
        if ready > now then stall := !stall + (ready - now)
      end
      else stall := !stall + demand_miss t ~now ~addr ~write ~line ~base
    end
    else begin
      incr loads;
      incr prefs;
      if
        tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page
        || Tlb.probe tlb ~page
      then begin
        let w = way ways ~assoc base line in
        if w >= 0 then ignore (hit l1 ways w ~write:false)
        else prefetch_miss t ~now:(!loads + !stores + !stall) ~addr ~line ~base
      end
    end
  done;
  c.Counters.loads <- !loads;
  c.Counters.stores <- !stores;
  c.Counters.stall_cycles <- !stall;
  c.Counters.hits.(0) <- !hit0;
  c.Counters.prefetches <- !prefs

(* The sink path: each event is a one-event replay, so the sink and
   every replay tier run the same kernel. *)
let feed t ~tag addr =
  Array.unsafe_set t.event 0 ((addr lsl 2) lor tag);
  replay_packed t t.event ~pos:0 ~len:1

let load t addr = feed t ~tag:Ir.Sink.tag_load addr
let store t addr = feed t ~tag:Ir.Sink.tag_store addr

(* A prefetch is counted as a load by the hardware counters (Table 1:
   mm5's loads exceed mm4's by the prefetch count) and dropped on a TLB
   miss, like the R10000's pref instruction. *)
let prefetch t addr = feed t ~tag:Ir.Sink.tag_prefetch addr

(* Replay that evolves cache/TLB state but keeps no accounting: the
   warm-up prefix of a sampled measurement, whose counters are thrown
   away by the [reset_counters] that follows.  Performs exactly the
   probe/insert sequence of {!replay_packed} (residency, LRU and dirty
   state end up identical), skipping the stall/latency bookkeeping. *)
let warm_packed t buf ~pos ~len =
  let l1 = t.caches.(0) and tlb = t.tlb in
  let line_shift = l1.Cache.line_shift
  and set_mask = l1.Cache.set_mask
  and assoc = l1.Cache.assoc
  and stride = 4 * l1.Cache.assoc
  and ways = l1.Cache.ways
  and page_shift = tlb.Tlb.page_shift
  and tlb_keys = tlb.Tlb.keys
  and tlb_mask = tlb.Tlb.mask
  and tag_prefetch = Ir.Sink.tag_prefetch
  and tag_store = Ir.Sink.tag_store in
  let mru = ref tlb.Tlb.last_page in
  for e = pos to pos + len - 1 do
    let v = Array.unsafe_get buf e in
    let addr = v lsr 2 and tag = v land 3 in
    let line = addr lsr line_shift and page = addr lsr page_shift in
    let base = (line land set_mask) * stride in
    if tag <> tag_prefetch then begin
      let write = tag = tag_store in
      if not (tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page) then
        ignore (Tlb.access tlb ~page);
      mru := page;
      let w = way ways ~assoc base line in
      if w >= 0 then ignore (hit l1 ways w ~write)
      else warm_miss t ~addr ~write ~line ~base
    end
    else if
      tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page
      || Tlb.probe tlb ~page
    then begin
      let w = way ways ~assoc base line in
      if w >= 0 then ignore (hit l1 ways w ~write:false)
      else warm_miss t ~addr ~write:false ~line ~base
    end
  done

(* [Batch.replay_one]'s slack for an event with no timing to report. *)
let no_slack = min_int

(* --- Structure-of-arrays batched replay ------------------------------

   The prefetch sweep feeds ONE shared demand stream to K plan states.
   Driving that through K per-event record updates touches five
   mutable record fields per plan per event; for K beyond ~16 the
   per-plan counter records defeat the cache.  [Batch] splits the hot
   counters (loads / stores / stall / L1 hits / prefetches — the ones
   every event updates) into flat int arrays indexed by plan, so the
   K-plan inner loop is a strided walk over five contiguous arrays with
   the decoded event, line, page and L1 set computed once per event.
   Each plan's step is the kernel above: the inline TLB check (MRU
   page, then home slot), the inline ways-0/1 probe, the in-place hit,
   and the shared miss paths, which update the cold counters (level
   misses, TLB misses, writebacks, prefetch-hidden cycles) in the
   per-plan {!Counters.t} records.

   Invariant: per plan, the arithmetic is a verbatim transliteration of
   one {!replay_packed} iteration over the same event sequence, so
   counters after {!Batch.sync} are bit-identical to the unbatched path
   (the replay test suite checks structural equality).  While a batch
   is live, its plans' hot counter fields in {!Counters.t} are STALE —
   every feed must go through the [Batch] functions, and {!Batch.sync}
   must run before the records are read. *)
module Batch = struct
  type hierarchy = t

  type t = {
    hs : hierarchy array;
    k : int;
    l1s : Cache.t array;
    tlbs : Tlb.t array;
    b_loads : int array;
    b_stores : int array;
    b_stall : int array;
    b_hit0 : int array;
    b_prefs : int array;
    tlb_miss_cycles : int;
    line_shift : int;
    page_shift : int;
    set_mask : int;
    assoc : int;
  }

  let create hs =
    let k = Array.length hs in
    if k = 0 then invalid_arg "Hierarchy.Batch.create: empty batch";
    let l1s = Array.map (fun t -> t.caches.(0)) hs in
    let tlbs = Array.map (fun t -> t.tlb) hs in
    let l1 = l1s.(0) and tlb = tlbs.(0) in
    (* The shared once-per-event line, page and set decode requires
       uniform L1 and TLB geometry across the pool. *)
    Array.iteri
      (fun i (c : Cache.t) ->
        if
          c.Cache.line_shift <> l1.Cache.line_shift
          || c.Cache.sets <> l1.Cache.sets
          || c.Cache.assoc <> l1.Cache.assoc
          || tlbs.(i).Tlb.page_shift <> tlb.Tlb.page_shift
        then invalid_arg "Hierarchy.Batch.create: mixed machine geometry")
      l1s;
    {
      hs;
      k;
      l1s;
      tlbs;
      b_loads = Array.map (fun t -> t.counters.Counters.loads) hs;
      b_stores = Array.map (fun t -> t.counters.Counters.stores) hs;
      b_stall = Array.map (fun t -> t.counters.Counters.stall_cycles) hs;
      b_hit0 = Array.map (fun t -> t.counters.Counters.hits.(0)) hs;
      b_prefs = Array.map (fun t -> t.counters.Counters.prefetches) hs;
      tlb_miss_cycles = hs.(0).machine.Machine.tlb.Machine.miss_cycles;
      line_shift = l1.Cache.line_shift;
      page_shift = tlb.Tlb.page_shift;
      set_mask = l1.Cache.set_mask;
      assoc = l1.Cache.assoc;
    }

  let size b = b.k

  let sync b =
    for i = 0 to b.k - 1 do
      let c = b.hs.(i).counters in
      c.Counters.loads <- b.b_loads.(i);
      c.Counters.stores <- b.b_stores.(i);
      c.Counters.stall_cycles <- b.b_stall.(i);
      c.Counters.prefetches <- b.b_prefs.(i);
      c.Counters.hits.(0) <- b.b_hit0.(i)
    done

  let reset_counters b =
    Array.iter
      (fun t ->
        Array.iter Cache.settle t.caches;
        Counters.reset t.counters)
      b.hs;
    Array.fill b.b_loads 0 b.k 0;
    Array.fill b.b_stores 0 b.k 0;
    Array.fill b.b_stall 0 b.k 0;
    Array.fill b.b_hit0 0 b.k 0;
    Array.fill b.b_prefs 0 b.k 0

  let tlb_refill b i =
    let t = Array.unsafe_get b.hs i in
    t.counters.Counters.tlb_misses <- t.counters.Counters.tlb_misses + 1;
    Array.unsafe_set b.b_stall i
      (Array.unsafe_get b.b_stall i + b.tlb_miss_cycles)

  (* Plan [i]'s step for one decoded event; [base] is the L1 set's
     first way.  A demand step returns the slack {!replay_one}
     documents. *)
  let[@inline] demand b i ~addr ~line ~page ~base ~write =
    let loads = b.b_loads and stores = b.b_stores and stall = b.b_stall in
    (if write then Array.unsafe_set stores i (Array.unsafe_get stores i + 1)
     else Array.unsafe_set loads i (Array.unsafe_get loads i + 1));
    let tlb = Array.unsafe_get b.tlbs i in
    if
      not
        (tlb_resident tlb.Tlb.keys ~mask:tlb.Tlb.mask ~mru:tlb.Tlb.last_page page
        || Tlb.access tlb ~page)
    then tlb_refill b i;
    let now =
      Array.unsafe_get loads i + Array.unsafe_get stores i
      + Array.unsafe_get stall i
    in
    let l1 = Array.unsafe_get b.l1s i in
    let w = way l1.Cache.ways ~assoc:b.assoc base line in
    if w >= 0 then begin
      Array.unsafe_set b.b_hit0 i (Array.unsafe_get b.b_hit0 i + 1);
      let ready = hit l1 l1.Cache.ways w ~write in
      if ready > now then
        Array.unsafe_set stall i (Array.unsafe_get stall i + (ready - now));
      now - ready
    end
    else begin
      Array.unsafe_set stall i
        (Array.unsafe_get stall i
        + demand_miss (Array.unsafe_get b.hs i) ~now ~addr ~write ~line ~base);
      no_slack
    end

  let[@inline] prefetch b i ~addr ~line ~page ~base =
    let loads = b.b_loads in
    Array.unsafe_set loads i (Array.unsafe_get loads i + 1);
    Array.unsafe_set b.b_prefs i (Array.unsafe_get b.b_prefs i + 1);
    let tlb = Array.unsafe_get b.tlbs i in
    if
      tlb_resident tlb.Tlb.keys ~mask:tlb.Tlb.mask ~mru:tlb.Tlb.last_page page
      || Tlb.probe tlb ~page
    then begin
      let l1 = Array.unsafe_get b.l1s i in
      let w = way l1.Cache.ways ~assoc:b.assoc base line in
      if w >= 0 then ignore (hit l1 l1.Cache.ways w ~write:false)
      else
        prefetch_miss (Array.unsafe_get b.hs i)
          ~now:
            (Array.unsafe_get loads i
            + Array.unsafe_get b.b_stores i
            + Array.unsafe_get b.b_stall i)
          ~addr ~line ~base;
      0
    end
    else no_slack

  let[@inline] warm b i ~addr ~line ~page ~base ~prefetch ~write =
    let tlb = Array.unsafe_get b.tlbs i in
    let mapped =
      tlb_resident tlb.Tlb.keys ~mask:tlb.Tlb.mask ~mru:tlb.Tlb.last_page page
      || if prefetch then Tlb.probe tlb ~page else (ignore (Tlb.access tlb ~page); true)
    in
    if mapped then begin
      let l1 = Array.unsafe_get b.l1s i in
      let w = way l1.Cache.ways ~assoc:b.assoc base line in
      if w >= 0 then ignore (hit l1 l1.Cache.ways w ~write)
      else warm_miss (Array.unsafe_get b.hs i) ~addr ~write ~line ~base
    end

  (* One shared event run through every plan: decode the event, its
     line, page and set once; then walk the K plans' flat counters. *)
  let replay_all b buf ~pos ~len =
    let k = b.k
    and line_shift = b.line_shift
    and page_shift = b.page_shift
    and set_mask = b.set_mask
    and stride = 4 * b.assoc
    and tag_prefetch = Ir.Sink.tag_prefetch
    and tag_store = Ir.Sink.tag_store in
    for e = pos to pos + len - 1 do
      let v = Array.unsafe_get buf e in
      let addr = v lsr 2 and tag = v land 3 in
      let line = addr lsr line_shift and page = addr lsr page_shift in
      let base = (line land set_mask) * stride in
      if tag <> tag_prefetch then begin
        let write = tag = tag_store in
        for i = 0 to k - 1 do
          ignore (demand b i ~addr ~line ~page ~base ~write)
        done
      end
      else
        for i = 0 to k - 1 do
          ignore (prefetch b i ~addr ~line ~page ~base)
        done
    done

  (* One event for plan [i] only (per-plan prefetch emissions and
     sampled segments), returning the timing feedback the incremental
     repricer observes: for a demand L1 hit, [now - fill] (>= 0 when the
     line was ready, negative = the stall paid); [no_slack] on a demand
     miss or a prefetch dropped on a TLB miss; 0 on an issued
     prefetch. *)
  let replay_one b i v =
    let addr = v lsr 2 and tag = v land 3 in
    let line = addr lsr b.line_shift and page = addr lsr b.page_shift in
    let base = (line land b.set_mask) * 4 * b.assoc in
    if tag <> Ir.Sink.tag_prefetch then
      demand b i ~addr ~line ~page ~base ~write:(tag = Ir.Sink.tag_store)
    else prefetch b i ~addr ~line ~page ~base

  let replay_range b i buf ~pos ~len =
    for e = pos to pos + len - 1 do
      ignore (replay_one b i (Array.unsafe_get buf e))
    done

  (* Warm variants: no counters are involved, so the per-plan range
     delegates to the scalar warm path; the shared form still hoists
     the decode. *)
  let warm_all b buf ~pos ~len =
    let k = b.k
    and line_shift = b.line_shift
    and page_shift = b.page_shift
    and set_mask = b.set_mask
    and stride = 4 * b.assoc
    and tag_prefetch = Ir.Sink.tag_prefetch
    and tag_store = Ir.Sink.tag_store in
    for e = pos to pos + len - 1 do
      let v = Array.unsafe_get buf e in
      let addr = v lsr 2 and tag = v land 3 in
      let line = addr lsr line_shift and page = addr lsr page_shift in
      let base = (line land set_mask) * stride in
      let prefetch = tag = tag_prefetch and write = tag = tag_store in
      for i = 0 to k - 1 do
        warm b i ~addr ~line ~page ~base ~prefetch ~write
      done
    done

  let warm_one b i v =
    let addr = v lsr 2 and tag = v land 3 in
    let line = addr lsr b.line_shift and page = addr lsr b.page_shift in
    warm b i ~addr ~line ~page
      ~base:((line land b.set_mask) * 4 * b.assoc)
      ~prefetch:(tag = Ir.Sink.tag_prefetch) ~write:(tag = Ir.Sink.tag_store)

  let warm_range b i buf ~pos ~len = warm_packed b.hs.(i) buf ~pos ~len
end

(* Sampled replay: the sampler decides, window by window, whether the
   next run of events is measured ([replay_packed]), replayed
   state-only to re-warm residency ([warm_packed] — safe here because
   LRU is tick-based and the [ready:0] fills it installs are already
   in the past relative to the monotonically growing counter clock),
   or skipped.  The caller extrapolates the counters by
   [Sampling.factor]. *)
let replay_sampled t sampler buf ~pos ~len =
  let p = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    let action, k = Sampling.take sampler !remaining in
    (match action with
    | Sampling.Measure -> replay_packed t buf ~pos:!p ~len:k
    | Sampling.Warm -> warm_packed t buf ~pos:!p ~len:k
    | Sampling.Drop -> ());
    p := !p + k;
    remaining := !remaining - k
  done

let sink t =
  {
    Ir.Sink.load = (fun addr -> load t addr);
    Ir.Sink.store = (fun addr -> store t addr);
    Ir.Sink.prefetch = (fun addr -> prefetch t addr);
  }

let reset t =
  Array.iter Cache.reset t.caches;
  Tlb.reset t.tlb;
  Counters.reset t.counters

let reset_counters t =
  Array.iter Cache.settle t.caches;
  Counters.reset t.counters
