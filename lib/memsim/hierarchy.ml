type t = {
  machine : Machine.t;
  caches : Cache.t array;
  hit_cycles : int array;
  tlb : Tlb.t;
  counters : Counters.t;
  mem_latency : int;
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
  }

let machine t = t.machine
let counters t = t.counters
let now t = Counters.accesses t.counters + t.counters.stall_cycles
let cache t i = t.caches.(i)
let tlb t = t.tlb

let count_miss t level =
  let m = t.counters.Counters.misses in
  m.(level) <- m.(level) + 1

let count_hit t level =
  let h = t.counters.Counters.hits in
  h.(level) <- h.(level) + 1

(* Latency to deliver [addr] to level [level-1], allocating the line at
   every level it missed in.  [ready_base] is the cycle the request was
   issued; lines are installed with fill time [ready_base + returned
   latency] (the caller charges or hides that latency). *)
let rec service t ~level ~now ~addr ~dirty =
  if level >= Array.length t.caches then t.mem_latency
  else
    let cache = t.caches.(level) in
    let line = Cache.line_of_addr cache addr in
    let ready = Cache.access cache ~line ~write:false in
    if ready <> Cache.absent then begin
      count_hit t level;
      t.hit_cycles.(level) + max 0 (ready - now)
    end
    else begin
      count_miss t level;
      let below = service t ~level:(level + 1) ~now ~addr ~dirty:false in
      let latency = t.hit_cycles.(level) + below in
      let evicted_dirty =
        Cache.insert cache ~now ~ready:(now + latency) ~dirty ~line
      in
      if evicted_dirty then begin
        t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
        (* Propagate the dirty data to the next level if resident there. *)
        if level + 1 < Array.length t.caches then
          Cache.set_dirty t.caches.(level + 1) ~line:(Cache.line_of_addr t.caches.(level + 1) addr)
      end;
      latency
    end

let translate t ~addr =
  let page = Tlb.page_of_addr t.tlb addr in
  Tlb.access t.tlb ~page

let demand t ~addr ~write =
  let c = t.counters in
  if write then c.Counters.stores <- c.Counters.stores + 1
  else c.Counters.loads <- c.Counters.loads + 1;
  if not (translate t ~addr) then begin
    c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
    c.Counters.stall_cycles <-
      c.Counters.stall_cycles + t.machine.Machine.tlb.Machine.miss_cycles
  end;
  let now = now t in
  let l1 = t.caches.(0) in
  let line = Cache.line_of_addr l1 addr in
  let ready = Cache.access l1 ~line ~write:false in
  if ready <> Cache.absent then begin
    count_hit t 0;
    if ready > now then
      c.Counters.stall_cycles <- c.Counters.stall_cycles + (ready - now)
  end
  else begin
    count_miss t 0;
    let below = service t ~level:1 ~now ~addr ~dirty:false in
    c.Counters.stall_cycles <- c.Counters.stall_cycles + below;
    let evicted_dirty = Cache.insert l1 ~now ~ready:now ~dirty:write ~line in
    if evicted_dirty then begin
      c.Counters.writebacks <- c.Counters.writebacks + 1;
      if Array.length t.caches > 1 then
        Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)
    end
  end;
  if write then Cache.set_dirty l1 ~line

let load t addr = demand t ~addr ~write:false
let store t addr = demand t ~addr ~write:true

let prefetch t addr =
  let c = t.counters in
  (* A prefetch occupies a memory issue slot and is counted as a load by
     the hardware counters (Table 1: mm5's loads exceed mm4's by the
     prefetch count). *)
  c.Counters.loads <- c.Counters.loads + 1;
  c.Counters.prefetches <- c.Counters.prefetches + 1;
  let page = Tlb.page_of_addr t.tlb addr in
  (* Dropped on TLB miss, like the R10000's pref instruction; the probe
     does not install a translation. *)
  if not (Tlb.probe t.tlb ~page) then ()
  else begin
    let now = now t in
    let l1 = t.caches.(0) in
    let line = Cache.line_of_addr l1 addr in
    if Cache.access l1 ~line ~write:false = Cache.absent then begin
      count_miss t 0;
      let below = service t ~level:1 ~now ~addr ~dirty:false in
      c.Counters.prefetch_hidden_cycles <-
        c.Counters.prefetch_hidden_cycles + below;
      let evicted_dirty =
        Cache.insert l1 ~now ~ready:(now + below) ~dirty:false ~line
      in
      if evicted_dirty then begin
        c.Counters.writebacks <- c.Counters.writebacks + 1;
        if Array.length t.caches > 1 then
          Cache.set_dirty t.caches.(1)
            ~line:(Cache.line_of_addr t.caches.(1) addr)
      end
    end
  end

(* State-only service for the warm-up pass: same probe/insert/dirty
   sequence as {!service} (so LRU ticks and residency evolve
   identically), no latency arithmetic or counters.  Fill times are
   arbitrary here because [reset_counters] settles them before anything
   is measured. *)
let rec warm_service t ~level ~addr =
  if level < Array.length t.caches then begin
    let cache = t.caches.(level) in
    let line = Cache.line_of_addr cache addr in
    if Cache.access cache ~line ~write:false = Cache.absent then begin
      warm_service t ~level:(level + 1) ~addr;
      let evicted_dirty =
        Cache.insert cache ~now:0 ~ready:0 ~dirty:false ~line
      in
      if evicted_dirty && level + 1 < Array.length t.caches then
        Cache.set_dirty t.caches.(level + 1)
          ~line:(Cache.line_of_addr t.caches.(level + 1) addr)
    end
  end

(* --- The replay kernel ------------------------------------------------

   [replay_packed], [warm_packed] and the [Batch] loops simulate packed
   event buffers ([Ir.Sink.pack] encoding), each in one loop whose
   counter and cache evolution is identical to feeding the same events
   through {!load}/{!store}/{!prefetch} (the test suites compare every
   counter).  The only structural difference is skipping the trailing
   [Cache.set_dirty] on a demand-write miss, where [insert ~dirty:true]
   has already marked the line.  What keeps an event cheap:
   - its line, page and L1 set are shifts and masks of fields read once
     per call;
   - the TLB is called only when the page is neither its MRU page nor
     in its home slot;
   - L1 ways 0 and 1 are probed inline and ways >= 2 through
     [Cache.find_way], so one kernel serves every associativity;
   - an L1 hit updates the LRU tick, stamp and dirty bit in place;
   - the miss paths are top-level functions that allocate nothing.
   The memsim library is compiled without cross-module inlining, so
   every call into [Cache] or [Tlb] is a real call: the hit path makes
   none. *)

(* A TLB hit settled without a call: [page] is the MRU page, or sits in
   its home slot of the key table (kept at most quarter-full and hashed
   by identity, so a resident page nearly always does).  A hit changes
   no TLB state but the MRU hint, which only has to name some resident
   page, so skipping [Tlb.access] on a hit is exact. *)
let[@inline] tlb_resident (keys : int array) ~mask ~mru page =
  page = mru || Array.unsafe_get keys (page land mask) = page

(* The way holding [line] in the L1 set that starts at [base], or -1. *)
let[@inline] l1_way (tags : int array) ~assoc base (line : int) =
  if Array.unsafe_get tags base = line then base
  else if assoc < 2 then -1
  else if Array.unsafe_get tags (base + 1) = line then base + 1
  else if assoc = 2 then -1
  else Cache.find_way tags ~line (base + 2) (base + assoc)

(* An L1 hit on way [w], exactly as [Cache.access] records it: bump the
   LRU clock, stamp the way, mark it dirty on a write.  Returns the
   cycle the way's data is ready. *)
let[@inline] l1_hit (l1 : Cache.t) ~(stamps : int array) ~(fills : int array)
    ~(dirty : bool array) w ~write =
  let tick = l1.Cache.tick + 1 in
  l1.Cache.tick <- tick;
  Array.unsafe_set stamps w tick;
  if write then Array.unsafe_set dirty w true;
  Array.unsafe_get fills w

(* Install [line] in L1 after a miss; a dirty victim is a writeback,
   propagated to L2 when the line is resident there. *)
let install_l1 t ~now ~ready ~dirty ~addr ~line =
  if Cache.insert t.caches.(0) ~now ~ready ~dirty ~line then begin
    t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
    if Array.length t.caches > 1 then
      Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)
  end

(* A demand L1 miss: service it from below and install the line (dirty
   on a store).  Returns the stall cycles it costs. *)
let demand_miss t ~now ~addr ~write ~line =
  count_miss t 0;
  let below = service t ~level:1 ~now ~addr ~dirty:false in
  install_l1 t ~now ~ready:now ~dirty:write ~addr ~line;
  below

(* A prefetch L1 miss: the latency is hidden, the line arrives later. *)
let prefetch_miss t ~now ~addr ~line =
  count_miss t 0;
  let below = service t ~level:1 ~now ~addr ~dirty:false in
  t.counters.Counters.prefetch_hidden_cycles <-
    t.counters.Counters.prefetch_hidden_cycles + below;
  install_l1 t ~now ~ready:(now + below) ~dirty:false ~addr ~line

(* A warm-up L1 miss: the same inserts, no accounting. *)
let warm_miss t ~addr ~write ~line =
  warm_service t ~level:1 ~addr;
  if
    Cache.insert t.caches.(0) ~now:0 ~ready:0 ~dirty:write ~line
    && Array.length t.caches > 1
  then
    Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)

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
  and tags = l1.Cache.tags
  and stamps = l1.Cache.stamps
  and fills = l1.Cache.fills
  and dirty = l1.Cache.dirty
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
    let base = (line land set_mask) * assoc in
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
      let w = l1_way tags ~assoc base line in
      if w >= 0 then begin
        incr hit0;
        let fill = l1_hit l1 ~stamps ~fills ~dirty w ~write in
        if fill > now then stall := !stall + (fill - now)
      end
      else stall := !stall + demand_miss t ~now ~addr ~write ~line
    end
    else begin
      incr loads;
      incr prefs;
      if
        tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page
        || Tlb.probe tlb ~page
      then begin
        let w = l1_way tags ~assoc base line in
        if w >= 0 then ignore (l1_hit l1 ~stamps ~fills ~dirty w ~write:false)
        else prefetch_miss t ~now:(!loads + !stores + !stall) ~addr ~line
      end
    end
  done;
  c.Counters.loads <- !loads;
  c.Counters.stores <- !stores;
  c.Counters.stall_cycles <- !stall;
  c.Counters.hits.(0) <- !hit0;
  c.Counters.prefetches <- !prefs

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
  and tags = l1.Cache.tags
  and stamps = l1.Cache.stamps
  and fills = l1.Cache.fills
  and dirty = l1.Cache.dirty
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
    let base = (line land set_mask) * assoc in
    if tag <> tag_prefetch then begin
      let write = tag = tag_store in
      if not (tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page) then
        ignore (Tlb.access tlb ~page);
      mru := page;
      let w = l1_way tags ~assoc base line in
      if w >= 0 then ignore (l1_hit l1 ~stamps ~fills ~dirty w ~write)
      else warm_miss t ~addr ~write ~line
    end
    else if
      tlb_resident tlb_keys ~mask:tlb_mask ~mru:!mru page
      || Tlb.probe tlb ~page
    then begin
      let w = l1_way tags ~assoc base line in
      if w >= 0 then ignore (l1_hit l1 ~stamps ~fills ~dirty w ~write:false)
      else warm_miss t ~addr ~write:false ~line
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
    let w = l1_way l1.Cache.tags ~assoc:b.assoc base line in
    if w >= 0 then begin
      Array.unsafe_set b.b_hit0 i (Array.unsafe_get b.b_hit0 i + 1);
      let fill =
        l1_hit l1 ~stamps:l1.Cache.stamps ~fills:l1.Cache.fills
          ~dirty:l1.Cache.dirty w ~write
      in
      if fill > now then
        Array.unsafe_set stall i (Array.unsafe_get stall i + (fill - now));
      now - fill
    end
    else begin
      Array.unsafe_set stall i
        (Array.unsafe_get stall i
        + demand_miss (Array.unsafe_get b.hs i) ~now ~addr ~write ~line);
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
      let w = l1_way l1.Cache.tags ~assoc:b.assoc base line in
      if w >= 0 then
        ignore
          (l1_hit l1 ~stamps:l1.Cache.stamps ~fills:l1.Cache.fills
             ~dirty:l1.Cache.dirty w ~write:false)
      else
        prefetch_miss (Array.unsafe_get b.hs i)
          ~now:
            (Array.unsafe_get loads i
            + Array.unsafe_get b.b_stores i
            + Array.unsafe_get b.b_stall i)
          ~addr ~line;
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
      let w = l1_way l1.Cache.tags ~assoc:b.assoc base line in
      if w >= 0 then
        ignore
          (l1_hit l1 ~stamps:l1.Cache.stamps ~fills:l1.Cache.fills
             ~dirty:l1.Cache.dirty w ~write)
      else warm_miss (Array.unsafe_get b.hs i) ~addr ~write ~line
    end

  (* One shared event run through every plan: decode the event, its
     line, page and set once; then walk the K plans' flat counters. *)
  let replay_all b buf ~pos ~len =
    let k = b.k
    and line_shift = b.line_shift
    and page_shift = b.page_shift
    and set_mask = b.set_mask
    and assoc = b.assoc
    and tag_prefetch = Ir.Sink.tag_prefetch
    and tag_store = Ir.Sink.tag_store in
    for e = pos to pos + len - 1 do
      let v = Array.unsafe_get buf e in
      let addr = v lsr 2 and tag = v land 3 in
      let line = addr lsr line_shift and page = addr lsr page_shift in
      let base = (line land set_mask) * assoc in
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
    let base = (line land b.set_mask) * b.assoc in
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
    and assoc = b.assoc
    and tag_prefetch = Ir.Sink.tag_prefetch
    and tag_store = Ir.Sink.tag_store in
    for e = pos to pos + len - 1 do
      let v = Array.unsafe_get buf e in
      let addr = v lsr 2 and tag = v land 3 in
      let line = addr lsr line_shift and page = addr lsr page_shift in
      let base = (line land set_mask) * assoc in
      let prefetch = tag = tag_prefetch and write = tag = tag_store in
      for i = 0 to k - 1 do
        warm b i ~addr ~line ~page ~base ~prefetch ~write
      done
    done

  let warm_one b i v =
    let addr = v lsr 2 and tag = v land 3 in
    let line = addr lsr b.line_shift and page = addr lsr b.page_shift in
    warm b i ~addr ~line ~page
      ~base:((line land b.set_mask) * b.assoc)
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
