(* An independent reference model of the memory hierarchy, checked
   against every simulator path.

   The simulator's sink path, [replay_packed], the warm-up replay and
   [Batch] all run on one shared kernel, so comparing them with each
   other cannot catch a fault in that kernel.  This model is written
   from the timing model's description alone (DESIGN §7) and shares no
   code with it: each cache set is an MRU-first list of lines, the TLB a
   FIFO list of pages.

   - Demand access: count it; a TLB miss installs the page (FIFO
     eviction) and stalls; an L1 hit stalls until the line's fill time;
     an L1 miss stalls for the latency from below and installs the line
     (dirty on a store) ready now.
   - Prefetch: counted as a load; dropped on a TLB miss (no
     translation installed); an L1 miss is served from below with its
     latency hidden and the line installed ready when it arrives.
   - Below L1, a hit costs the level's hit latency plus any wait for an
     in-flight fill; a miss adds the next level's latency and installs
     the line, ready when it arrives.
   - Write-back, write-allocate: evicting a dirty line counts a
     writeback and marks that line dirty in the next level when it is
     resident there. *)

type line = { tag : int; mutable fill : int; mutable dirty : bool }

type level = {
  line_shift : int;
  sets : int;
  assoc : int;
  hit_cycles : int;
  lines : line list array;  (* per set, most recently used first *)
}

type model = {
  levels : level array;
  mem_latency : int;
  tlb_entries : int;
  page_shift : int;
  tlb_cycles : int;
  mutable pages : int list;  (* oldest first *)
  c : Memsim.Counters.t;
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let model (m : Machine.t) =
  let level (g : Machine.cache) =
    let sets = g.Machine.size_bytes / g.Machine.line_bytes / g.Machine.assoc in
    {
      line_shift = log2 g.Machine.line_bytes;
      sets;
      assoc = g.Machine.assoc;
      hit_cycles = g.Machine.hit_cycles;
      lines = Array.make sets [];
    }
  in
  {
    levels = Array.of_list (List.map level m.Machine.caches);
    mem_latency = m.Machine.memory_latency_cycles;
    tlb_entries = m.Machine.tlb.Machine.entries;
    page_shift = log2 m.Machine.tlb.Machine.page_bytes;
    tlb_cycles = m.Machine.tlb.Machine.miss_cycles;
    pages = [];
    c = Memsim.Counters.create ~levels:(List.length m.Machine.caches) ();
  }

let set_of lv addr = (addr lsr lv.line_shift) mod lv.sets

(* The resident line holding [addr], moved to the front when [touch]. *)
let find lv addr ~touch =
  let tag = addr lsr lv.line_shift and s = set_of lv addr in
  match List.partition (fun l -> l.tag = tag) lv.lines.(s) with
  | [ l ], rest ->
    if touch then lv.lines.(s) <- l :: rest;
    Some l
  | _ -> None

(* Install [addr]'s line at level [i]; a full set loses its LRU line. *)
let install md i addr ~fill ~dirty =
  let lv = md.levels.(i) in
  let s = set_of lv addr in
  let kept, evicted =
    if List.length lv.lines.(s) < lv.assoc then (lv.lines.(s), None)
    else
      let rev = List.rev lv.lines.(s) in
      (List.rev (List.tl rev), Some (List.hd rev))
  in
  lv.lines.(s) <- { tag = addr lsr lv.line_shift; fill; dirty } :: kept;
  match evicted with
  | Some v when v.dirty ->
    md.c.writebacks <- md.c.writebacks + 1;
    if i + 1 < Array.length md.levels then (
      match find md.levels.(i + 1) (v.tag lsl lv.line_shift) ~touch:false with
      | Some l -> l.dirty <- true
      | None -> ())
  | _ -> ()

(* Latency to bring [addr] up to level [i - 1]. *)
let rec below md i ~now addr =
  if i >= Array.length md.levels then md.mem_latency
  else
    let lv = md.levels.(i) in
    match find lv addr ~touch:true with
    | Some l ->
      md.c.hits.(i) <- md.c.hits.(i) + 1;
      lv.hit_cycles + max 0 (l.fill - now)
    | None ->
      md.c.misses.(i) <- md.c.misses.(i) + 1;
      let latency = lv.hit_cycles + below md (i + 1) ~now addr in
      install md i addr ~fill:(now + latency) ~dirty:false;
      latency

let now md = md.c.loads + md.c.stores + md.c.stall_cycles

let demand md addr ~write =
  let c = md.c in
  if write then c.stores <- c.stores + 1 else c.loads <- c.loads + 1;
  let page = addr lsr md.page_shift in
  if not (List.mem page md.pages) then begin
    c.tlb_misses <- c.tlb_misses + 1;
    c.stall_cycles <- c.stall_cycles + md.tlb_cycles;
    md.pages <-
      (if List.length md.pages = md.tlb_entries then List.tl md.pages else md.pages)
      @ [ page ]
  end;
  let now = now md in
  match find md.levels.(0) addr ~touch:true with
  | Some l ->
    c.hits.(0) <- c.hits.(0) + 1;
    if write then l.dirty <- true;
    c.stall_cycles <- c.stall_cycles + max 0 (l.fill - now)
  | None ->
    c.misses.(0) <- c.misses.(0) + 1;
    let latency = below md 1 ~now addr in
    c.stall_cycles <- c.stall_cycles + latency;
    install md 0 addr ~fill:now ~dirty:write

let prefetch md addr =
  let c = md.c in
  c.loads <- c.loads + 1;
  c.prefetches <- c.prefetches + 1;
  if List.mem (addr lsr md.page_shift) md.pages then begin
    let now = now md in
    match find md.levels.(0) addr ~touch:true with
    | Some _ -> ()
    | None ->
      c.misses.(0) <- c.misses.(0) + 1;
      let latency = below md 1 ~now addr in
      c.prefetch_hidden_cycles <- c.prefetch_hidden_cycles + latency;
      install md 0 addr ~fill:(now + latency) ~dirty:false
  end

let feed md v =
  let addr = Ir.Sink.packed_addr v and tag = Ir.Sink.packed_tag v in
  if tag = Ir.Sink.tag_prefetch then prefetch md addr
  else demand md addr ~write:(tag = Ir.Sink.tag_store)

(* A warm-up prefix: state evolves, then the counters are discarded
   and every in-flight fill is taken as complete. *)
let warm_then_measure md events ~cut =
  Array.iteri (fun i v -> if i < cut then feed md v) events;
  Memsim.Counters.reset md.c;
  Array.iter (fun lv -> Array.iter (List.iter (fun l -> l.fill <- 0)) lv.lines) md.levels;
  Array.iteri (fun i v -> if i >= cut then feed md v) events;
  md.c

(* --- Streams ---------------------------------------------------------- *)

let rng seed = Random.State.make [| seed |]

let event st addr =
  let r = Random.State.int st 10 in
  let tag =
    if r < 5 then Ir.Sink.tag_load else if r < 8 then Ir.Sink.tag_store else Ir.Sink.tag_prefetch
  in
  Ir.Sink.pack ~tag addr

(* Uniform over a footprint of about twice the last cache level, in
   8-byte words, with a hot half-page mixed in so L1 and TLB hits
   occur too. *)
let random_stream (m : Machine.t) ~seed ~len =
  let st = rng seed in
  let last = List.nth m.Machine.caches (List.length m.Machine.caches - 1) in
  let span = 2 * last.Machine.size_bytes / 8 in
  let hot = m.Machine.tlb.Machine.page_bytes / 16 in
  Array.init len (fun _ ->
      let word =
        if Random.State.bool st then Random.State.int st span else Random.State.int st hot
      in
      event st (8 * word))

(* Lines spaced one last-level way apart (the same set at every level,
   on a different page each), a few more than any level's
   associativity: LRU thrash with dirty victims and TLB refills. *)
let conflict_stream (m : Machine.t) ~seed ~len =
  let st = rng seed in
  let last = List.nth m.Machine.caches (List.length m.Machine.caches - 1) in
  let stride = last.Machine.size_bytes / last.Machine.assoc in
  let ways = 1 + List.fold_left (fun a (c : Machine.cache) -> max a c.Machine.assoc) 0 m.Machine.caches in
  Array.init len (fun _ ->
      let k = Random.State.int st (ways + 2) and off = 8 * Random.State.int st 4 in
      event st ((k * stride) + off))

(* --- Checks ----------------------------------------------------------- *)

let check_counters what (want : Memsim.Counters.t) (got : Memsim.Counters.t) =
  let f name a b = Alcotest.(check int) (what ^ ": " ^ name) a b in
  f "loads" want.loads got.loads;
  f "stores" want.stores got.stores;
  f "prefetches" want.prefetches got.prefetches;
  Array.iteri (fun i h -> f (Printf.sprintf "L%d hits" (i + 1)) h got.hits.(i)) want.hits;
  Array.iteri (fun i h -> f (Printf.sprintf "L%d misses" (i + 1)) h got.misses.(i)) want.misses;
  f "tlb misses" want.tlb_misses got.tlb_misses;
  f "writebacks" want.writebacks got.writebacks;
  f "stall cycles" want.stall_cycles got.stall_cycles;
  f "prefetch-hidden cycles" want.prefetch_hidden_cycles got.prefetch_hidden_cycles

let check_stream (m : Machine.t) name events =
  let len = Array.length events and cut = Array.length events / 3 in
  let what path = Printf.sprintf "%s, %s stream, %s" m.Machine.name name path in
  let want = model m in
  Array.iter (feed want) events;
  Alcotest.(check bool) (what "exercises misses and writebacks") true
    (Memsim.Counters.l1_misses want.c > 0 && want.c.writebacks > 0 && want.c.tlb_misses > 0);
  (* The sink path, one event at a time. *)
  let h = Memsim.Hierarchy.create m in
  let sink = Memsim.Hierarchy.sink h in
  Array.iter
    (fun v ->
      let addr = Ir.Sink.packed_addr v and tag = Ir.Sink.packed_tag v in
      if tag = Ir.Sink.tag_prefetch then sink.Ir.Sink.prefetch addr
      else if tag = Ir.Sink.tag_store then sink.Ir.Sink.store addr
      else sink.Ir.Sink.load addr)
    events;
  check_counters (what "sink") want.c (Memsim.Hierarchy.counters h);
  (* The replay kernel, in two calls. *)
  let h = Memsim.Hierarchy.create m in
  Memsim.Hierarchy.replay_packed h events ~pos:0 ~len:cut;
  Memsim.Hierarchy.replay_packed h events ~pos:cut ~len:(len - cut);
  check_counters (what "replay_packed") want.c (Memsim.Hierarchy.counters h);
  (* Batch at K=2, whole-pool and per-plan feeds. *)
  let hs = Array.init 2 (fun _ -> Memsim.Hierarchy.create m) in
  let b = Memsim.Hierarchy.Batch.create hs in
  Memsim.Hierarchy.Batch.replay_all b events ~pos:0 ~len:cut;
  Memsim.Hierarchy.Batch.replay_range b 0 events ~pos:cut ~len:(len - cut);
  for e = cut to len - 1 do
    ignore (Memsim.Hierarchy.Batch.replay_one b 1 events.(e))
  done;
  Memsim.Hierarchy.Batch.sync b;
  Array.iteri (fun i h -> check_counters (what (Printf.sprintf "Batch plan %d" i)) want.c
      (Memsim.Hierarchy.counters h)) hs;
  (* A warm-up prefix, then the measured rest. *)
  let want = warm_then_measure (model m) events ~cut in
  let h = Memsim.Hierarchy.create m in
  Memsim.Hierarchy.warm_packed h events ~pos:0 ~len:cut;
  Memsim.Hierarchy.reset_counters h;
  Memsim.Hierarchy.replay_packed h events ~pos:cut ~len:(len - cut);
  check_counters (what "warm + replay_packed") want (Memsim.Hierarchy.counters h);
  let hs = Array.init 2 (fun _ -> Memsim.Hierarchy.create m) in
  let b = Memsim.Hierarchy.Batch.create hs in
  Memsim.Hierarchy.Batch.warm_all b events ~pos:0 ~len:(cut / 2);
  Memsim.Hierarchy.Batch.warm_range b 0 events ~pos:(cut / 2) ~len:(cut - (cut / 2));
  for e = cut / 2 to cut - 1 do
    Memsim.Hierarchy.Batch.warm_one b 1 events.(e)
  done;
  Memsim.Hierarchy.Batch.reset_counters b;
  Memsim.Hierarchy.Batch.replay_all b events ~pos:cut ~len:(len - cut);
  Memsim.Hierarchy.Batch.sync b;
  Array.iteri (fun i h -> check_counters (what (Printf.sprintf "warm + Batch plan %d" i)) want
      (Memsim.Hierarchy.counters h)) hs

let test_machine (m : Machine.t) () =
  check_stream m "random" (random_stream m ~seed:11 ~len:6000);
  check_stream m "conflict" (conflict_stream m ~seed:12 ~len:6000)

(* The five machines cover associativity 1, 2, 4, 8 and 16, and two and
   three cache levels. *)
let test_machines_cover_geometry () =
  let assocs =
    List.sort_uniq compare
      (List.concat_map (fun (m : Machine.t) -> List.map (fun c -> c.Machine.assoc) m.Machine.caches)
         Machine.all)
  in
  Alcotest.(check bool) "associativity 1, 2 and 8 covered" true
    (List.for_all (fun a -> List.mem a assocs) [ 1; 2; 8 ]);
  Alcotest.(check bool) "2 and 3 levels covered" true
    (List.exists (fun m -> Machine.levels m = 2) Machine.all
    && List.exists (fun m -> Machine.levels m = 3) Machine.all)

(* The dirty victim's write-back marks the victim's own line in the
   next level, not the incoming line's.  One 32-byte line of L1 over a
   2-set direct-mapped L2: A=0 is stored, then B=32 evicts it (A is
   now dirty in L2), C=64 evicts A from L2 (a second writeback), and
   D=96 evicts B from L2, which was never written (no writeback). *)
let test_dirty_victim_write_back () =
  let cache name size hit =
    { Machine.name; size_bytes = size; line_bytes = 32; assoc = 1; hit_cycles = hit }
  in
  let m =
    {
      Machine.sgi_r10000 with
      Machine.name = "tiny";
      caches = [ cache "L1" 32 0; cache "L2" 64 10 ];
    }
  in
  let h = Memsim.Hierarchy.create m and md = model m in
  let c = Memsim.Hierarchy.counters h in
  List.iter
    (fun (addr, write, wb) ->
      Memsim.Hierarchy.(if write then store else load) h addr;
      demand md addr ~write;
      Alcotest.(check int) (Printf.sprintf "writebacks after %d" addr) wb c.writebacks;
      Alcotest.(check int) (Printf.sprintf "model writebacks after %d" addr) wb md.c.writebacks)
    [ (0, true, 0); (32, false, 1); (64, false, 2); (96, false, 2) ]

let suite =
  Alcotest.test_case "dirty victim's line written back" `Quick test_dirty_victim_write_back
  :: Alcotest.test_case "machines cover the geometry" `Quick test_machines_cover_geometry
  :: List.map
       (fun (m : Machine.t) ->
         Alcotest.test_case ("every path matches the model: " ^ m.Machine.name) `Quick
           (test_machine m))
       Machine.all
