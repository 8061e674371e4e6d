(* Tests for the cache, TLB, hierarchy and cost model. *)

let check_int = Alcotest.(check int)

let tiny_cache ?(assoc = 2) ?(size = 1024) ?(line = 32) () =
  Memsim.Cache.create
    { Machine.name = "T"; size_bytes = size; line_bytes = line; assoc; hit_cycles = 0 }

let is_hit c ~line =
  Memsim.Cache.access c ~line ~write:false <> Memsim.Cache.absent

let test_cache_cold_miss_then_hit () =
  let c = tiny_cache () in
  Alcotest.(check bool) "cold miss" false
    (is_hit c ~line:5);
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:5);
  Alcotest.(check bool) "hit after insert" true
    (is_hit c ~line:5)

let test_cache_line_granularity () =
  (* 32-byte lines: addresses 0 and 31 share a line, 32 does not. *)
  let c = tiny_cache () in
  check_int "same line" (Memsim.Cache.line_of_addr c 0) (Memsim.Cache.line_of_addr c 31);
  Alcotest.(check bool) "next line differs" true
    (Memsim.Cache.line_of_addr c 32 <> Memsim.Cache.line_of_addr c 0)

let test_cache_lru_eviction () =
  (* 2-way: fill one set with lines a and b; touching a then inserting c
     must evict b (the LRU way). Lines conflict when they share the low
     set bits: sets = 1024/32/2 = 16. *)
  let c = tiny_cache () in
  let sets = Memsim.Cache.sets c in
  let a = 3 and b = 3 + sets and d = 3 + (2 * sets) in
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:a);
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:b);
  ignore (is_hit c ~line:a);
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:d);
  Alcotest.(check bool) "a survives (recently used)" true
    (Memsim.Cache.resident c ~line:a);
  Alcotest.(check bool) "b evicted (LRU)" false (Memsim.Cache.resident c ~line:b);
  Alcotest.(check bool) "d resident" true (Memsim.Cache.resident c ~line:d)

let test_cache_conflict_within_capacity () =
  (* Direct-mapped: two lines mapping to the same set conflict even
     though the cache has room elsewhere. *)
  let c = tiny_cache ~assoc:1 () in
  let sets = Memsim.Cache.sets c in
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:7);
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:(7 + sets));
  Alcotest.(check bool) "first line evicted" false
    (Memsim.Cache.resident c ~line:7)

let test_cache_dirty_eviction_reported () =
  let c = tiny_cache ~assoc:1 () in
  let sets = Memsim.Cache.sets c in
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:true ~line:9);
  let wb = Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:(9 + sets) in
  Alcotest.(check bool) "writeback" true wb;
  let wb2 = Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:9 in
  Alcotest.(check bool) "clean eviction" false wb2

let test_cache_set_dirty () =
  let c = tiny_cache ~assoc:1 () in
  let sets = Memsim.Cache.sets c in
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:4);
  Memsim.Cache.set_dirty c ~line:4;
  let wb = Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:(4 + sets) in
  Alcotest.(check bool) "writeback after set_dirty" true wb

let test_cache_fill_time_returned () =
  let c = tiny_cache () in
  ignore (Memsim.Cache.insert c ~ready:150 ~dirty:false ~line:2);
  check_int "fill time" 150 (Memsim.Cache.access c ~line:2 ~write:false)

let test_cache_reset () =
  let c = tiny_cache () in
  ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line:1);
  check_int "occupied" 1 (Memsim.Cache.occupancy c);
  Memsim.Cache.reset c;
  check_int "empty" 0 (Memsim.Cache.occupancy c)

let test_cache_rejects_bad_geometry () =
  match
    Memsim.Cache.create
      { Machine.name = "bad"; size_bytes = 3000; line_bytes = 32; assoc = 2; hit_cycles = 0 }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let tiny_tlb ?(entries = 4) () =
  Memsim.Tlb.create { Machine.entries; page_bytes = 4096; miss_cycles = 10 }

let test_tlb_hit_miss () =
  let t = tiny_tlb () in
  Alcotest.(check bool) "cold miss" false (Memsim.Tlb.access t ~page:1);
  Alcotest.(check bool) "hit" true (Memsim.Tlb.access t ~page:1)

let test_tlb_fifo_eviction () =
  let t = tiny_tlb ~entries:2 () in
  ignore (Memsim.Tlb.access t ~page:1);
  ignore (Memsim.Tlb.access t ~page:2);
  ignore (Memsim.Tlb.access t ~page:3);
  (* page 1 was oldest *)
  Alcotest.(check bool) "page 1 evicted" false (Memsim.Tlb.probe t ~page:1);
  Alcotest.(check bool) "page 2 resident" true (Memsim.Tlb.probe t ~page:2);
  Alcotest.(check bool) "page 3 resident" true (Memsim.Tlb.probe t ~page:3)

let test_tlb_probe_does_not_install () =
  let t = tiny_tlb () in
  Alcotest.(check bool) "probe miss" false (Memsim.Tlb.probe t ~page:9);
  Alcotest.(check bool) "still miss" false (Memsim.Tlb.probe t ~page:9);
  check_int "occupancy unchanged" 0 (Memsim.Tlb.occupancy t)

let test_tlb_working_set_thrash () =
  (* Cycling through entries+1 pages must miss every time (FIFO). *)
  let t = tiny_tlb ~entries:4 () in
  let misses = ref 0 in
  for _round = 1 to 3 do
    for page = 0 to 4 do
      if not (Memsim.Tlb.access t ~page) then incr misses
    done
  done;
  check_int "all misses" 15 !misses

let sgi () = Memsim.Hierarchy.create Machine.sgi_r10000

let test_hierarchy_counters_cold_then_warm () =
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  Memsim.Hierarchy.load h 0;
  check_int "1 load" 1 c.Memsim.Counters.loads;
  check_int "1 L1 miss" 1 (Memsim.Counters.l1_misses c);
  check_int "1 L2 miss" 1 (Memsim.Counters.l2_misses c);
  check_int "1 TLB miss" 1 c.Memsim.Counters.tlb_misses;
  Memsim.Hierarchy.load h 8;
  (* same 32B line *)
  check_int "2 loads" 2 c.Memsim.Counters.loads;
  check_int "still 1 L1 miss" 1 (Memsim.Counters.l1_misses c)

let test_hierarchy_l2_hit_after_l1_eviction () =
  (* Touch enough distinct lines to overflow L1 (32KB, 2-way, 32B lines)
     but stay inside L2 (1MB): re-touching the first line misses L1 but
     hits L2. *)
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  let line_bytes = 32 in
  let lines = (64 * 1024) / line_bytes in
  for i = 0 to lines - 1 do
    Memsim.Hierarchy.load h (i * line_bytes)
  done;
  let l2_misses_before = (Memsim.Counters.l2_misses c) in
  Memsim.Hierarchy.load h 0;
  check_int "L2 misses unchanged" l2_misses_before (Memsim.Counters.l2_misses c);
  Alcotest.(check bool) "L2 hits grew" true ((Memsim.Counters.l2_hits c) > 0)

let test_hierarchy_stall_accounting () =
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  Memsim.Hierarchy.load h 0;
  (* cold: TLB miss + L2 hit latency is 10, memory 90, TLB 60 *)
  let expected =
    Machine.sgi_r10000.Machine.tlb.Machine.miss_cycles
    + (List.nth Machine.sgi_r10000.Machine.caches 1).Machine.hit_cycles
    + Machine.sgi_r10000.Machine.memory_latency_cycles
  in
  check_int "cold stall" expected c.Memsim.Counters.stall_cycles;
  let before = c.Memsim.Counters.stall_cycles in
  Memsim.Hierarchy.load h 0;
  check_int "warm hit free" before c.Memsim.Counters.stall_cycles

let test_prefetch_hides_latency () =
  (* Prefetch a line, do enough other work for it to arrive, then load:
     the load must not stall. *)
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  (* Warm the TLB page first so the prefetch is not dropped. *)
  Memsim.Hierarchy.load h 4096;
  Memsim.Hierarchy.prefetch h (4096 + 64);
  let stall_after_prefetch = c.Memsim.Counters.stall_cycles in
  (* Simulate elapsed time: touch already-resident data many times. *)
  for _ = 1 to 300 do
    Memsim.Hierarchy.load h 4096
  done;
  Memsim.Hierarchy.load h (4096 + 64);
  check_int "no extra stall" stall_after_prefetch c.Memsim.Counters.stall_cycles

let test_prefetch_partial_hiding () =
  (* A demand access immediately after the prefetch pays only part of the
     latency. *)
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  Memsim.Hierarchy.load h 4096;
  let stall0 = c.Memsim.Counters.stall_cycles in
  Memsim.Hierarchy.prefetch h (4096 + 64);
  Memsim.Hierarchy.load h (4096 + 64);
  let paid = c.Memsim.Counters.stall_cycles - stall0 in
  let full =
    (List.nth Machine.sgi_r10000.Machine.caches 1).Machine.hit_cycles
    + Machine.sgi_r10000.Machine.memory_latency_cycles
  in
  Alcotest.(check bool) "partial stall" true (paid > 0 && paid < full)

let test_prefetch_dropped_on_tlb_miss () =
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  Memsim.Hierarchy.prefetch h (1 lsl 24);
  check_int "counted as load" 1 c.Memsim.Counters.loads;
  check_int "no L1 miss recorded (dropped)" 0 (Memsim.Counters.l1_misses c);
  (* The line was not fetched. *)
  Memsim.Hierarchy.load h (1 lsl 24);
  check_int "demand still misses" 1 (Memsim.Counters.l1_misses c)

let test_prefetch_counted_as_load () =
  let h = sgi () in
  let c = Memsim.Hierarchy.counters h in
  Memsim.Hierarchy.load h 0;
  Memsim.Hierarchy.prefetch h 4096;
  check_int "loads include prefetch" 2 c.Memsim.Counters.loads;
  check_int "prefetches" 1 c.Memsim.Counters.prefetches

let test_store_writeback_traffic () =
  (* Write a line, then evict it by walking a conflicting set: a
     writeback must be counted. *)
  let h = Memsim.Hierarchy.create Machine.ultrasparc_iie in
  let c = Memsim.Hierarchy.counters h in
  Memsim.Hierarchy.store h 0;
  (* L1 is 16KB direct mapped: address 16384 conflicts with 0. *)
  Memsim.Hierarchy.load h 16384;
  Alcotest.(check bool) "writeback counted" true (c.Memsim.Counters.writebacks >= 1)

let test_hierarchy_reset () =
  let h = sgi () in
  Memsim.Hierarchy.load h 0;
  Memsim.Hierarchy.reset h;
  let c = Memsim.Hierarchy.counters h in
  check_int "loads cleared" 0 c.Memsim.Counters.loads;
  Memsim.Hierarchy.load h 0;
  check_int "cold again" 1 (Memsim.Counters.l1_misses c)

let run_with_sim machine kernel n =
  let h = Memsim.Hierarchy.create machine in
  let result =
    Ir.Exec.run
      ~sink:(Memsim.Hierarchy.sink h)
      ~params:[ (kernel.Kernels.Kernel.size_param, n) ]
      kernel.Kernels.Kernel.program
  in
  (h, result)

let test_end_to_end_matmul_counts () =
  let n = 24 in
  let h, result = run_with_sim Machine.sgi_r10000 Kernels.Matmul.kernel n in
  let c = Memsim.Hierarchy.counters h in
  check_int "loads = 3n^3" (3 * n * n * n) c.Memsim.Counters.loads;
  check_int "stores = n^3" (n * n * n) c.Memsim.Counters.stores;
  Alcotest.(check bool) "some misses" true ((Memsim.Counters.l1_misses c) > 0);
  Alcotest.(check bool) "misses bounded by accesses" true
    ((Memsim.Counters.l1_misses c) <= Memsim.Counters.accesses c);
  Alcotest.(check bool) "completed" true result.Ir.Exec.stats.Ir.Exec.completed

let test_cost_model_basics () =
  let n = 24 in
  let h, result = run_with_sim Machine.sgi_r10000 Kernels.Matmul.kernel n in
  let cost =
    Memsim.Cost.evaluate Machine.sgi_r10000
      (Memsim.Hierarchy.counters h)
      result.Ir.Exec.stats
  in
  Alcotest.(check bool) "positive cycles" true (cost.Memsim.Cost.total_cycles > 0.0);
  Alcotest.(check bool) "mflops below peak" true
    (cost.Memsim.Cost.mflops < Machine.peak_mflops Machine.sgi_r10000);
  Alcotest.(check bool) "mflops positive" true (cost.Memsim.Cost.mflops > 0.0)

let test_cost_more_misses_more_cycles () =
  (* The same computation with a colder hierarchy (smaller cache) must
     not be faster. *)
  let n = 32 in
  let h1, r1 = run_with_sim Machine.sgi_r10000 Kernels.Matmul.kernel n in
  let h2, r2 = run_with_sim Machine.generic_small Kernels.Matmul.kernel n in
  (* Compare stall cycles rather than total (clock rates differ). *)
  let c1 = (Memsim.Hierarchy.counters h1).Memsim.Counters.stall_cycles in
  let c2 = (Memsim.Hierarchy.counters h2).Memsim.Counters.stall_cycles in
  ignore r1;
  ignore r2;
  Alcotest.(check bool) "smaller caches stall at least as much" true (c2 >= c1)

let test_cost_scale () =
  let t =
    {
      Memsim.Cost.mem_issue_cycles = 10.0;
      fp_issue_cycles = 20.0;
      other_issue_cycles = 5.0;
      stall_cycles = 15.0;
      total_cycles = 40.0;
      seconds = 1.0;
      flops = 100;
      mflops = 7.5;
    }
  in
  let s = Memsim.Cost.scale 2.0 t in
  Alcotest.(check (float 1e-9)) "cycles scaled" 80.0 s.Memsim.Cost.total_cycles;
  check_int "flops scaled" 200 s.Memsim.Cost.flops;
  Alcotest.(check (float 1e-9)) "mflops invariant" 7.5 s.Memsim.Cost.mflops

let prop_misses_bounded =
  QCheck.Test.make ~name:"cache misses never exceed accesses" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 100_000))
    (fun addrs ->
      let h = sgi () in
      List.iter (fun a -> Memsim.Hierarchy.load h (a * 8)) addrs;
      let c = Memsim.Hierarchy.counters h in
      (Memsim.Counters.l1_misses c) <= c.Memsim.Counters.loads
      && (Memsim.Counters.l2_misses c) <= (Memsim.Counters.l1_misses c)
      && c.Memsim.Counters.tlb_misses <= c.Memsim.Counters.loads)

let prop_higher_assoc_no_more_misses_single_set =
  (* LRU inclusion property on a single-set (fully-associative) cache:
     more ways can only reduce misses for any trace. *)
  QCheck.Test.make ~name:"LRU: more ways, fewer misses" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 15))
    (fun lines ->
      let misses assoc =
        let c =
          Memsim.Cache.create
            {
              Machine.name = "fa";
              size_bytes = assoc * 32;
              line_bytes = 32;
              assoc;
              hit_cycles = 0;
            }
        in
        List.fold_left
          (fun acc line ->
            if is_hit c ~line then acc
            else begin
              ignore (Memsim.Cache.insert c ~ready:0 ~dirty:false ~line);
              acc + 1
            end)
          0 lines
      in
      misses 8 <= misses 4 && misses 4 <= misses 2 && misses 2 <= misses 1)

let suite =
  [
    Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
    Alcotest.test_case "line granularity" `Quick test_cache_line_granularity;
    Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction;
    Alcotest.test_case "conflict within capacity" `Quick
      test_cache_conflict_within_capacity;
    Alcotest.test_case "dirty eviction reported" `Quick
      test_cache_dirty_eviction_reported;
    Alcotest.test_case "set_dirty" `Quick test_cache_set_dirty;
    Alcotest.test_case "fill time returned" `Quick test_cache_fill_time_returned;
    Alcotest.test_case "cache reset" `Quick test_cache_reset;
    Alcotest.test_case "bad geometry rejected" `Quick
      test_cache_rejects_bad_geometry;
    Alcotest.test_case "tlb hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb FIFO eviction" `Quick test_tlb_fifo_eviction;
    Alcotest.test_case "tlb probe does not install" `Quick
      test_tlb_probe_does_not_install;
    Alcotest.test_case "tlb thrash" `Quick test_tlb_working_set_thrash;
    Alcotest.test_case "hierarchy counters cold/warm" `Quick
      test_hierarchy_counters_cold_then_warm;
    Alcotest.test_case "L2 hit after L1 eviction" `Quick
      test_hierarchy_l2_hit_after_l1_eviction;
    Alcotest.test_case "stall accounting" `Quick test_hierarchy_stall_accounting;
    Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
    Alcotest.test_case "prefetch partial hiding" `Quick
      test_prefetch_partial_hiding;
    Alcotest.test_case "prefetch dropped on TLB miss" `Quick
      test_prefetch_dropped_on_tlb_miss;
    Alcotest.test_case "prefetch counted as load" `Quick
      test_prefetch_counted_as_load;
    Alcotest.test_case "store writeback traffic" `Quick
      test_store_writeback_traffic;
    Alcotest.test_case "hierarchy reset" `Quick test_hierarchy_reset;
    Alcotest.test_case "end-to-end matmul counters" `Quick
      test_end_to_end_matmul_counts;
    Alcotest.test_case "cost model basics" `Quick test_cost_model_basics;
    Alcotest.test_case "more misses, more stalls" `Quick
      test_cost_more_misses_more_cycles;
    Alcotest.test_case "cost scaling" `Quick test_cost_scale;
    QCheck_alcotest.to_alcotest prop_misses_bounded;
    QCheck_alcotest.to_alcotest prop_higher_assoc_no_more_misses_single_set;
  ]
