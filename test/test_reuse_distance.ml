(* Reuse-distance analysis tests, including the classic oracle property:
   a fully associative LRU cache of capacity C hits exactly the accesses
   with stack distance < C. *)

let rd () = Memsim.Reuse_distance.create ~line_bytes:32 ()

let feed t lines = List.iter (fun l -> Memsim.Reuse_distance.access t (l * 32)) lines

let test_cold_only () =
  let t = rd () in
  feed t [ 1; 2; 3; 4 ];
  Alcotest.(check int) "all cold" 4 (Memsim.Reuse_distance.cold t);
  Alcotest.(check int) "no hits at any capacity" 0
    (Memsim.Reuse_distance.hits_at t 1_000_000)

let test_immediate_reuse () =
  let t = rd () in
  feed t [ 7; 7; 7 ];
  Alcotest.(check int) "one cold" 1 (Memsim.Reuse_distance.cold t);
  Alcotest.(check int) "two zero-distance reuses" 2
    (Memsim.Reuse_distance.hits_at t 1)

let test_distance_counting () =
  (* a b c a : the second 'a' has distance 2 (b and c in between). *)
  let t = rd () in
  feed t [ 1; 2; 3; 1 ];
  Alcotest.(check int) "miss at capacity 2" 0 (Memsim.Reuse_distance.hits_at t 2);
  Alcotest.(check int) "hit at capacity 3" 1 (Memsim.Reuse_distance.hits_at t 3)

let test_duplicates_not_double_counted () =
  (* a b b b a : distance of the last 'a' is 1 (only b distinct). *)
  let t = rd () in
  feed t [ 1; 2; 2; 2; 1 ];
  Alcotest.(check int) "distance 1" 1
    (Memsim.Reuse_distance.hits_at t 2 - Memsim.Reuse_distance.hits_at t 1);
  Alcotest.(check int) "b reuses at distance 0" 2 (Memsim.Reuse_distance.hits_at t 1)

let test_line_granularity () =
  let t = rd () in
  Memsim.Reuse_distance.access t 0;
  Memsim.Reuse_distance.access t 8;
  (* same 32B line *)
  Alcotest.(check int) "one cold" 1 (Memsim.Reuse_distance.cold t);
  Alcotest.(check int) "one reuse" 1 (Memsim.Reuse_distance.hits_at t 1)

let test_histogram_total () =
  let t = rd () in
  feed t [ 1; 2; 1; 3; 2; 1; 4; 4 ];
  let hist_sum =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Memsim.Reuse_distance.histogram t)
  in
  Alcotest.(check int) "histogram covers all reuses"
    (Memsim.Reuse_distance.total t - Memsim.Reuse_distance.cold t)
    hist_sum

let test_working_set () =
  (* Cycling over 8 lines: distance 7 for every reuse; working set 8. *)
  let t = rd () in
  for _ = 1 to 10 do
    feed t [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  done;
  Alcotest.(check int) "working set 8" 8
    (Memsim.Reuse_distance.working_set t ~threshold:0.01)

(* Oracle property: fully associative LRU cache vs stack distances. *)
let lru_hits capacity lines =
  let cache =
    Memsim.Cache.create
      {
        Machine.name = "fa";
        size_bytes = capacity * 32;
        line_bytes = 32;
        assoc = capacity;
        hit_cycles = 0;
      }
  in
  List.fold_left
    (fun acc line ->
      if Memsim.Cache.access cache ~line ~write:false <> Memsim.Cache.absent
      then acc + 1
      else begin
        ignore (Memsim.Cache.insert cache ~ready:0 ~dirty:false ~line);
        acc
      end)
    0 lines

let prop_lru_oracle =
  QCheck.Test.make ~name:"stack distance predicts fully-associative LRU"
    ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 400) (int_range 0 30))
        (oneofl [ 1; 2; 4; 8; 16 ]))
    (fun (lines, capacity) ->
      let t = rd () in
      feed t lines;
      Memsim.Reuse_distance.hits_at t capacity = lru_hits capacity lines)

let test_mm_tiling_shrinks_working_set () =
  (* Tiling must shrink matmul's measured working set: the analysis sees
     it directly from the trace. *)
  let measure p =
    let t = rd () in
    ignore
      (Ir.Exec.run
         ~sink:(Memsim.Reuse_distance.sink t)
         ~params:[ ("n", 40) ]
         p);
    Memsim.Reuse_distance.working_set t ~threshold:0.05
  in
  let naive = Kernels.Matmul.kernel.Kernels.Kernel.program in
  let tiled =
    Transform.Tile.apply naive
      [
        { Transform.Tile.var = "j"; size = 8; control = "jj" };
        { Transform.Tile.var = "k"; size = 8; control = "kk" };
      ]
      ~control_order:[ "kk"; "jj" ]
  in
  let ws_naive = measure naive and ws_tiled = measure tiled in
  Alcotest.(check bool)
    (Printf.sprintf "tiled working set smaller (%d < %d)" ws_tiled ws_naive)
    true (ws_tiled < ws_naive)

let suite =
  [
    Alcotest.test_case "cold misses" `Quick test_cold_only;
    Alcotest.test_case "immediate reuse" `Quick test_immediate_reuse;
    Alcotest.test_case "distance counting" `Quick test_distance_counting;
    Alcotest.test_case "duplicates counted once" `Quick
      test_duplicates_not_double_counted;
    Alcotest.test_case "line granularity" `Quick test_line_granularity;
    Alcotest.test_case "histogram totals" `Quick test_histogram_total;
    Alcotest.test_case "working set" `Quick test_working_set;
    QCheck_alcotest.to_alcotest prop_lru_oracle;
    Alcotest.test_case "tiling shrinks working set" `Quick
      test_mm_tiling_shrinks_working_set;
  ]
