(* Differential tests for the bytecode fast path: the VM against the
   closure interpreter (stats, event streams, array contents), batched
   packed replay against the sink-driven hierarchy, demand-trace
   prefetch synthesis against actually transformed programs, and the
   executor/engine fast paths against the closure reference. *)

module Kernel = Kernels.Kernel
module Rng = Check.Rng
module Gen = Check.Gen
module Pipe = Check.Pipe
module Vm = Ir.Vm
module Exec = Ir.Exec

let machine = Machine.sgi_r10000

let all_kernels =
  [
    Kernels.Matmul.kernel;
    Kernels.Jacobi3d.kernel;
    Kernels.Matvec.kernel;
    Kernels.Stencil2d.kernel;
    Kernels.Wavefront.kernel;
  ]

let check_int = Alcotest.(check int)

let check_stats ctx (a : Exec.stats) (b : Exec.stats) =
  check_int (ctx ^ ": flops") a.Exec.flops b.Exec.flops;
  check_int (ctx ^ ": iterations") a.Exec.loop_iterations b.Exec.loop_iterations;
  check_int (ctx ^ ": moves") a.Exec.register_moves b.Exec.register_moves;
  check_int (ctx ^ ": spills") a.Exec.spilled_scalars b.Exec.spilled_scalars;
  Alcotest.(check bool) (ctx ^ ": completed") a.Exec.completed b.Exec.completed

let check_counters ctx (a : Memsim.Counters.t) (b : Memsim.Counters.t) =
  check_int (ctx ^ ": loads") a.Memsim.Counters.loads b.Memsim.Counters.loads;
  check_int (ctx ^ ": stores") a.Memsim.Counters.stores b.Memsim.Counters.stores;
  check_int (ctx ^ ": prefetches") a.Memsim.Counters.prefetches
    b.Memsim.Counters.prefetches;
  Alcotest.(check (array int))
    (ctx ^ ": hits") a.Memsim.Counters.hits b.Memsim.Counters.hits;
  Alcotest.(check (array int))
    (ctx ^ ": misses") a.Memsim.Counters.misses b.Memsim.Counters.misses;
  check_int (ctx ^ ": tlb misses") a.Memsim.Counters.tlb_misses
    b.Memsim.Counters.tlb_misses;
  check_int (ctx ^ ": writebacks") a.Memsim.Counters.writebacks
    b.Memsim.Counters.writebacks;
  check_int (ctx ^ ": stall cycles") a.Memsim.Counters.stall_cycles
    b.Memsim.Counters.stall_cycles;
  check_int
    (ctx ^ ": hidden cycles")
    a.Memsim.Counters.prefetch_hidden_cycles
    b.Memsim.Counters.prefetch_hidden_cycles

(* Event stream of the closure interpreter, packed the same way the VM
   packs its buffer. *)
let closure_events ?flop_budget ?register_budget ~params program =
  let trace = Memsim.Trace.create () in
  let result =
    Exec.run ~sink:(Memsim.Trace.sink trace) ?flop_budget ?register_budget
      ~params program
  in
  (result, Array.sub (Memsim.Trace.raw trace) 0 (Memsim.Trace.length trace))

let check_events ctx (expected : int array) (events : int array) n_events =
  check_int (ctx ^ ": event count") (Array.length expected) n_events;
  (* Element-wise compare without Alcotest's O(n) diff printing cost on
     the happy path. *)
  let ok = ref true in
  for i = 0 to n_events - 1 do
    if expected.(i) <> events.(i) then ok := false
  done;
  if not !ok then Alcotest.failf "%s: event streams differ" ctx

(* Run one program through the interpreter and the compute-mode VM and
   require bit-identical stats, events and array contents. *)
let differential ?(flop_budget : int option) ?register_budget ~params ctx
    program =
  let closure, expected =
    closure_events ?flop_budget ?register_budget ~params program
  in
  let vm = Vm.compile ~compute:true ?register_budget ~params program in
  let r = Vm.run ?flop_budget vm in
  check_stats ctx closure.Exec.stats r.Vm.stats;
  check_events ctx expected r.Vm.events r.Vm.n_events;
  let closure_arrays = closure.Exec.arrays in
  let vm_arrays = Vm.arrays vm in
  check_int (ctx ^ ": array count") (List.length closure_arrays)
    (List.length vm_arrays);
  List.iter2
    (fun (name_a, data_a) (name_b, data_b) ->
      Alcotest.(check string) (ctx ^ ": array name") name_a name_b;
      if data_a <> data_b then
        Alcotest.failf "%s: array %s contents differ" ctx name_a)
    closure_arrays vm_arrays;
  (* The address-only mode must emit the same stream and stats while
     allocating no float storage. *)
  let fast = Vm.compile ?register_budget ~params program in
  let rf = Vm.run ?flop_budget fast in
  check_stats (ctx ^ " [fast]") closure.Exec.stats rf.Vm.stats;
  check_events (ctx ^ " [fast]") expected rf.Vm.events rf.Vm.n_events

(* --- kernels x phase-1 variants x sampled points --- *)

let test_variants_differential () =
  List.iter
    (fun (kernel : Kernel.t) ->
      let rng = Rng.of_list [ Rng.hash_string kernel.Kernel.name; 1 ] in
      List.iter
        (fun v ->
          let n = 2 + Rng.int rng 14 in
          match Gen.point rng ~n v with
          | None -> ()
          | Some bindings -> (
            match Core.Variant.instantiate v ~bindings with
            | program ->
              let params = Kernel.params kernel n in
              let ctx = kernel.Kernel.name ^ "/" ^ v.Core.Variant.name in
              differential ~params ctx program;
              differential ~flop_budget:(max 1 (kernel.Kernel.flops n / 3))
                ~params (ctx ^ " budget") program
            | exception Invalid_argument _ -> ()))
        (Core.Derive.variants machine kernel))
    all_kernels

(* --- kernels x random transformation pipelines --- *)

let test_random_pipelines_differential () =
  List.iter
    (fun (kernel : Kernel.t) ->
      for trial = 0 to 7 do
        let rng =
          Rng.of_list [ Rng.hash_string kernel.Kernel.name; 77; trial ]
        in
        let n = Gen.size rng kernel in
        match Pipe.apply kernel (Gen.pipeline rng ~n kernel) with
        | exception Invalid_argument _ -> ()
        | program ->
          let params = Kernel.params kernel n in
          let ctx = Printf.sprintf "%s pipe %d" kernel.Kernel.name trial in
          differential ~params ~register_budget:8 ctx program
      done)
    all_kernels

(* --- flop and warm budgets at innermost-iteration boundaries --- *)

(* Flop counts at the end of every innermost-loop iteration, plus 0
   (before the first), by a direct walk of the program with the
   interpreter's loop semantics. *)
let iteration_boundaries ~params (p : Ir.Program.t) =
  let env = Hashtbl.create 8 in
  List.iter (fun (x, v) -> Hashtbl.replace env x v) params;
  let lookup = Hashtbl.find env in
  let flops = ref 0 and acc = ref [ 0 ] in
  let rec go = function
    | Ir.Stmt.Assign (_, rhs) -> flops := !flops + Ir.Fexpr.flops rhs
    | Ir.Stmt.Prefetch _ -> ()
    | Ir.Stmt.Loop l ->
      let innermost =
        not
          (List.exists
             (function Ir.Stmt.Loop _ -> true | _ -> false)
             l.Ir.Stmt.body)
      in
      let hi = Ir.Bexp.eval lookup l.Ir.Stmt.hi in
      let i = ref (Ir.Bexp.eval lookup l.Ir.Stmt.lo) in
      while !i <= hi do
        Hashtbl.replace env l.Ir.Stmt.var !i;
        List.iter go l.Ir.Stmt.body;
        if innermost then acc := !flops :: !acc;
        i := !i + l.Ir.Stmt.step
      done
  in
  List.iter go p.Ir.Program.body;
  List.sort_uniq compare !acc

(* Flop budgets one below and one above each boundary. *)
let boundary_budgets ~params p =
  List.sort_uniq compare
    (List.concat_map (fun b -> [ b - 1; b + 1 ]) (iteration_boundaries ~params p))

(* At every boundary budget [b], plain and marked VMs against the
   closure interpreter: a flop budget [b] stops where the interpreter
   stops; a warm budget [b] cuts where an interpreter run at flop
   budget [b] ends, and leaves the stream and stats of the full run;
   both at once cut at the stop. *)
let budget_sweep ?register_budget ~params ctx program =
  let full, full_events = closure_events ?register_budget ~params program in
  let vms =
    [
      ("fast", Vm.compile ?register_budget ~params program);
      ("marks", Vm.compile ~marks:true ?register_budget ~params program);
    ]
  in
  List.iter
    (fun b ->
      let stopped, stopped_events =
        closure_events ~flop_budget:b ?register_budget ~params program
      in
      let cut = Array.length stopped_events in
      List.iter
        (fun (mode, vm) ->
          let ctx = Printf.sprintf "%s [%s] b=%d" ctx mode b in
          let check ctx (closure, expected) ~cut_events (r : Vm.run) =
            check_stats ctx closure.Exec.stats r.Vm.stats;
            check_events ctx expected r.Vm.events r.Vm.n_events;
            check_int (ctx ^ ": cut") cut_events r.Vm.cut_events
          in
          check (ctx ^ " budget") (stopped, stopped_events) ~cut_events:(-1)
            (Vm.run ~flop_budget:b vm);
          check (ctx ^ " warm") (full, full_events) ~cut_events:cut
            (Vm.run ~warm_budget:b vm);
          check (ctx ^ " both") (stopped, stopped_events) ~cut_events:cut
            (Vm.run ~flop_budget:b ~warm_budget:b vm))
        vms)
    (boundary_budgets ~params program)

(* Innermost bodies the kernels lack: step > 1 with a negative
   coefficient, zero-trip (triangular) loops, a touch-free body of
   register flops and moves, and a prefetch-only body. *)
let edge_programs =
  let open Ir in
  let x i j = Reference.make "x" [ i; j ] and y j = Reference.make "y" [ j ] in
  let v = Aff.var and c = Aff.const in
  let n1 = Aff.add_const (v "n") (-1) in
  let r name = Reference.scalar name in
  let decls =
    [
      Decl.heap "x" [ v "n"; Aff.add_const (v "n") 8 ];
      Decl.heap "y" [ Aff.add_const (v "n") 8 ];
      Decl.register "r0";
      Decl.register "r1";
    ]
  in
  let make name body = Program.make ~name ~params:[ "n" ] ~decls body in
  let row_update i = Stmt.assign (x i (c 0)) Fexpr.(ref_ (x i (c 0)) + const 1.0) in
  [
    make "step"
      [
        Stmt.loop_aff ~step:2 "i" ~lo:(c 0) ~hi:n1
          [
            Stmt.loop_aff ~step:3 "j" ~lo:(c 1) ~hi:n1
              [
                Stmt.assign (x (v "i") (v "j"))
                  Fexpr.(ref_ (x (v "i") (v "j")) * ref_ (y (Aff.sub n1 (v "j"))));
                Stmt.Prefetch (y (Aff.add_const (v "j") 4));
              ];
          ];
      ];
    make "zero-trip"
      [
        Stmt.loop_aff "i" ~lo:(c 0) ~hi:n1
          [
            Stmt.loop_aff "j" ~lo:(c 0) ~hi:(Aff.add_const (v "i") (-1))
              [
                Stmt.assign (x (v "i") (v "j"))
                  Fexpr.(ref_ (x (v "j") (v "i")) + ref_ (y (v "j")));
              ];
            row_update (v "i");
          ];
      ];
    make "touch-free"
      [
        Stmt.loop_aff "i" ~lo:(c 0) ~hi:n1
          [
            Stmt.loop_aff "j" ~lo:(c 0) ~hi:n1
              [
                Stmt.assign (r "r0") Fexpr.((ref_ (r "r0") * ref_ (r "r1")) + const 1.0);
                Stmt.assign (r "r1") (Fexpr.ref_ (r "r0"));
              ];
            Stmt.assign (y (v "i")) (Fexpr.ref_ (r "r1"));
          ];
      ];
    make "prefetch-only"
      [
        Stmt.loop_aff "i" ~lo:(c 0) ~hi:n1
          [
            Stmt.loop_aff "j" ~lo:(c 0) ~hi:n1
              [ Stmt.Prefetch (x (v "i") (Aff.add_const (v "j") 4)) ];
            row_update (v "i");
          ];
      ];
  ]

let test_budget_boundaries () =
  List.iter
    (fun program ->
      List.iter
        (fun n ->
          budget_sweep ~params:[ ("n", n) ]
            (Printf.sprintf "%s n=%d" program.Ir.Program.name n)
            program)
        [ 1; 5 ])
    edge_programs;
  List.iter
    (fun (kernel : Kernel.t) ->
      let rng = Rng.of_list [ Rng.hash_string kernel.Kernel.name; 15 ] in
      let small () = kernel.Kernel.min_size + Rng.int rng 3 in
      List.iter
        (fun v ->
          let n = small () in
          match Gen.point rng ~n v with
          | None -> ()
          | Some bindings -> (
            match Core.Variant.instantiate v ~bindings with
            | program ->
              budget_sweep ~params:(Kernel.params kernel n)
                (kernel.Kernel.name ^ "/" ^ v.Core.Variant.name)
                program
            | exception Invalid_argument _ -> ()))
        (Core.Derive.variants machine kernel);
      for trial = 0 to 2 do
        let n = small () in
        match Pipe.apply kernel (Gen.pipeline rng ~n kernel) with
        | exception Invalid_argument _ -> ()
        | program ->
          budget_sweep ~register_budget:8 ~params:(Kernel.params kernel n)
            (Printf.sprintf "%s pipe %d" kernel.Kernel.name trial)
            program
      done)
    all_kernels

(* After one sizing run, [Vm.run] into the same buffers adds under 1
   minor word per 1000 events: plain and marked, whole and cut by warm
   and flop budgets (jacobi3d n=24, as the replay allocation test). *)
let test_run_allocation_free () =
  let kernel = Kernels.Jacobi3d.kernel in
  let n = 24 in
  let params = Kernel.params kernel n in
  let register_budget = Machine.available_registers Machine.sgi_r10000_mini in
  let events = Vm.Buf.create () and marks = Vm.Buf.create () in
  let budget = kernel.Kernel.flops n / 2 in
  List.iter
    (fun marked ->
      let vm =
        Vm.compile ~marks:marked ~register_budget ~params kernel.Kernel.program
      in
      List.iter
        (fun (what, flop_budget, warm_budget) ->
          let run () = Vm.run ?flop_budget ?warm_budget ~events ~marks vm in
          ignore (run ());
          let before = Gc.minor_words () in
          let r = run () in
          let words = Gc.minor_words () -. before in
          Alcotest.(check bool)
            (Printf.sprintf "%s%s: %.0f minor words over %d events" what
               (if marked then " marked" else "")
               words r.Vm.n_events)
            true
            (words *. 1000.0 < float_of_int r.Vm.n_events))
        [
          ("whole", None, None);
          ("cut", Some budget, Some (budget / 2));
        ])
    [ false; true ]

(* --- warm-up cut position --- *)

(* The VM's [cut_events] must equal the event count of a separate
   closure run at the warm-up budget: that is precisely the prefix the
   closure path replays (and discards) before measuring. *)
let test_warm_cut_matches_closure_prefix () =
  let kernel = Kernels.Matmul.kernel in
  let n = 20 in
  let params = Kernel.params kernel n in
  let v = List.hd (Core.Derive.variants machine kernel) in
  let rng = Rng.of_list [ 5 ] in
  match Gen.point rng ~n v with
  | None -> Alcotest.fail "no point for matmul variant"
  | Some bindings ->
    let program = Core.Variant.instantiate v ~bindings in
    let budget = kernel.Kernel.flops n / 2 in
    let warm = max 1 (budget / 2) in
    let _, warm_events =
      closure_events ~flop_budget:warm ~params program
    in
    let vm = Vm.compile ~params program in
    let r = Vm.run ~flop_budget:budget ~warm_budget:warm vm in
    check_int "cut at warm prefix" (Array.length warm_events) r.Vm.cut_events;
    let full = Vm.run ~flop_budget:budget vm in
    check_int "full stream unaffected by warm cut" full.Vm.n_events
      r.Vm.n_events

(* --- packed replay vs the sink-driven hierarchy --- *)

(* The replay kernel probes L1 ways 0 and 1 inline and the rest out of
   line, and services misses level by level: L1 associativity 2
   (R10000, and its miss-heavy 1/16 scale), 1 (UltraSparc) and 8 with
   three levels (modern) cover every probe and service path. *)
let replay_machines =
  [ machine; Machine.ultrasparc_iie; Machine.modern_3level; Machine.sgi_r10000_mini ]

let test_replay_packed_vs_sink () =
  let kernel = Kernels.Stencil2d.kernel in
  let n = 24 in
  let params = Kernel.params kernel n in
  let base = kernel.Kernel.program in
  let prefetched =
    match Transform.Prefetch_insert.candidates base with
    | [] -> base
    | a :: _ ->
      Transform.Prefetch_insert.apply base ~array:a ~distance:4
        ~line_elems:(Machine.line_elems machine 0)
  in
  List.iter
    (fun program ->
      let trace = Memsim.Trace.of_program ~params program in
      List.iter
        (fun m ->
          let by_sink = Memsim.Hierarchy.create m in
          Memsim.Trace.replay trace (Memsim.Hierarchy.sink by_sink);
          let packed = Memsim.Hierarchy.create m in
          Memsim.Trace.replay_packed trace packed;
          check_counters "replay_packed vs sink"
            (Memsim.Hierarchy.counters by_sink)
            (Memsim.Hierarchy.counters packed);
          check_int "now" (Memsim.Hierarchy.now by_sink)
            (Memsim.Hierarchy.now packed))
        replay_machines)
    [ base; prefetched ]

(* --- demand-trace prefetch synthesis --- *)

(* Synthesized streams must match executing the transformed program,
   for single- and multi-array plans, and must reproduce its warm cut —
   also at flop budgets one below and one above every innermost-
   iteration boundary, where the marked capture stops or cuts on the
   crossing iteration. *)
let test_prefetch_synthesis () =
  let line = Machine.line_elems machine 0 in
  let register_budget = Machine.available_registers machine in
  let half (kernel : Kernel.t) n =
    [ Core.Executor.Full; Core.Executor.Budget (max 2 (kernel.Kernel.flops n / 2)) ]
  in
  let boundaries (kernel : Kernel.t) n =
    List.map
      (fun b -> Core.Executor.Budget b)
      (boundary_budgets ~params:(Kernel.params kernel n) kernel.Kernel.program)
  in
  let matmul = Kernels.Matmul.kernel and jacobi3d = Kernels.Jacobi3d.kernel in
  List.iter
    (fun ((kernel : Kernel.t), n, modes) ->
      let params = Kernel.params kernel n in
      let program = kernel.Kernel.program in
      let arrays = Transform.Prefetch_insert.candidates program in
      if arrays = [] then Alcotest.failf "%s: no candidates" kernel.Kernel.name;
      let plans =
        [
          [ (List.hd arrays, 2) ];
          List.sort compare (List.mapi (fun i a -> (a, 2 + i)) arrays);
        ]
      in
      List.iter
        (fun mode ->
          let dt = Core.Demand_trace.capture machine kernel ~n ~mode program in
          List.iter
            (fun plan ->
              let transformed =
                List.fold_left
                  (fun p (array, distance) ->
                    Transform.Prefetch_insert.apply p ~array ~distance
                      ~line_elems:line)
                  program
                  (List.sort compare plan)
              in
              let vm = Vm.compile ~register_budget ~params transformed in
              let flop_budget, warm_budget =
                match mode with
                | Core.Executor.Full -> (None, None)
                | Core.Executor.Budget b ->
                  ( Some b,
                    if b < kernel.Kernel.flops n then Some (max 1 (b / 2))
                    else None )
              in
              let r = Vm.run ?flop_budget ?warm_budget vm in
              (* Prefetch statements leave execution statistics alone, so
                 the captured stats serve every plan. *)
              check_stats
                (kernel.Kernel.name ^ ": trace stats")
                r.Vm.stats
                (Core.Demand_trace.stats dt);
              let buf = Vm.Buf.create () in
              let cut = Core.Demand_trace.synthesize dt ~plan ~into:buf in
              let ctx =
                Printf.sprintf "%s synth [%s]" kernel.Kernel.name
                  (String.concat ","
                     (List.map (fun (a, d) -> Printf.sprintf "%s:%d" a d) plan))
              in
              check_events ctx
                (Array.sub r.Vm.events 0 r.Vm.n_events)
                (Vm.Buf.data buf) (Vm.Buf.length buf);
              check_int (ctx ^ ": cut") r.Vm.cut_events cut)
            plans)
        modes)
    [
      (matmul, 16, half matmul 16);
      (jacobi3d, 8, half jacobi3d 8);
      (matmul, 4, boundaries matmul 4);
      (jacobi3d, 6, boundaries jacobi3d 6);
    ]

(* --- executor: fast path vs closures --- *)

let check_measurement ctx (a : Core.Executor.measurement)
    (b : Core.Executor.measurement) =
  check_stats (ctx ^ " stats") a.Core.Executor.stats b.Core.Executor.stats;
  check_counters (ctx ^ " counters") a.Core.Executor.counters
    b.Core.Executor.counters;
  Alcotest.(check (float 0.0))
    (ctx ^ " cycles")
    (Core.Executor.cycles a) (Core.Executor.cycles b);
  Alcotest.(check (float 0.0)) (ctx ^ " scale") a.Core.Executor.scale
    b.Core.Executor.scale

let test_executor_paths_agree () =
  let kernel = Kernels.Matmul.kernel in
  let n = 24 in
  let program = kernel.Kernel.program in
  List.iter
    (fun mode ->
      let fast =
        Core.Executor.measure ~path:Core.Executor.Fast machine kernel ~n ~mode
          program
      in
      let slow =
        Core.Executor.measure ~path:Core.Executor.Closures machine kernel ~n
          ~mode program
      in
      check_measurement "executor" fast slow)
    [ Core.Executor.Full; Core.Executor.Budget (kernel.Kernel.flops n / 4) ]

(* --- engine: fast path vs closures, and demand-trace reuse --- *)

let test_engine_paths_agree () =
  let kernel = Kernels.Matmul.kernel in
  let n = 32 in
  let v = List.hd (Core.Derive.variants machine kernel) in
  let bindings =
    match Core.Search.model_point machine ~n v with
    | Some b -> b
    | None -> Alcotest.fail "no model point"
  in
  let mode = Core.Executor.Budget 20_000 in
  let a, b =
    match
      Transform.Prefetch_insert.candidates
        (Core.Variant.instantiate v ~bindings)
    with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "expected two prefetch candidates"
  in
  let requests =
    [
      Core.Engine.request v ~n ~mode ~bindings;
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (a, 2) ];
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (b, 4) ];
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (a, 2); (b, 4) ];
    ]
  in
  let eval path =
    let engine = Core.Engine.create ~path machine in
    let evs =
      List.map
        (fun r ->
          match Core.Engine.evaluate engine r with
          | Some ev -> ev
          | None -> Alcotest.fail "evaluation failed")
        requests
    in
    (engine, evs)
  in
  let fast_engine, fast = eval Core.Executor.Fast in
  let _, slow = eval Core.Executor.Closures in
  List.iteri
    (fun i (f, s) ->
      check_measurement
        (Printf.sprintf "engine req %d" i)
        f.Core.Engine.measurement s.Core.Engine.measurement)
    (List.combine fast slow);
  (* Single-shot candidates never capture a trace (a capture costs
     more than measuring the one candidate directly); only a batched
     multi-plan group amortizes a fill. *)
  let stats = Core.Engine.stats fast_engine in
  check_int "no single-shot trace fill" 0 stats.Core.Engine.trace_fills;
  check_int "no single-shot trace hits" 0 stats.Core.Engine.trace_hits;
  (* Batch evaluation (parallel workers) matches the serial path. *)
  let batch_engine = Core.Engine.create ~jobs:3 machine in
  List.iteri
    (fun i (b, s) ->
      match b with
      | None -> Alcotest.fail "batch evaluation failed"
      | Some b ->
        check_measurement
          (Printf.sprintf "batch req %d" i)
          b.Core.Engine.measurement s.Core.Engine.measurement)
    (List.combine (Core.Engine.evaluate_batch batch_engine requests) slow);
  (* The three prefetch candidates share one bindings point, so the
     batch groups them over a single captured trace. *)
  let bstats = Core.Engine.stats batch_engine in
  check_int "one grouped trace fill" 1 bstats.Core.Engine.trace_fills

(* --- cache unit tests --- *)

let small_cache ~assoc =
  Memsim.Cache.create
    {
      Machine.name = "test";
      size_bytes = 4 * assoc * 32;
      line_bytes = 32;
      assoc;
      hit_cycles = 1;
    }

(* [access] (plus [insert] on a miss) against a reference true-LRU
   model: per set, a most-recent-first list of (line, fill, dirty).
   Associativity 1, 2 and 4 covers the direct, two-way and [find_way]
   probes; fills, dirty write-back evictions and occupancy must all
   agree. *)
let test_cache_access_matches_model () =
  List.iter
    (fun assoc ->
      let c = small_cache ~assoc in
      let sets = Memsim.Cache.sets c in
      let model = Array.make sets [] in
      let rng = Rng.make 31 in
      for now = 0 to 999 do
        let line = Rng.int rng (3 * assoc * sets / 2) in
        let write = Rng.bool rng in
        let set = line land (sets - 1) in
        let got = Memsim.Cache.access c ~line ~write in
        match List.partition (fun (l, _, _) -> l = line) model.(set) with
        | [ (_, fill, dirty) ], rest ->
          model.(set) <- (line, fill, dirty || write) :: rest;
          check_int (Printf.sprintf "assoc %d: hit fill" assoc) fill got
        | _ ->
          check_int (Printf.sprintf "assoc %d: miss" assoc) Memsim.Cache.absent got;
          let ways = model.(set) in
          let victim_dirty =
            List.length ways = assoc
            && (let _, _, d = List.nth ways (assoc - 1) in d)
          in
          model.(set) <-
            (line, now + 10, write) :: List.filteri (fun i _ -> i < assoc - 1) ways;
          Alcotest.(check bool)
            (Printf.sprintf "assoc %d: dirty eviction" assoc)
            victim_dirty
            (Memsim.Cache.insert c ~now ~ready:(now + 10) ~dirty:write ~line)
      done;
      check_int "same occupancy"
        (Array.fold_left (fun n l -> n + List.length l) 0 model)
        (Memsim.Cache.occupancy c))
    [ 1; 2; 4 ]

let test_cache_insert_fills_invalid_ways_first () =
  let c = small_cache ~assoc:4 in
  (* Same set: 4 sets, so lines 0,4,8,12,16 map to set 0. *)
  for i = 0 to 3 do
    let evicted_dirty =
      Memsim.Cache.insert c ~now:i ~ready:i ~dirty:true ~line:(i * 4)
    in
    Alcotest.(check bool) "no eviction while ways free" false evicted_dirty
  done;
  check_int "all ways used" 4 (Memsim.Cache.occupancy c);
  (* A fifth line must evict the LRU (line 0, stamp 0) — and it was
     dirty, so the insert reports a writeback. *)
  Alcotest.(check bool) "LRU eviction is dirty" true
    (Memsim.Cache.insert c ~now:10 ~ready:10 ~dirty:false ~line:16);
  Alcotest.(check bool) "LRU victim gone" false
    (Memsim.Cache.resident c ~line:0);
  Alcotest.(check bool) "MRU survivor stays" true
    (Memsim.Cache.resident c ~line:12)

let test_cache_set_dirty_absent_noop () =
  let c = small_cache ~assoc:2 in
  Memsim.Cache.set_dirty c ~line:5;
  check_int "still empty" 0 (Memsim.Cache.occupancy c);
  ignore (Memsim.Cache.insert c ~now:0 ~ready:0 ~dirty:false ~line:5);
  Memsim.Cache.set_dirty c ~line:5;
  (* Evicting the line must now report a dirty writeback. *)
  ignore (Memsim.Cache.insert c ~now:1 ~ready:1 ~dirty:false ~line:13);
  Alcotest.(check bool) "marked dirty" true
    (Memsim.Cache.insert c ~now:2 ~ready:2 ~dirty:false ~line:21)

(* --- trace buffer reuse --- *)

let test_trace_clear_and_capacity () =
  let t = Memsim.Trace.create ~capacity:2 () in
  let sink = Memsim.Trace.sink t in
  for i = 0 to 99 do
    sink.Ir.Sink.load (8 * i)
  done;
  sink.Ir.Sink.store 0;
  check_int "length" 101 (Memsim.Trace.length t);
  check_int "loads" 100 (Memsim.Trace.loads t);
  check_int "stores" 1 (Memsim.Trace.stores t);
  Memsim.Trace.clear t;
  check_int "cleared length" 0 (Memsim.Trace.length t);
  check_int "cleared loads" 0 (Memsim.Trace.loads t);
  check_int "cleared stores" 0 (Memsim.Trace.stores t);
  sink.Ir.Sink.prefetch 16;
  check_int "reusable after clear" 1 (Memsim.Trace.prefetches t);
  check_int "packed tag" Ir.Sink.tag_prefetch
    (Ir.Sink.packed_tag (Memsim.Trace.raw t).(0));
  check_int "packed addr" 16 (Ir.Sink.packed_addr (Memsim.Trace.raw t).(0))

let suite =
  [
    Alcotest.test_case "variants: vm = interpreter" `Quick
      test_variants_differential;
    Alcotest.test_case "random pipelines: vm = interpreter" `Quick
      test_random_pipelines_differential;
    Alcotest.test_case "budget boundaries: vm = interpreter" `Quick
      test_budget_boundaries;
    Alcotest.test_case "vm run allocates nothing per event" `Quick
      test_run_allocation_free;
    Alcotest.test_case "warm cut = closure warm prefix" `Quick
      test_warm_cut_matches_closure_prefix;
    Alcotest.test_case "replay_packed = sink replay" `Quick
      test_replay_packed_vs_sink;
    Alcotest.test_case "prefetch synthesis = transformed program" `Quick
      test_prefetch_synthesis;
    Alcotest.test_case "executor: fast = closures" `Quick
      test_executor_paths_agree;
    Alcotest.test_case "engine: fast = closures, traces reused" `Quick
      test_engine_paths_agree;
    Alcotest.test_case "cache access = LRU reference model" `Quick
      test_cache_access_matches_model;
    Alcotest.test_case "cache insert prefers invalid ways" `Quick
      test_cache_insert_fills_invalid_ways_first;
    Alcotest.test_case "set_dirty on absent line" `Quick
      test_cache_set_dirty_absent_noop;
    Alcotest.test_case "trace clear and growth" `Quick
      test_trace_clear_and_capacity;
  ]
