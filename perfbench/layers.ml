(* Layer re-drive for the traced run.  After a tune, the benchmark calls
   each layer's public entry points again on the inputs that tune
   produced (its search-log entries and sweep groups) and times them
   one by one: the program itself carries no spans. *)

open Common

(* Where a search-log entry was measured. *)
type site = {
  engine : Core.Engine.t;
  kernel : Kernels.Kernel.t;
  n : int;
  mode : Core.Executor.mode;
  sampling : Memsim.Sampling.t option;
  variants : Core.Variant.t list;
}

let site engine kernel ~n ~mode =
  {
    engine;
    kernel;
    n;
    mode;
    sampling = Core.Engine.sampling engine;
    variants = Core.Derive.variants (Core.Engine.machine engine) kernel;
  }

let machine s = Core.Engine.machine s.engine

let variant s name =
  List.find_opt (fun (v : Core.Variant.t) -> v.Core.Variant.name = name) s.variants

(* [k] items spread evenly over [xs], in order. *)
let pick k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs else List.init k (fun i -> a.(i * n / k))

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- VM and simulator ---------- *)

type sim = {
  mutable entries : int;
  mutable events : int;
  mutable vm_s : float;
  mutable replay_s : float;
  mutable batch_s : float;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable tlb_misses : int;
  mutable accesses : int;
  mutable rows : (float array * float) list;  (** outcome counts, replay seconds *)
  mutable fed : int;
  mutable measured : int;
  mutable sampled_s : float;
}

let new_sim () =
  {
    entries = 0;
    events = 0;
    vm_s = 0.0;
    replay_s = 0.0;
    batch_s = 0.0;
    l1_hits = 0;
    l1_misses = 0;
    tlb_misses = 0;
    accesses = 0;
    rows = [];
    fed = 0;
    measured = 0;
    sampled_s = 0.0;
  }

let events_buf = Ir.Vm.Buf.create ~capacity:(1 lsl 16) ()
let marks_buf = Ir.Vm.Buf.create ~capacity:4096 ()

(* Budgets as the fast path sets them (Executor.measure_fast). *)
let budgets s =
  match Core.Executor.effective_mode s.sampling s.mode with
  | Core.Executor.Full -> (None, None)
  | Core.Executor.Budget b ->
    (Some b, if b < s.kernel.Kernels.Kernel.flops s.n then Some (max 1 (b / 2)) else None)

let counters_equal (a : Memsim.Counters.t) (b : Memsim.Counters.t) =
  a.loads = b.loads && a.stores = b.stores && a.prefetches = b.prefetches
  && a.hits = b.hits && a.misses = b.misses && a.tlb_misses = b.tlb_misses
  && a.writebacks = b.writebacks && a.stall_cycles = b.stall_cycles

(* Build, compile and run one logged point, then replay its events on
   fresh hierarchies: scalar [replay_packed], [Batch] at K=1 (which must
   agree counter for counter) and, on sampled sites, [replay_sampled]. *)
let redrive_entry acc s (e : Core.Search_log.entry) =
  match variant s e.Core.Search_log.variant with
  | None -> problem "re-drive: variant %s not derived" e.Core.Search_log.variant
  | Some v -> (
    let req =
      Core.Engine.request ~check:false ~prefetch:e.Core.Search_log.prefetch v ~n:s.n
        ~mode:s.mode ~bindings:e.Core.Search_log.bindings
    in
    match Span.with_ "engine.build" (fun () -> Core.Engine.build s.engine req) with
    | None -> problem "re-drive: %s does not instantiate" e.Core.Search_log.variant
    | Some prog ->
      let m = machine s in
      let vm =
        Span.with_ "vm.compile" (fun () ->
            Ir.Vm.compile ~register_budget:(Machine.available_registers m)
              ~params:(Kernels.Kernel.params s.kernel s.n) prog)
      in
      let flop_budget, warm_budget = budgets s in
      let r, vm_s =
        timed (fun () ->
            Span.with_ "vm.run" (fun () ->
                Ir.Vm.run ?flop_budget ?warm_budget ~events:events_buf ~marks:marks_buf vm))
      in
      let n = r.Ir.Vm.n_events and cut = r.Ir.Vm.cut_events in
      let ev = Array.sub r.Ir.Vm.events 0 n in
      let open Memsim in
      let h = Hierarchy.create m in
      if cut >= 0 then begin
        Hierarchy.warm_packed h ev ~pos:0 ~len:cut;
        Hierarchy.reset_counters h
      end;
      let (), replay_s =
        timed (fun () ->
            Span.with_ "sim.replay_packed" (fun () -> Hierarchy.replay_packed h ev ~pos:0 ~len:n))
      in
      let c = Hierarchy.counters h in
      let h1 = Hierarchy.create m in
      let b = Hierarchy.Batch.create [| h1 |] in
      if cut >= 0 then begin
        Hierarchy.Batch.warm_all b ev ~pos:0 ~len:cut;
        Hierarchy.Batch.reset_counters b
      end;
      let (), batch_s =
        timed (fun () ->
            Span.with_ "sim.batch_k1" (fun () -> Hierarchy.Batch.replay_all b ev ~pos:0 ~len:n))
      in
      Hierarchy.Batch.sync b;
      if not (counters_equal c (Hierarchy.counters h1)) then
        problem "Batch at K=1 and replay_packed disagree on %s %s"
          e.Core.Search_log.variant (Check.bindings_to_string e.Core.Search_log.bindings);
      acc.entries <- acc.entries + 1;
      acc.events <- acc.events + n;
      acc.vm_s <- acc.vm_s +. vm_s;
      acc.replay_s <- acc.replay_s +. replay_s;
      acc.batch_s <- acc.batch_s +. batch_s;
      acc.l1_hits <- acc.l1_hits + Counters.l1_hits c;
      acc.l1_misses <- acc.l1_misses + Counters.l1_misses c;
      acc.tlb_misses <- acc.tlb_misses + c.Counters.tlb_misses;
      acc.accesses <- acc.accesses + Counters.accesses c;
      acc.rows <-
        ( [|
            1.0;
            float_of_int (Counters.l1_hits c);
            float_of_int (Counters.l1_misses c);
            float_of_int c.Counters.tlb_misses;
          |],
          replay_s )
        :: acc.rows;
      match s.sampling with
      | None -> ()
      | Some sp ->
        let h2 = Hierarchy.create m in
        let start = if cut >= 0 then max 0 (cut - Sampling.prefix_cap sp) else 0 in
        if cut >= 0 then begin
          Hierarchy.warm_packed h2 ev ~pos:start ~len:(cut - start);
          Hierarchy.reset_counters h2
        end;
        let from = max cut 0 in
        let sampler = Sampling.sampler sp in
        let (), t =
          timed (fun () ->
              Span.with_ "sim.replay_sampled" (fun () ->
                  Hierarchy.replay_sampled h2 sampler ev ~pos:from ~len:(n - from)))
        in
        acc.fed <- acc.fed + Sampling.fed sampler;
        acc.measured <- acc.measured + Sampling.measured sampler;
        acc.sampled_s <- acc.sampled_s +. t)

(* The outcome split of the simulator: seconds of [replay_packed]
   regressed on (1, L1 hits, L1 misses, TLB refills) per trace, with
   non-negative weights. *)
let sim_metrics acc ~sim_s =
  let f = float_of_int in
  metric "sim.s" "s" sim_s;
  metric "sim.l1_hits" "count" (f acc.l1_hits);
  metric "sim.l1_misses" "count" (f acc.l1_misses);
  metric "sim.tlb_refills" "count" (f acc.tlb_misses);
  metric "vm.events" "count" (f acc.events);
  metric "vm.events_per_s" "1/s" (if acc.vm_s > 0.0 then f acc.events /. acc.vm_s else 0.0);
  metric "sim.events_per_s" "1/s" (if acc.replay_s > 0.0 then f acc.events /. acc.replay_s else 0.0);
  metric "sim.l1_miss_ratio" "ratio"
    (if acc.accesses > 0 then f acc.l1_misses /. f (acc.l1_hits + acc.l1_misses) else 0.0);
  metric "sim.tlb_miss_ratio" "ratio"
    (if acc.accesses > 0 then f acc.tlb_misses /. f (acc.l1_hits + acc.l1_misses) else 0.0);
  metric "sim.batch_k1_ratio" "ratio" (if acc.batch_s > 0.0 then acc.replay_s /. acc.batch_s else 0.0);
  (* a constant per replay call absorbs fixed costs *)
  let w, residual =
    if acc.rows = [] then ([| 0.0; 0.0; 0.0; 0.0 |], 0.0)
    else Stats.nnls (List.map fst acc.rows) (List.map snd acc.rows)
  in
  metric "sim.ns_per_l1_hit" "ns" (w.(1) *. 1e9);
  metric "sim.ns_per_l1_miss" "ns" (w.(2) *. 1e9);
  metric "sim.ns_per_tlb_refill" "ns" (w.(3) *. 1e9);
  metric "sim.fit_residual" "ratio" residual;
  metric "sim.sampled_fraction" "ratio" (if acc.fed > 0 then f acc.measured /. f acc.fed else 0.0);
  metric "sim.sampled_events_per_s" "1/s" (if acc.sampled_s > 0.0 then f acc.fed /. acc.sampled_s else 0.0);
  note "re-drive: %d points, %d events; fit over %d traces: %.2f ns/L1 hit, %.2f ns/L1 miss, %.2f ns/TLB refill, residual %.3f"
    acc.entries acc.events (List.length acc.rows) (w.(1) *. 1e9) (w.(2) *. 1e9) (w.(3) *. 1e9)
    residual

(* ---------- sweep groups: demand trace, synthesis, batched replay ---------- *)

let arrays_of plan = List.map fst plan

(* The biggest sweep group of a log: points sharing variant and
   bindings, differing only in prefetch plan; [(site, variant, bindings,
   plans)]. *)
let biggest_group (logs : (site * Core.Search_log.t) list) =
  let best = ref None in
  List.iter
    (fun (s, log) ->
      let h = Hashtbl.create 64 and order = ref [] in
      List.iter
        (fun (e : Core.Search_log.entry) ->
          let k = (e.Core.Search_log.variant, e.Core.Search_log.bindings) in
          let plan = List.sort compare e.Core.Search_log.prefetch in
          match Hashtbl.find_opt h k with
          | None ->
            Hashtbl.add h k [ plan ];
            order := k :: !order
          | Some ps -> if not (List.mem plan ps) then Hashtbl.replace h k (plan :: ps))
        (Core.Search_log.entries log);
      List.iter
        (fun k ->
          let plans = List.rev (Hashtbl.find h k) in
          let size = List.length plans in
          match !best with
          | Some (_, _, _, p) when List.length p >= size -> ()
          | _ -> if size >= 2 then best := Some (s, fst k, snd k, plans))
        (List.rev !order))
    logs;
  !best

let group_metrics ~reprice logs =
  match biggest_group logs with
  | None -> problem "no sweep group to re-drive"
  | Some (s, vname, bindings, plans) -> (
    match variant s vname with
    | None -> problem "re-drive: variant %s not derived" vname
    | Some v -> (
      let req = Core.Engine.request ~check:false v ~n:s.n ~mode:s.mode ~bindings in
      match Core.Engine.build s.engine req with
      | None -> problem "re-drive: %s does not instantiate" vname
      | Some prog ->
        let m = machine s in
        let mode = Core.Executor.effective_mode s.sampling s.mode in
        let dt, capture_s =
          timed (fun () ->
              Span.with_ "dtrace.capture" (fun () ->
                  Core.Demand_trace.capture m s.kernel ~n:s.n ~mode prog))
        in
        metric "dtrace.capture_s" "s" capture_s;
        let buf = Ir.Vm.Buf.create () in
        let events = ref 0 in
        let (), synth_s =
          timed (fun () ->
              Span.with_ "dtrace.synthesize" (fun () ->
                  List.iter
                    (fun plan ->
                      ignore (Core.Demand_trace.synthesize dt ~plan ~into:buf);
                      events := !events + Ir.Vm.Buf.length buf)
                    plans))
        in
        metric "dtrace.synth_events_per_s" "1/s" (float_of_int !events /. synth_s);
        let group = Array.of_list plans in
        let first = ref None in
        List.iter
          (fun k ->
            let batch = Array.init k (fun i -> group.(i mod Array.length group)) in
            let ms, t =
              timed (fun () ->
                  Span.with_ (Printf.sprintf "dtrace.measure_plans.k%d" k) (fun () ->
                      Core.Demand_trace.measure_plans ?sampling:s.sampling m s.kernel ~n:s.n dt
                        ~plans:batch))
            in
            metric (Printf.sprintf "dtrace.plans_per_s.k%d" k) "1/s" (float_of_int k /. t);
            let c = Core.Executor.cycles ms.(0) in
            match !first with
            | None -> first := Some c
            | Some c0 ->
              if c <> c0 then
                problem "measure_plans at K=%d prices plan 0 at %.17g cycles, K=1 at %.17g" k c c0)
          [ 1; 16; 64 ];
        note "sweep group: %s %s, %d plans, %d synthesized events" vname
          (Check.bindings_to_string bindings) (Array.length group) !events;
        if reprice then begin
          (* the repricer takes plans binding one array list *)
          let key = arrays_of group.(Array.length group - 1) in
          let same = Array.of_list (List.filter (fun p -> arrays_of p = key) plans) in
          let r, t =
            timed (fun () ->
                Span.with_ "dtrace.reprice_group" (fun () ->
                    Core.Demand_trace.reprice_group ?sampling:s.sampling m s.kernel ~n:s.n dt
                      ~plans:same))
          in
          match r with
          | Some _ -> metric "dtrace.reprice_plans_per_s" "1/s" (float_of_int (Array.length same) /. t)
          | None -> problem "reprice_group declined the biggest sweep group (%d plans)" (Array.length same)
        end))

(* ---------- fault draws, model scoring, database ---------- *)

let draw_ns faults keys =
  let keys = Array.of_list keys in
  let n = 20_000 in
  let (), t =
    timed (fun () ->
        Span.with_ "faults.draw" (fun () ->
            for i = 0 to n - 1 do
              ignore
                (Faults.draw faults ~key:keys.(i mod Array.length keys) ~trial:(i land 3) ~attempt:0)
            done))
  in
  t /. float_of_int n *. 1e9

let entry_key (e : Core.Search_log.entry) =
  String.concat "|"
    [ e.Core.Search_log.variant; Check.bindings_to_string e.Core.Search_log.bindings;
      Check.bindings_to_string e.Core.Search_log.prefetch ]

(* Analytical scores per second over logged points ([Predict.prepare]
   once per variant, as the engine does). *)
let model_evals_per_s (logs : (site * Core.Search_log.t) list) =
  let scored = ref 0 in
  let (), t =
    timed (fun () ->
        Span.with_ "model.score" (fun () ->
            List.iter
              (fun (s, log) ->
                let prepared = Hashtbl.create 8 in
                List.iter
                  (fun (e : Core.Search_log.entry) ->
                    match variant s e.Core.Search_log.variant with
                    | None -> ()
                    | Some v ->
                      let p =
                        match Hashtbl.find_opt prepared v.Core.Variant.name with
                        | Some p -> p
                        | None ->
                          let p = Core.Predict.prepare v ~n:s.n in
                          Hashtbl.add prepared v.Core.Variant.name p;
                          p
                      in
                      ignore
                        (Core.Predict.score (machine s) p ~bindings:e.Core.Search_log.bindings
                           ~prefetch:e.Core.Search_log.prefetch);
                      incr scored)
                  (Core.Search_log.entries log))
              logs))
  in
  if t > 0.0 then float_of_int !scored /. t else 0.0

(* Append and lookup cost on a scratch store, with records shaped like
   the engine's (digest keys, a few hundred bytes of payload). *)
let perfdb_costs dir =
  let file = Filename.concat dir "scratch.db" in
  let db = Perfdb.load ~lock:true file in
  let n = 400 in
  let key i = Digest.to_hex (Digest.string (string_of_int i)) in
  let payload = String.make 240 'x' in
  let (), append_s =
    timed (fun () ->
        Span.with_ "perfdb.append" (fun () ->
            for i = 0 to n - 1 do
              ignore
                (Perfdb.add_measurement db ~key:(key i) ~kernel:"matmul" ~machine:"SGI R10000" ~n:64
                   ~payload)
            done))
  in
  let lookups = 20 * n in
  let found = ref 0 in
  let (), lookup_s =
    timed (fun () ->
        Span.with_ "perfdb.lookup" (fun () ->
            for i = 0 to lookups - 1 do
              match Perfdb.find_measurement db ~key:(key (i mod (2 * n))) with
              | Some _ -> incr found
              | None -> ()
            done))
  in
  Perfdb.close db;
  if !found <> lookups / 2 then problem "scratch store found %d of %d keys" !found (lookups / 2);
  metric "perfdb.append_us" "us" (append_s /. float_of_int n *. 1e6);
  metric "perfdb.lookup_us" "us" (lookup_s /. float_of_int lookups *. 1e6)

(* ---------- the engine's own counters ---------- *)

let engine_metrics (s : Core.Engine.stats) =
  let f = float_of_int in
  let ratio a b = if b > 0 then f a /. f b else 0.0 in
  metric "engine.eval_s" "s" s.Core.Engine.eval_seconds;
  metric "engine.memo_s" "s" s.Core.Engine.memo_seconds;
  metric "engine.hit_ratio" "ratio" (ratio s.Core.Engine.hits (s.Core.Engine.hits + s.Core.Engine.fresh));
  metric "engine.batched_groups" "count" (f s.Core.Engine.batched_groups);
  metric "engine.batched_share" "ratio" (ratio s.Core.Engine.batched_candidates s.Core.Engine.fresh);
  metric "engine.trace_hits" "count" (f s.Core.Engine.trace_hits);
  metric "engine.trace_fills" "count" (f s.Core.Engine.trace_fills);
  metric "engine.fill_s" "s" s.Core.Engine.fill_seconds;
  metric "engine.trials_run" "count" (f s.Core.Engine.trials_run);
  metric "engine.early_stops" "count" (f s.Core.Engine.early_stops);
  metric "engine.retries" "count" (f s.Core.Engine.retries);
  metric "vm.compile_s" "s" s.Core.Engine.compile_seconds;
  metric "vm.exec_s" "s" s.Core.Engine.exec_seconds;
  metric "dtrace.repriced" "count" (f s.Core.Engine.repriced);
  metric "model.prefiltered" "count" (f s.Core.Engine.prefiltered)
