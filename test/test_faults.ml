(* Tests for the fault-injection plan and the engine's resilient
   measurement protocol: seeded determinism, retry/quarantine, robust
   aggregation, fast-path crash degradation and checkpoint recovery. *)

module Matmul = Kernels.Matmul

let sgi = Machine.sgi_r10000
let fast = Core.Executor.Budget 30_000

let variant () = List.hd (Core.Derive.variants sgi Matmul.kernel)

let some_point v ~n =
  match Core.Search.model_point ~n v with
  | Some bindings -> bindings
  | None -> Alcotest.fail "no model point for test variant"

let answer (r : Core.Eco.result) =
  let o = r.Core.Eco.outcome in
  ( o.Core.Search.variant.Core.Variant.name,
    o.Core.Search.bindings,
    o.Core.Search.prefetch,
    Core.Executor.cycles r.Core.Eco.measurement )

(* --- the plan itself: pure, seeded, robust aggregation --- *)

let test_draw_deterministic () =
  let t = Faults.make ~seed:9 ~noise:0.1 ~transient:0.3 ~hang:0.1 () in
  for trial = 0 to 20 do
    for attempt = 0 to 3 do
      let a = Faults.draw t ~key:"k1|x" ~trial ~attempt in
      let b = Faults.draw t ~key:"k1|x" ~trial ~attempt in
      Alcotest.(check bool) "same args, same fate" true (a = b)
    done
  done;
  (* Distinct keys see independent streams: at these rates they cannot
     all agree across 84 draws. *)
  let differs = ref false in
  for trial = 0 to 20 do
    for attempt = 0 to 3 do
      if
        Faults.draw t ~key:"k1|x" ~trial ~attempt
        <> Faults.draw t ~key:"k2|y" ~trial ~attempt
      then differs := true
    done
  done;
  Alcotest.(check bool) "distinct keys, distinct streams" true !differs

let test_spec_roundtrip () =
  let t =
    Faults.make ~seed:5 ~noise:0.05 ~transient:0.02 ~hang:0.01 ~outlier:0.01
      ~crash:0.005 ()
  in
  Alcotest.(check bool) "roundtrip" true (Faults.of_spec (Faults.to_spec t) = t);
  Alcotest.(check string) "none" "none" (Faults.to_spec Faults.none);
  Alcotest.(check bool) "none parses" true (Faults.of_spec "none" = Faults.none);
  (match Faults.of_spec "transient=2" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range rate");
  match Faults.of_spec "nose=0.1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted unknown key"

let test_aggregate_trims_outlier () =
  Alcotest.(check (float 1e-9)) "median odd" 100.0
    (Faults.median [| 99.0; 100.0; 101.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 100.5
    (Faults.median [| 99.0; 100.0; 101.0; 102.0 |]);
  (* A single corrupted sample must not reach the aggregate. *)
  let agg = Faults.aggregate [| 100.0; 101.0; 99.0; 100.0; 5000.0 |] in
  Alcotest.(check bool) "trimmed mean ignores the outlier" true
    (agg >= 99.0 && agg <= 101.0);
  Alcotest.(check (float 1e-9)) "spread of constant" 0.0
    (Faults.rel_spread [| 7.0; 7.0; 7.0 |]);
  Alcotest.(check (float 1e-9)) "spread" 0.02
    (Faults.rel_spread [| 99.0; 100.0; 101.0 |])

(* --- determinism of the full search under injected faults --- *)

let noisy_tune ~jobs =
  let faults = Faults.make ~seed:13 ~noise:0.05 ~transient:0.05 ~hang:0.02 () in
  let protocol = { Core.Engine.default_protocol with trials = 5 } in
  let engine = Core.Engine.create ~jobs ~faults ~protocol sgi in
  let r = Core.Eco.optimize_with ~mode:fast engine Matmul.kernel ~n:32 in
  let o = r.Core.Eco.outcome in
  let s = Core.Engine.stats engine in
  ( o.Core.Search.variant.Core.Variant.name,
    o.Core.Search.bindings,
    o.Core.Search.prefetch,
    Core.Executor.cycles r.Core.Eco.measurement,
    (s.Core.Engine.fresh, s.Core.Engine.retries, s.Core.Engine.failed) )

let test_faulty_search_jobs_deterministic () =
  let serial = noisy_tune ~jobs:1 in
  let parallel = noisy_tune ~jobs:4 in
  Alcotest.(check bool)
    "jobs=1 and jobs=4 under faults: same answer, same telemetry" true
    (serial = parallel)

let test_zero_rate_plan_is_transparent () =
  (* An active plan with every rate at zero runs the whole protocol
     (draws, trials, aggregation, adaptive stop) yet must reproduce the
     plain engine bit for bit, point for point, on every kernel. *)
  let tune engine kernel =
    let r = Core.Eco.optimize_with ~mode:fast engine kernel ~n:32 in
    (answer r, Core.Search_log.entries r.Core.Eco.log)
  in
  List.iter
    (fun (kernel : Kernels.Kernel.t) ->
      let name = kernel.Kernels.Kernel.name in
      let plain = Core.Engine.create sgi in
      let protocol = { Core.Engine.default_protocol with trials = 3 } in
      let guarded =
        Core.Engine.create ~faults:(Faults.make ~seed:1 ()) ~protocol sgi
      in
      let a0, p0 = tune plain kernel and a1, p1 = tune guarded kernel in
      Alcotest.(check bool) (name ^ ": identical answer") true (a0 = a1);
      Alcotest.(check bool) (name ^ ": identical points") true (p0 = p1);
      let s0 = Core.Engine.stats plain and s1 = Core.Engine.stats guarded in
      Alcotest.(check int) (name ^ ": same fresh evaluations")
        s0.Core.Engine.fresh s1.Core.Engine.fresh;
      (* Identical samples stop every candidate's trials at the minimum. *)
      Alcotest.(check int) (name ^ ": every candidate stopped early")
        s1.Core.Engine.fresh s1.Core.Engine.early_stops;
      Alcotest.(check int) (name ^ ": no retries") 0 s1.Core.Engine.retries)
    [
      Matmul.kernel;
      Kernels.Jacobi3d.kernel;
      Kernels.Matvec.kernel;
      Kernels.Stencil2d.kernel;
      Kernels.Wavefront.kernel;
    ]

(* --- retry, quarantine, timeout --- *)

let eval_once ?(protocol = Core.Engine.default_protocol) faults =
  let engine = Core.Engine.create ~faults ~protocol sgi in
  let v = variant () in
  let bindings = some_point v ~n:32 in
  let req = Core.Engine.request v ~n:32 ~mode:fast ~bindings in
  (engine, req, Core.Engine.evaluate engine req)

let test_persistent_failure_quarantined () =
  let faults = Faults.make ~seed:2 ~transient:1.0 () in
  let engine, req, ev = eval_once faults in
  Alcotest.(check bool) "no measurement" true (ev = None);
  (match Core.Engine.explain engine req with
  | `Failed Core.Engine.Quarantined -> ()
  | _ -> Alcotest.fail "expected a quarantined candidate");
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "exhausted the retry budget"
    Core.Engine.default_protocol.Core.Engine.max_retries s.Core.Engine.retries;
  Alcotest.(check int) "counted as quarantined" 1
    s.Core.Engine.failed_quarantined;
  (* The quarantine is memoized: asking again is a memo hit, not a
     re-measurement. *)
  Alcotest.(check bool) "still no measurement" true
    (Core.Engine.evaluate engine req = None);
  let s' = Core.Engine.stats engine in
  Alcotest.(check int) "served from memo" 1 s'.Core.Engine.hits;
  Alcotest.(check int) "no further retries" s.Core.Engine.retries
    s'.Core.Engine.retries

let test_no_retry_budget_reports_transient () =
  let faults = Faults.make ~seed:2 ~transient:1.0 () in
  let protocol = { Core.Engine.default_protocol with max_retries = 0 } in
  let engine, req, ev = eval_once ~protocol faults in
  Alcotest.(check bool) "no measurement" true (ev = None);
  match Core.Engine.explain engine req with
  | `Failed Core.Engine.Transient -> ()
  | _ -> Alcotest.fail "expected the bare transient reason"

let test_cycle_cap_times_out () =
  let protocol = { Core.Engine.default_protocol with cycle_cap = 1.0 } in
  let engine, req, ev = eval_once ~protocol Faults.none in
  Alcotest.(check bool) "no measurement" true (ev = None);
  (match Core.Engine.explain engine req with
  | `Failed Core.Engine.Timeout -> ()
  | _ -> Alcotest.fail "expected a timeout");
  Alcotest.(check int) "counted as timeout" 1
    (Core.Engine.stats engine).Core.Engine.failed_timeout

let test_outlier_absorbed () =
  (* Corrupted 25x measurements must be trimmed out of the aggregate:
     the measured cycles stay within noise of the clean value. *)
  let clean_engine = Core.Engine.create sgi in
  let v = variant () in
  let bindings = some_point v ~n:32 in
  let req = Core.Engine.request v ~n:32 ~mode:fast ~bindings in
  let clean =
    match Core.Engine.evaluate clean_engine req with
    | Some ev -> Core.Executor.cycles ev.Core.Engine.measurement
    | None -> Alcotest.fail "clean evaluation failed"
  in
  let faults = Faults.make ~seed:4 ~noise:0.01 ~outlier:0.1 () in
  let protocol =
    { Core.Engine.default_protocol with trials = 15; min_trials = 15 }
  in
  let engine = Core.Engine.create ~faults ~protocol sgi in
  match Core.Engine.evaluate engine req with
  | None -> Alcotest.fail "faulty evaluation failed"
  | Some ev ->
    let c = Core.Executor.cycles ev.Core.Engine.measurement in
    Alcotest.(check bool) "aggregate near the clean value" true
      (abs_float (c -. clean) /. clean < 0.05)

(* --- fast-path crash degradation --- *)

let test_crash_degrades_to_closures () =
  let faults = Faults.make ~seed:6 ~crash:1.0 () in
  let crashy = Core.Engine.create ~path:Core.Executor.Fast ~faults sgi in
  let reference = Core.Engine.create ~path:Core.Executor.Closures sgi in
  let v = variant () in
  let bindings = some_point v ~n:32 in
  let req = Core.Engine.request v ~n:32 ~mode:fast ~bindings in
  let cycles engine =
    match Core.Engine.evaluate engine req with
    | Some ev -> Core.Executor.cycles ev.Core.Engine.measurement
    | None -> Alcotest.fail "evaluation failed"
  in
  Alcotest.(check (float 0.0)) "crashed Fast equals Closures"
    (cycles reference) (cycles crashy);
  Alcotest.(check bool) "fallback counted" true
    ((Core.Engine.stats crashy).Core.Engine.vm_fallbacks >= 1)

(* --- checkpointing: kill, resume, equivalence --- *)

let ck_tune engine = Core.Eco.optimize_with ~mode:fast engine Matmul.kernel ~n:32

let test_checkpoint_kill_resume_equivalence () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let tag = "test|matmul|n=32" in
  (* A run killed mid-search (after 25 fresh evaluations, checkpointing
     every 4)... *)
  let a = Core.Engine.create sgi in
  Core.Engine.set_checkpoint a ~every:4 ~tag file;
  Core.Engine.set_eval_limit a 25;
  (match ck_tune a with
  | exception Core.Engine.Eval_limit_reached 25 -> ()
  | _ -> Alcotest.fail "expected the injected kill");
  (* ...must resume from its checkpoint and finish with the exact
     answer and telemetry of an uninterrupted run. *)
  let b = Core.Engine.create sgi in
  Core.Engine.set_checkpoint b ~every:4 ~tag file;
  (match Core.Engine.load_checkpoint b ~tag file with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some resume ->
    Alcotest.(check bool) "resumed a nonempty memo" true
      (resume.Core.Engine.resumed_entries > 0);
    Alcotest.(check bool) "kept only complete checkpoints" true
      (resume.Core.Engine.resumed_fresh <= 24));
  let resumed = ck_tune b in
  let c = Core.Engine.create sgi in
  let uninterrupted = ck_tune c in
  Alcotest.(check bool) "resumed answer = uninterrupted answer" true
    (answer resumed = answer uninterrupted);
  let totals e =
    let s = Core.Engine.stats e in
    ( s.Core.Engine.fresh,
      s.Core.Engine.pruned,
      s.Core.Engine.failed,
      s.Core.Engine.simulated_cycles )
  in
  (* The resumed engine's lifetime totals (restored + finished) match
     the uninterrupted run's: no evaluation was lost or repeated. *)
  Alcotest.(check bool) "telemetry adds up across the kill" true
    (totals b = totals c);
  Sys.remove file

(* --- the protect post-pass on batched sweep groups --- *)

(* Value-preserving faults: transients and hangs, no timing noise. *)
let benign () = Faults.make ~seed:7 ~transient:0.05 ~hang:0.02 ()
let three_trials = { Core.Engine.default_protocol with trials = 3 }

let prefilter_engine path =
  Core.Engine.create ~path ~faults:(benign ()) ~protocol:three_trials
    ~prefilter:Core.Engine.default_prefilter sgi

let protocol_tele e =
  let s = Core.Engine.stats e in
  ( s.Core.Engine.fresh,
    s.Core.Engine.failed,
    s.Core.Engine.retries,
    s.Core.Engine.trials_run,
    s.Core.Engine.early_stops,
    s.Core.Engine.vm_fallbacks )

(* The ungrouped side is the reference closure interpreter, which
   measures every candidate on its own under the same protocol. *)
let test_protocol_on_groups_matches_ungrouped () =
  let grouped = prefilter_engine Core.Executor.Fast in
  let ungrouped = prefilter_engine Core.Executor.Closures in
  let a = ck_tune grouped and b = ck_tune ungrouped in
  Alcotest.(check bool) "sweep groups were walked" true
    ((Core.Engine.stats grouped).Core.Engine.batched_groups > 0);
  Alcotest.(check bool) "faults were absorbed" true
    ((Core.Engine.stats grouped).Core.Engine.retries > 0);
  Alcotest.(check bool) "same answer" true (answer a = answer b);
  Alcotest.(check bool) "same protocol telemetry" true
    (protocol_tele grouped = protocol_tele ungrouped)

(* A distance sweep at one point is one sweep group; an injected
   fast-path crash on some of its members must take only those members
   out of the group, each degraded to the reference interpreter.  The
   ungrouped side evaluates the same sweep one candidate at a time. *)
let test_crash_splits_one_member () =
  let v = variant () in
  let faults = Faults.make ~seed:3 ~crash:0.3 () in
  let sweep ~grouped faults =
    let e = Core.Engine.create ~faults sgi in
    let bindings = some_point v ~n:32 in
    let reqs =
      List.map
        (fun d ->
          Core.Engine.request v ~n:32 ~mode:fast ~bindings
            ~prefetch:[ ("a", d) ])
        [ 1; 2; 4; 8; 16; 32 ]
    in
    let evs =
      if grouped then Core.Engine.evaluate_batch e reqs
      else List.map (Core.Engine.evaluate e) reqs
    in
    let cycles =
      List.map
        (Option.map (fun ev -> Core.Executor.cycles ev.Core.Engine.measurement))
        evs
    in
    (cycles, Core.Engine.stats e)
  in
  let clean, _ = sweep ~grouped:true Faults.none in
  let grouped, gs = sweep ~grouped:true faults in
  let ungrouped, us = sweep ~grouped:false faults in
  let crashed = gs.Core.Engine.vm_fallbacks in
  Alcotest.(check bool) "some but not all members crashed" true
    (crashed > 0 && crashed < 6);
  Alcotest.(check int) "same fallbacks as ungrouped"
    us.Core.Engine.vm_fallbacks crashed;
  Alcotest.(check int) "the rest stayed grouped" (6 - crashed)
    gs.Core.Engine.batched_candidates;
  Alcotest.(check bool) "same measurements as ungrouped and clean" true
    (grouped = ungrouped && grouped = clean)

(* Kill/resume runs on a sampled search, whose greedy prefetch stage
   prices whole distance sweeps as groups. *)
let sampled_engine () =
  let e = Core.Engine.create ~faults:(benign ()) ~protocol:three_trials sgi in
  Core.Engine.set_sampling e (Some Memsim.Sampling.default);
  e

let test_protocol_kill_resume_grouped () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let tag = "test|matmul|n=32|sampled|faults" in
  let a = sampled_engine () in
  Core.Engine.set_checkpoint a ~every:4 ~tag file;
  Core.Engine.set_eval_limit a 20;
  (match ck_tune a with
  | exception Core.Engine.Eval_limit_reached 20 -> ()
  | _ -> Alcotest.fail "expected the injected kill");
  let b = sampled_engine () in
  Core.Engine.set_checkpoint b ~every:4 ~tag file;
  (match Core.Engine.load_checkpoint b ~tag file with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some _ -> ());
  let resumed = ck_tune b in
  Alcotest.(check bool) "sweep groups were walked" true
    ((Core.Engine.stats b).Core.Engine.batched_groups > 0);
  let uninterrupted = ck_tune (sampled_engine ()) in
  Alcotest.(check bool) "resumed answer = uninterrupted answer" true
    (answer resumed = answer uninterrupted);
  Sys.remove file

(* [eco tune --checkpoint] keys its file by the [Engine.run_tag] of the
   engine its flags configured.  The tag is persisted, so its format is
   pinned here with every tag-relevant flag set ([-m sun -k matvec -n 32
   -b 20000 --objective energy --prefilter 3 --closures --faults
   seed=5,transient=0.1 --trials 3 --retries 1 --db F --no-warm-start
   --sample shrink=4,window=2048 --incremental]).  [confirm=adaptive] is
   a frozen literal: the confirm-set size is no longer configurable. *)
let test_run_tag_every_flag () =
  let file = Filename.temp_file "eco_tag" ".db" in
  Sys.remove file;
  let e =
    Core.Engine.create ~path:Core.Executor.Closures
      ~faults:(Faults.of_spec "seed=5,transient=0.1")
      ~protocol:
        { Core.Engine.default_protocol with trials = 3; max_retries = 1 }
      ~objective:Core.Objective.Energy ~prefilter:3 Machine.ultrasparc_iie
  in
  Core.Engine.set_sampling e
    (Some (Memsim.Sampling.parse "shrink=4,window=2048"));
  Core.Engine.set_incremental e true;
  let db = Perfdb.load file in
  Core.Engine.set_db e ~warm_start:false db;
  Alcotest.(check string) "pinned tag"
    "tune|m=Sun UltraSparc IIe|k=matvec|n=32|b=20000|path=closures|faults=seed=5,transient=0.1|trials=3|retries=1|obj=energy|pf=3|db=exact|sample=shrink=4,window=2048,gap=28672,warm=2048|batch=on|incr=on|confirm=adaptive"
    (Core.Engine.run_tag e ~kernel:Kernels.Matvec.kernel ~n:32 ~budget:20_000);
  Perfdb.close db;
  try Sys.remove file with Sys_error _ -> ()

let test_checkpoint_tag_mismatch_refuses () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let a = Core.Engine.create sgi in
  Core.Engine.set_checkpoint a ~every:4 ~tag:"run-A" file;
  ignore (ck_tune a);
  Core.Engine.checkpoint_now a;
  let b = Core.Engine.create sgi in
  (match Core.Engine.load_checkpoint b ~tag:"run-B" file with
  | exception Core.Engine.Checkpoint_mismatch _ -> ()
  | _ -> Alcotest.fail "loaded a checkpoint from a different run");
  Sys.remove file

(* The checkpoint carries the engine's [stats] record whole: a save
   from a run that moved nearly every counter (sampling, incremental
   repricing, pre-filter, faults absorbed by retries and trials), loaded
   into a fresh engine, restores every field — except the demand-trace
   cache counters, which belong to the loading engine's own (empty)
   cache. *)
let test_checkpoint_roundtrip_restores_stats () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let engine () =
    Core.Engine.create ~faults:(benign ()) ~protocol:three_trials
      ~prefilter:Core.Engine.default_prefilter sgi
  in
  let a = engine () in
  Core.Engine.set_sampling a (Some Memsim.Sampling.default);
  Core.Engine.set_incremental a true;
  Core.Engine.set_checkpoint a ~tag:"roundtrip" file;
  ignore (ck_tune a);
  Core.Engine.checkpoint_now a;
  let saved = Core.Engine.stats a in
  Alcotest.(check bool) "the run filled the trace cache" true
    (saved.Core.Engine.trace_fills > 0);
  Alcotest.(check bool) "the run absorbed faults" true
    (saved.Core.Engine.retries > 0);
  let b = engine () in
  (match Core.Engine.load_checkpoint b ~tag:"roundtrip" file with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some resume ->
    Alcotest.(check int) "resumed fresh" saved.Core.Engine.fresh
      resume.Core.Engine.resumed_fresh);
  Alcotest.(check bool) "every counter but the cache's restored" true
    (Core.Engine.stats b
    = {
        saved with
        Core.Engine.trace_hits = 0;
        trace_fills = 0;
        fill_seconds = 0.0;
      });
  let kernel = Matmul.kernel.Kernels.Kernel.name in
  Alcotest.(check (pair int int)) "rank-quality record restored"
    (Core.Engine.rank_quality a ~kernel)
    (Core.Engine.rank_quality b ~kernel);
  Sys.remove file

(* A checkpoint of the previous format version (magic
   [ECO-CHECKPOINT-5]) loads as a fresh start, even when its payload
   digest is intact. *)
let test_checkpoint_old_version_ignored () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let a = Core.Engine.create sgi in
  Core.Engine.set_checkpoint a ~tag:"t" file;
  ignore (ck_tune a);
  Core.Engine.checkpoint_now a;
  let ic = open_in_bin file in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let current = "ECO-CHECKPOINT-6\n" in
  Alcotest.(check string) "current magic" current
    (String.sub bytes 0 (String.length current));
  let oc = open_out_bin file in
  output_string oc "ECO-CHECKPOINT-5\n";
  output_string oc
    (String.sub bytes (String.length current)
       (String.length bytes - String.length current));
  close_out oc;
  let b = Core.Engine.create sgi in
  Alcotest.(check bool) "v5 file means a fresh start" true
    (Core.Engine.load_checkpoint b ~tag:"t" file = None);
  Sys.remove file

let test_checkpoint_corrupt_file_ignored () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let oc = open_out_bin file in
  output_string oc "not a checkpoint at all";
  close_out oc;
  let b = Core.Engine.create sgi in
  Alcotest.(check bool) "corrupt file means a fresh start" true
    (Core.Engine.load_checkpoint b ~tag:"t" file = None);
  Alcotest.(check bool) "missing file means a fresh start" true
    (Core.Engine.load_checkpoint b ~tag:"t" "/nonexistent/ck.bin" = None);
  Sys.remove file

let suite =
  [
    Alcotest.test_case "plan: draws are pure" `Quick test_draw_deterministic;
    Alcotest.test_case "plan: spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "plan: aggregation trims outliers" `Quick
      test_aggregate_trims_outlier;
    Alcotest.test_case "search under faults: jobs-deterministic" `Quick
      test_faulty_search_jobs_deterministic;
    Alcotest.test_case "zero-rate plan is transparent" `Quick
      test_zero_rate_plan_is_transparent;
    Alcotest.test_case "persistent failure is quarantined" `Quick
      test_persistent_failure_quarantined;
    Alcotest.test_case "no retry budget reports transient" `Quick
      test_no_retry_budget_reports_transient;
    Alcotest.test_case "cycle cap times out" `Quick test_cycle_cap_times_out;
    Alcotest.test_case "outliers absorbed by trials" `Quick
      test_outlier_absorbed;
    Alcotest.test_case "fast-path crash degrades to closures" `Quick
      test_crash_degrades_to_closures;
    Alcotest.test_case "checkpoint: kill/resume equivalence" `Quick
      test_checkpoint_kill_resume_equivalence;
    Alcotest.test_case "protocol on sweep groups = ungrouped" `Quick
      test_protocol_on_groups_matches_ungrouped;
    Alcotest.test_case "crash splits one group member" `Quick
      test_crash_splits_one_member;
    Alcotest.test_case "checkpoint: kill/resume with grouped protocol" `Quick
      test_protocol_kill_resume_grouped;
    Alcotest.test_case "checkpoint: run tag pinned (every flag)" `Quick
      test_run_tag_every_flag;
    Alcotest.test_case "checkpoint: tag mismatch refused" `Quick
      test_checkpoint_tag_mismatch_refuses;
    Alcotest.test_case "checkpoint: corrupt file ignored" `Quick
      test_checkpoint_corrupt_file_ignored;
    Alcotest.test_case "checkpoint: round trip restores stats" `Quick
      test_checkpoint_roundtrip_restores_stats;
    Alcotest.test_case "checkpoint: v5 file is a fresh start" `Quick
      test_checkpoint_old_version_ignored;
  ]
