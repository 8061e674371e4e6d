(* ECO's benchmark.  Usage:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   runs one workload for about S seconds and prints, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, measured untraced;
   with --trace 1 they are the per-layer ones, from a traced run that
   also writes _perfbench/trace-NAME.json (Chrome trace-event format).
   --smoke runs every workload at tiny sizes (for the benchmark's own
   test).  Exit status 1 on any correctness failure.

   Internal modes: [probe --workload NAME] (set-up timing) and
   [daemon --dir D --db F --stats S] (the serve-mixed daemon). *)

open Common

let end_to_end = [ "tune_s"; "setup_s"; "fresh_evals"; "best_mflops"; "peak_rss_mb"; "req_p50_ms"; "req_per_s" ]

(* Per-layer metrics with the unit each reads in when its layer does no
   work on a workload (it then reads 0). *)
let per_layer =
  [
    ("derive.s", "s"); ("derive.variants", "count");
    ("search.points", "count"); ("search.pruned", "count"); ("search.prefiltered", "count");
    ("search.confirmed", "count"); ("search.confirm_skipped", "count"); ("search.self_s", "s");
    ("engine.eval_s", "s"); ("engine.memo_s", "s"); ("engine.hit_ratio", "ratio");
    ("engine.batched_groups", "count"); ("engine.batched_share", "ratio");
    ("engine.trace_hits", "count"); ("engine.trace_fills", "count"); ("engine.fill_s", "s");
    ("engine.trials_run", "count"); ("engine.early_stops", "count"); ("engine.retries", "count");
    ("faults.draw_ns", "ns");
    ("vm.compile_s", "s"); ("vm.exec_s", "s"); ("vm.events", "count"); ("vm.events_per_s", "1/s");
    ("dtrace.capture_s", "s"); ("dtrace.synth_events_per_s", "1/s");
    ("dtrace.plans_per_s.k1", "1/s"); ("dtrace.plans_per_s.k16", "1/s"); ("dtrace.plans_per_s.k64", "1/s");
    ("dtrace.reprice_plans_per_s", "1/s"); ("dtrace.repriced", "count");
    ("sim.s", "s"); ("sim.events_per_s", "1/s"); ("sim.l1_hits", "count"); ("sim.l1_misses", "count");
    ("sim.tlb_refills", "count"); ("sim.l1_miss_ratio", "ratio"); ("sim.tlb_miss_ratio", "ratio");
    ("sim.ns_per_l1_hit", "ns"); ("sim.ns_per_l1_miss", "ns"); ("sim.ns_per_tlb_refill", "ns");
    ("sim.fit_residual", "ratio"); ("sim.batch_k1_ratio", "ratio"); ("sim.sampled_fraction", "ratio");
    ("sim.sampled_events_per_s", "1/s");
    ("model.evals_per_s", "1/s"); ("model.prefiltered", "count");
    ("perfdb.lookup_us", "us"); ("perfdb.append_us", "us"); ("perfdb.db_hits", "count");
    ("perfdb.appends", "count"); ("perfdb.store_kb", "KB");
    ("serve.cold_p50_ms", "ms"); ("serve.warm_p50_ms", "ms"); ("serve.fresh_req_ms", "ms");
    ("serve.repeat_req_ms", "ms"); ("serve.queue_ms", "ms"); ("serve.json_us", "us");
    ("serve.pf_repeat_drift", "count");
    ("req_p90_ms", "ms"); ("error_rate", "ratio");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let workloads = [ "mm128-exact"; "j3d64-sampled"; "mm128-protocol"; "serve-mixed" ]

let usage () =
  prerr_endline
    ("usage: perfbench.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1 [--smoke]");
  exit 2

let rec opts acc = function
  | "--smoke" :: rest -> opts (("smoke", "1") :: acc) rest
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
    opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let main () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args = match args with ("probe" | "daemon") as m :: r -> (m, r) | r -> ("run", r) in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  match mode with
  | "daemon" -> Serving.daemon ~dir:(get "dir") ~db:(get "db") ~stats:(get "stats")
  | "probe" ->
    let name = get "workload" in
    (match List.find_opt (fun (w : Tune.t) -> w.Tune.name = name) (Tune.workloads ~smoke:false) with
    | Some w -> Tune.probe w ~seed:0
    | None -> usage ())
  | _ ->
    let name = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = int "trace" = 1 and smoke = List.mem_assoc "smoke" o in
    if not (List.mem name workloads) then usage ();
    Random.init seed;
    if trace then begin
      Span.enable ();
      List.iter (fun (n, u) -> metric n u 0.0) per_layer
    end;
    (try
       match List.find_opt (fun (w : Tune.t) -> w.Tune.name = name) (Tune.workloads ~smoke) with
       | Some w -> Tune.run w ~seed ~seconds ~trace ~smoke
       | None ->
         let r = Serving.run ~seed ~seconds ~trace ~smoke in
         if trace then Serving.layers ~smoke r
     with e ->
       attempt false;
       problem "%s: %s" name (Printexc.to_string e));
    if trace then begin
      metric "error_rate" "ratio" (float_of_int out.failed /. float_of_int (max 1 out.attempted));
      mkdir_p work_dir;
      let file = Filename.concat work_dir ("trace-" ^ name ^ ".json") in
      Span.write_chrome file;
      note "spans (%d) written to %s; per span name: calls, wall s, self s, minor Mwords" !Span.recorded file;
      List.iter
        (fun (n, (c, d, s, w)) -> note "  %-28s %5d %9.4f %9.4f %9.3f" n c d s (w /. 1e6))
        (Span.table ())
    end;
    print_result ~names:(if trace then List.map fst per_layer else end_to_end);
    exit (if out.problems = [] then 0 else 1)

let () = main ()
