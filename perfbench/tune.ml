(* The tune workloads: one [Eco.optimize_with] call per tune, each on a
   fresh engine (as [eco tune] does), back to back in one closed loop. *)

open Common

type t = {
  name : string;
  kernel : Kernels.Kernel.t;
  n : int;
  budget : int;
  sampled : bool;  (** [--sample --incremental] *)
  protocol : bool;  (** [--trials 3] under a zero-rate fault plan *)
  expected : string option;  (** committed winner line *)
}

let machine = Machine.sgi_r10000

let workloads ~smoke =
  let mm, j3 =
    if smoke then ((24, 20_000), (16, 20_000)) else ((128, 800_000), (64, 800_000))
  in
  let tune name kernel (n, budget) ~sampled ~protocol ~expected =
    { name; kernel; n; budget; sampled; protocol; expected = (if smoke then None else expected) }
  in
  let mm_winner = Some Expected.mm128_winner in
  [
    tune "mm128-exact" Kernels.Matmul.kernel mm ~sampled:false ~protocol:false ~expected:mm_winner;
    tune "j3d64-sampled" Kernels.Jacobi3d.kernel j3 ~sampled:true ~protocol:false ~expected:None;
    tune "mm128-protocol" Kernels.Matmul.kernel mm ~sampled:false ~protocol:true ~expected:mm_winner;
  ]

let engine w ~seed =
  let e =
    if w.protocol then
      Core.Engine.create ~faults:(Faults.make ~seed ())
        ~protocol:{ Core.Engine.default_protocol with trials = 3 }
        machine
    else Core.Engine.create machine
  in
  if w.sampled then begin
    Core.Engine.set_sampling e (Some Memsim.Sampling.default);
    Core.Engine.set_incremental e true
  end;
  e

let mode w = Core.Executor.Budget w.budget

type run = {
  wall : float;
  norm : float;  (** [wall] at the calibration's reference speed *)
  result : Core.Eco.result;
  stats : Core.Engine.stats;
  winner : string;
  minor_words : float;
  major_collections : int;
}

let bindings_str bs = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bs)

(* [eco tune]'s four answer lines on one line. *)
let winner (r : Core.Eco.result) =
  let o = r.Core.Eco.outcome in
  Printf.sprintf "%s | %s | %s | %.1f MFLOPS" o.Core.Search.variant.Core.Variant.name
    (bindings_str o.Core.Search.bindings)
    (if o.Core.Search.prefetch = [] then "(none)" else bindings_str o.Core.Search.prefetch)
    r.Core.Eco.measurement.Core.Executor.mflops

(* Where a tune's wall time went, by the engine's own timers; what they
   do not cover (search logic, derivation, glue) is the unaccounted
   rest. *)
let split (s : Core.Engine.stats) =
  [
    ("vm.compile", s.Core.Engine.compile_seconds);
    ("vm.exec", s.Core.Engine.exec_seconds);
    ("sim", s.Core.Engine.sim_seconds);
    ( "engine.other",
      s.Core.Engine.eval_seconds -. s.Core.Engine.compile_seconds -. s.Core.Engine.exec_seconds
      -. s.Core.Engine.sim_seconds );
    ("engine.memo", s.Core.Engine.memo_seconds);
    ("model", s.Core.Engine.model_seconds);
    ("dtrace.fill", s.Core.Engine.fill_seconds);
  ]

let tune_once w ~seed ~traced =
  let e = engine w ~seed in
  let speed = Calibrate.sampler () in
  Core.Engine.set_poll e (Some (fun () -> Calibrate.tick speed));
  let log = Core.Search_log.create () in
  let g0 = Gc.quick_stat () in
  let go () =
    let r = Core.Eco.optimize_with ~mode:(mode w) ~log e w.kernel ~n:w.n in
    if traced then
      (* the program's own split of the tune, laid inside the span *)
      Span.aggregates (List.map (fun (n, v) -> ("stats:" ^ n, v)) (split (Core.Engine.stats e)));
    r
  in
  let t0 = now () in
  match if traced then Span.with_ "tune" go else go () with
  | r ->
    let wall = now () -. t0 in
    let g1 = Gc.quick_stat () in
    Some
      {
        wall;
        norm = wall *. Calibrate.factor speed;
        result = r;
        stats = Core.Engine.stats e;
        winner = winner r;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
  | exception ex ->
    problem "%s: tune raised %s" w.name (Printexc.to_string ex);
    None

(* The exact search's MFLOPS at the sampled workload's cell: committed
   for the full size, measured in process for the smoke size. *)
let exact_reference w ~seed =
  if w.n = 64 && w.budget = 800_000 then Expected.j3d64_exact_mflops
  else
    match tune_once { w with sampled = false } ~seed ~traced:false with
    | Some r -> r.result.Core.Eco.measurement.Core.Executor.mflops
    | None -> nan

(* Per-tune correctness: the committed answer, the sampled-quality
   bound, and agreement with the reference interpreter (checked once
   per distinct winner). *)
let check w ~reference ~validated (r : run) =
  let ok = ref true in
  let bad fmt = Printf.ksprintf (fun s -> ok := false; problem "%s: %s" w.name s) fmt in
  (match w.expected with
  | Some e when e <> r.winner -> bad "winner %S, expected %S" r.winner e
  | _ -> ());
  let mf = r.result.Core.Eco.measurement.Core.Executor.mflops in
  (match reference with
  | Some exact ->
    let deg = (exact -. mf) /. exact *. 100.0 in
    if not (deg <= Expected.sampled_bound_pct) then
      bad "sampled winner %.2f MFLOPS is %.2f%% below the exact search's %.2f" mf deg exact
  | None -> ());
  let agrees =
    match Hashtbl.find_opt validated r.winner with
    | Some a -> a
    | None ->
      let o = r.result.Core.Eco.outcome in
      let verdicts =
        Check.validate ~machine o.Core.Search.variant ~bindings:o.Core.Search.bindings
          ~prefetch:o.Core.Search.prefetch ~n:w.n
      in
      List.iter
        (fun (size, v) ->
          if not (Check.Oracle.agrees v) then
            problem "%s: winner differs from the reference interpreter at n=%d: %s" w.name size
              (Check.Oracle.describe v))
        verdicts;
      let a = List.for_all (fun (_, v) -> Check.Oracle.agrees v) verdicts in
      Hashtbl.add validated r.winner a;
      a
  in
  !ok && agrees

(* Counts that must not move between tunes of one build. *)
let counts (r : run) =
  let s = r.stats in
  [
    ("winner", r.winner);
    ("mflops", Printf.sprintf "%.17g" r.result.Core.Eco.measurement.Core.Executor.mflops);
    ("fresh", string_of_int s.Core.Engine.fresh);
    ("points", string_of_int (Core.Search_log.points r.result.Core.Eco.log));
    ("hits", string_of_int s.Core.Engine.hits);
    ("pruned", string_of_int s.Core.Engine.pruned);
    ("sampled", string_of_int s.Core.Engine.sampled);
    ("repriced", string_of_int s.Core.Engine.repriced);
    ("trials", string_of_int s.Core.Engine.trials_run);
  ]

(* Start-up cost: spawn this executable in probe mode, which performs
   the run's set-up and reports [ready]; median of several spawns, at
   reference speed. *)
let probe_setup name =
  let once () =
    let t0 = now () in
    let pid, ic, _ = spawn_self [ "probe"; "--workload"; name ] in
    let line = try input_line ic with End_of_file -> "" in
    let t1 = now () in
    close_in ic;
    (match waitpid_retry pid with
    | Unix.WEXITED 0 -> ()
    | _ -> problem "%s: set-up probe did not exit cleanly" name);
    if line <> "ready" then problem "%s: set-up probe said %S" name line;
    t1 -. t0
  in
  let speed = Calibrate.sampler ~every:0.0 () in
  let times = List.init 15 (fun _ -> let t = once () in Calibrate.tick speed; t) in
  Stats.median times *. Calibrate.factor speed

(* What a probe does before it would start tuning. *)
let probe w ~seed =
  ignore (engine w ~seed);
  print_endline "ready"

(* Tune back to back until [seconds] would be exceeded (at least
   [min_tunes]); in a traced run every other tune is traced. *)
let loop w ~seed ~seconds ~min_tunes ~trace =
  let start = now () in
  let rss_kb = ref 0 in
  let rec go i acc =
    let traced = trace && i mod 2 = 1 in
    let r = tune_once w ~seed ~traced in
    (* high-water mark of one tune: later tunes reuse the heap *)
    if i = 0 then rss_kb := peak_rss_kb ();
    let acc = (traced, r) :: acc in
    let last = match r with Some r -> r.wall | None -> 0.0 in
    if i + 1 < min_tunes || now () -. start +. last <= seconds then go (i + 1) acc
    else (List.rev acc, float_of_int !rss_kb /. 1024.0)
  in
  go 0 []

let self_time_table w (r : run) =
  let rows = split r.stats in
  let covered = Stats.sum (List.map snd rows) in
  note "self time of one traced %s tune (%.3f s):" w.name r.wall;
  List.iter
    (fun (n, v) -> note "  %-34s %8.3f s %6.1f%%" n v (100.0 *. v /. r.wall))
    (rows @ [ ("unaccounted (search, derive, glue)", r.wall -. covered) ]);
  note "  %-34s %8.3f s %6.1f%%" "total (the tune's wall)" r.wall 100.0

let run w ~seed ~seconds ~trace ~smoke =
  let setup_s = if trace then 0.0 else probe_setup w.name in
  let tunes, rss_mb =
    loop w ~seed ~seconds:(if trace then seconds /. 2.0 else seconds) ~min_tunes:2 ~trace
  in
  let reference = if w.sampled then Some (exact_reference w ~seed) else None in
  let validated = Hashtbl.create 2 in
  List.iter
    (fun (_, r) ->
      match r with
      | None -> attempt false
      | Some r -> attempt (check w ~reference ~validated r))
    tunes;
  let ok = List.filter_map snd tunes in
  (match ok with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun r -> if counts r <> counts first then problem "%s: two tunes in one run disagree" w.name)
      rest;
    check_counts ~key:(w.name ^ if smoke then "-smoke" else "") (counts first));
  let norms = List.map (fun r -> r.norm) ok in
  let show l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  note "%s: %d tunes, wall %s s, at reference speed %s s; winner %s" w.name (List.length ok)
    (show (List.map (fun r -> r.wall) ok)) (show norms)
    (match ok with r :: _ -> r.winner | [] -> "-");
  match ok with
  | [] -> ()
  | first :: _ ->
    let s = first.stats in
    if not trace then begin
      metric "tune_s" "s" (Stats.median norms);
      metric "setup_s" "s" setup_s;
      metric "fresh_evals" "count" (float_of_int s.Core.Engine.fresh);
      metric "best_mflops" "MFLOPS" first.result.Core.Eco.measurement.Core.Executor.mflops;
      metric "peak_rss_mb" "MB" rss_mb;
      metric "req_p50_ms" "ms" (Stats.median norms *. 1000.0);
      metric "req_per_s" "1/s" (float_of_int (List.length ok) /. Stats.sum norms)
    end
    else begin
      let traced = List.filter_map (fun (t, r) -> if t then r else None) tunes in
      let plain = List.filter_map (fun (t, r) -> if t then None else r) tunes in
      let r = match traced with r :: _ -> r | [] -> first in
      let s = r.stats in
      let f = float_of_int in
      self_time_table w r;
      let log = r.result.Core.Eco.log in
      let derive =
        List.init 5 (fun _ ->
            Layers.timed (fun () -> Span.with_ "derive" (fun () -> Core.Derive.variants machine w.kernel)))
      in
      metric "derive.s" "s" (Stats.median (List.map snd derive));
      metric "derive.variants" "count" (f (List.length (fst (List.hd derive))));
      metric "search.points" "count" (f (Core.Search_log.points log));
      metric "search.pruned" "count" (f (Core.Search_log.pruned log));
      metric "search.prefiltered" "count" (f (Core.Search_log.prefiltered log));
      metric "search.confirmed" "count" (f (Core.Search_log.confirmed log));
      metric "search.confirm_skipped" "count" (f (Core.Search_log.confirm_skipped log));
      metric "search.self_s" "s" (r.wall -. s.Core.Engine.eval_seconds -. s.Core.Engine.fill_seconds);
      Layers.engine_metrics s;
      metric "gc.minor_mwords" "Mwords" (r.minor_words /. 1e6);
      metric "gc.major_collections" "count" (f r.major_collections);
      let med l = Stats.median (List.map (fun r -> r.norm) l) in
      metric "trace.overhead_pct" "%"
        (if plain = [] || traced = [] then 0.0 else (med traced -. med plain) /. med plain *. 100.0);
      (* layer re-drive on what the traced tune measured *)
      let site = Layers.site r.result.Core.Eco.engine w.kernel ~n:w.n ~mode:(mode w) in
      let acc = Layers.new_sim () in
      List.iter (Layers.redrive_entry acc site)
        (Layers.pick (if smoke then 6 else 16) (Core.Search_log.entries log));
      Layers.sim_metrics acc ~sim_s:s.Core.Engine.sim_seconds;
      if s.Core.Engine.trace_fills > 0 then
        Layers.group_metrics ~reprice:(s.Core.Engine.repriced > 0) [ (site, log) ];
      if (Core.Engine.faults r.result.Core.Eco.engine).Faults.active then
        metric "faults.draw_ns" "ns"
          (Layers.draw_ns (Core.Engine.faults r.result.Core.Eco.engine)
             (List.map Layers.entry_key (Core.Search_log.entries log)));
      check_counts
        ~key:(w.name ^ (if smoke then "-smoke" else "") ^ "-layers")
        [
          ("vm.events", string_of_int acc.Layers.events);
          ("l1_hits", string_of_int acc.Layers.l1_hits);
          ("l1_misses", string_of_int acc.Layers.l1_misses);
          ("tlb", string_of_int acc.Layers.tlb_misses);
          ("sampled_measured", string_of_int acc.Layers.measured);
        ]
    end
