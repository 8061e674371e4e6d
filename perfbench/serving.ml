(* The serve-mixed workload: an [eco serve] daemon (this executable in
   daemon mode, i.e. [Serve.Daemon.run]) over a performance database
   that starts empty.  A closed-loop client keeps two requests
   outstanding while it replays a seeded order of a fixed, skewed
   multiset of tune requests; then the daemon is restarted on the same
   store and the same order runs again. *)

open Common

module J = Serve.Json

type query = { kernel : string; n : int; prefilter : int option }

let budget ~smoke = if smoke then 10_000 else 200_000

(* 5 kernels x 2 sizes x {no prefilter, prefilter:4}: first the ten
   unfiltered queries, in a fixed popularity order that interleaves
   kernels and sizes, then the ten prefiltered ones. *)
let queries ~smoke =
  let sizes = if smoke then [ 8; 12 ] else [ 16; 32 ] in
  let cells =
    List.concat_map
      (fun kernel -> List.map (fun n -> (kernel, n)) sizes)
      [ "matmul"; "jacobi3d"; "matvec"; "stencil2d"; "wavefront" ]
  in
  let a = Array.of_list cells in
  let order = List.init (Array.length a) (fun i -> a.(i * 3 mod Array.length a)) in
  List.map (fun (kernel, n) -> { kernel; n; prefilter = None }) order
  @ List.map (fun (kernel, n) -> { kernel; n; prefilter = Some 4 }) order

(* Zipf-like skew over the unfiltered queries: rank r is asked about
   [c / r] times.  A prefiltered query is asked once per phase: its
   answer depends on what the shared engine already memoized (the
   pre-filter ranks only memo misses), so a repeat may legitimately
   explore further and answer differently — measured separately as
   [serve.pf_repeat_drift] in the traced run. *)
let copies ~smoke rank q =
  if q.prefilter <> None then 1
  else max 1 (int_of_float (Float.round ((if smoke then 3.0 else 17.0) /. float_of_int (rank + 1))))

(* The seed only orders the requests, and only locally: a fixed base
   order of the multiset is shuffled within consecutive windows of
   [window] requests.  Every seed asks the same requests at about the
   same point of the phase — so the work per phase, and how large the
   shared memo is when each request arrives, stay put — while the exact
   interleaving of the two clients' requests changes. *)
let window = 6

let shuffle st a ~pos ~len =
  for i = len - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(pos + i) in
    a.(pos + i) <- a.(pos + j);
    a.(pos + j) <- t
  done

let sequence ~smoke ~seed =
  let qs = Array.of_list (queries ~smoke) in
  let bag =
    Array.of_list
      (List.concat (List.mapi (fun r q -> List.init (copies ~smoke r q) (fun _ -> r)) (Array.to_list qs)))
  in
  let n = Array.length bag in
  shuffle (Random.State.make [| 0 |]) bag ~pos:0 ~len:n;
  let st = Random.State.make [| seed |] in
  for w = 0 to (n - 1) / window do
    shuffle st bag ~pos:(w * window) ~len:(min window (n - (w * window)))
  done;
  (qs, bag)

let request_json ~smoke id q =
  J.Obj
    [
      ("id", J.Int id);
      ("method", J.String "tune");
      ( "params",
        J.Obj
          ([ ("kernel", J.String q.kernel); ("n", J.Int q.n); ("budget", J.Int (budget ~smoke)) ]
          @ match q.prefilter with Some k -> [ ("prefilter", J.Int k) ] | None -> []) );
    ]

(* ---------- the daemon side ---------- *)

(* Daemon mode: [Serve.Daemon.run] as [eco serve --db FILE --dir DIR]
   runs it; on exit, the process's own peak RSS and GC totals go to
   [stats]. *)
let daemon ~dir ~db ~stats =
  let code =
    Serve.Daemon.run { Serve.Daemon.default_config with db_file = Some db; checkpoint_dir = dir }
  in
  let g = Gc.quick_stat () in
  let oc = open_out stats in
  Printf.fprintf oc "%d %.0f %d\n" (peak_rss_kb ()) g.Gc.minor_words g.Gc.major_collections;
  close_out oc;
  exit code

(* ---------- the client side ---------- *)

type reply = {
  query : int;
  slot : int;  (** which of the two outstanding requests it was *)
  sent : float;
  mutable accepted : float;
  mutable done_ : float;
  mutable answer : string;
  mutable fresh : int;
  mutable db_hits : int;
  mutable ok : bool;
  mutable scale : float;  (** the phase's calibration factor *)
}

type phase = {
  replies : reply list;
  setup : float;  (** spawn to [ready] *)
  wall : float;  (** first send to last reply *)
  fresh_total : int;  (** daemon status at the end *)
  hits_total : int;
  db_hits_total : int;
  rss_kb : int;
  minor_words : float;
  major_collections : int;
  factor : float;  (** host-speed factor over the phase ({!Calibrate}) *)
}

let int_field k j = Option.value (J.to_int_opt (J.mem k j)) ~default:0
let str_field k j = Option.value (J.to_string_opt (J.mem k j)) ~default:""

type daemon = { pid : int; ic : in_channel; oc : out_channel; stats : string; t_spawn : float }

let start ~dir ~db =
  let stats = Filename.concat dir (Printf.sprintf "daemon-%d.stats" (Random.bits ())) in
  let t_spawn = now () in
  let pid, ic, oc =
    spawn_self ~stdin:() [ "daemon"; "--dir"; Filename.concat dir "sessions"; "--db"; db; "--stats"; stats ]
  in
  { pid; ic; oc = Option.get oc; stats; t_spawn }

(* Read daemon lines until [f] accepts one. *)
let rec read_until d f =
  match input_line d.ic with
  | exception End_of_file -> failwith "daemon closed its output"
  | line -> (
    match J.of_string line with
    | exception J.Parse_error m -> failwith ("unparsable daemon line: " ^ m)
    | j -> ( match f j with Some v -> v | None -> read_until d f))

let send d j =
  output_string d.oc (J.to_string j);
  output_char d.oc '\n';
  flush d.oc

let wait_ready d =
  read_until d (fun j -> if J.mem "method" j = J.String "ready" then Some (now () -. d.t_spawn) else None)

(* Close the daemon's input (it drains and exits), reap it and read its
   self-reported stats. *)
let stop d =
  close_out d.oc;
  (try
     while true do
       ignore (input_line d.ic)
     done
   with End_of_file -> ());
  close_in d.ic;
  (match waitpid_retry d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> problem "serve-mixed: daemon did not exit cleanly");
  match open_in d.stats with
  | exception Sys_error _ ->
    problem "serve-mixed: daemon left no stats";
    (0, 0.0, 0)
  | ic ->
    let v = Scanf.sscanf (input_line ic) "%d %f %d" (fun a b c -> (a, b, c)) in
    close_in ic;
    v

let answer_of r =
  String.concat " | "
    [ str_field "best_variant" r; str_field "parameters" r; str_field "prefetch" r; str_field "performance" r ]

let run_phase ~smoke ~dir ~db (qs, bag) =
  let d = start ~dir ~db in
  let setup = wait_ready d in
  let pending = Hashtbl.create 4 in
  let replies = ref [] in
  let next = ref 0 in
  let issue slot =
    if !next < Array.length bag then begin
      let id = !next in
      incr next;
      let r =
        {
          query = bag.(id);
          slot;
          sent = now ();
          accepted = nan;
          done_ = nan;
          answer = "";
          fresh = 0;
          db_hits = 0;
          ok = false;
          scale = 1.0;
        }
      in
      Hashtbl.replace pending id r;
      replies := r :: !replies;
      send d (request_json ~smoke id qs.(bag.(id)))
    end
  in
  let speed = Calibrate.sampler () in
  let t0 = now () in
  issue 1;
  issue 2;
  while Hashtbl.length pending > 0 do
    read_until d (fun j ->
        match (J.mem "method" j, J.to_int_opt (J.mem "id" j)) with
        | J.String "accepted", _ ->
          (match J.to_int_opt (J.mem "session" (J.mem "params" j)) with
          | Some id -> (
            match Hashtbl.find_opt pending id with Some r -> r.accepted <- now () | None -> ())
          | None -> ());
          None
        | _, Some id when Hashtbl.mem pending id ->
          let r = Hashtbl.find pending id in
          r.done_ <- now ();
          Hashtbl.remove pending id;
          (match J.member "result" j with
          | Some res ->
            r.answer <- answer_of res;
            r.fresh <- int_field "fresh" res;
            r.db_hits <- int_field "db_hits" res;
            r.ok <- str_field "status" res = "ok" && str_field "db" res = "ok";
            if not r.ok then
              problem "serve-mixed: request %d answered status %s, db %s" id (str_field "status" res)
                (str_field "db" res)
          | None -> problem "serve-mixed: request %d failed: %s" id (J.to_string j));
          issue r.slot;
          (* the client idles while the daemon works: sample host speed *)
          Calibrate.tick speed;
          Some ()
        | _ -> None)
  done;
  let wall = now () -. t0 in
  let factor = Calibrate.factor speed in
  List.iter (fun r -> r.scale <- factor) !replies;
  Span.record "serve.daemon_start" ~t0:d.t_spawn ~t1:(d.t_spawn +. setup);
  List.iter
    (fun r -> Span.record ~lane:r.slot "serve.request" ~t0:r.sent ~t1:r.done_)
    !replies;
  send d (J.Obj [ ("id", J.String "status"); ("method", J.String "status") ]);
  let status =
    read_until d (fun j -> if J.mem "id" j = J.String "status" then J.member "result" j else None)
  in
  let rss_kb, minor_words, major_collections = stop d in
  {
    replies = List.rev !replies;
    setup;
    wall;
    fresh_total = int_field "fresh" status;
    hits_total = int_field "hits" status;
    db_hits_total = int_field "db_hits" status;
    rss_kb;
    minor_words;
    major_collections;
    factor;
  }

(* Restart on the populated store and wait for [ready] only: the warm
   start-up a restarted daemon pays. *)
let restart_setup ~dir ~db =
  let d = start ~dir ~db in
  let s = wait_ready d in
  ignore (stop d);
  s

type iteration = { cold : phase; warm : phase; store_records : int; store_bytes : int }

let iterate ~smoke ~seq ~root =
  let dir = Filename.concat root (Printf.sprintf "it-%d" (Random.bits ())) in
  mkdir_p dir;
  let db = Filename.concat dir "store.db" in
  let cold = Span.with_ "serve.cold_phase" (fun () -> run_phase ~smoke ~dir ~db seq) in
  let store = Perfdb.load ~lock:false db in
  let st = Perfdb.stat store in
  Perfdb.close store;
  let warm = Span.with_ "serve.warm_phase" (fun () -> run_phase ~smoke ~dir ~db seq) in
  ({ cold; warm; store_records = st.Perfdb.measurements; store_bytes = st.Perfdb.bytes }, db)

let latency r = (r.done_ -. r.sent) *. 1000.0 *. r.scale
let replies_of its = List.concat_map (fun it -> it.cold.replies @ it.warm.replies) its

(* Every answer to one query — across repeats, both clients, the
   restart and every iteration — must be identical. *)
let check_answers qs its =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let same =
        match Hashtbl.find_opt seen r.query with
        | None ->
          if r.ok then Hashtbl.add seen r.query r.answer;
          true
        | Some a when a = r.answer -> true
        | Some a ->
          let q = qs.(r.query) in
          problem "serve-mixed: %s n=%d answered %S and %S" q.kernel q.n a r.answer;
          false
      in
      attempt (r.ok && same))
    (replies_of its);
  seen

let mflops_of answer =
  match String.rindex_opt answer '|' with
  | Some i -> float_of_string_opt (String.trim (String.sub answer (i + 1) (String.length answer - i - 1)))
  | None -> None

let run ~seed ~seconds ~trace ~smoke =
  let root = scratch () in
  (* iteration k replays its own seeded order: a run pools several
     orders, so its latency figures depend less on one order *)
  let seq k = sequence ~smoke ~seed:((seed * 1000) + k) in
  let qs, bag = seq 0 in
  let distinct = Array.length qs in
  (* one untraced iteration per 10 s of run time (an iteration takes
     about that long), the same count on every run; the traced run does
     one untraced and one traced iteration, to compare *)
  let iterations = if trace then 1 else max 1 (int_of_float seconds / 10) in
  let rec go k acc =
    let it, db = iterate ~smoke ~seq:(seq k) ~root in
    let acc = it :: acc in
    if k + 1 < iterations then go (k + 1) acc else (List.rev acc, db, k + 1)
  in
  let traced_run = !Span.enabled in
  Span.enabled := false;
  let plain, db, k = go 0 [] in
  let traced =
    if traced_run then begin
      Span.enable ();
      Some (Span.with_ "serve.iteration" (fun () -> fst (iterate ~smoke ~seq:(seq k) ~root)))
    end
    else None
  in
  let its = plain @ Option.to_list traced in
  let speed = Calibrate.sampler ~every:0.0 () in
  let restarts =
    List.init 5 (fun _ ->
        let t = restart_setup ~dir:(Filename.dirname db) ~db in
        Calibrate.tick speed;
        t)
  in
  let answers = check_answers qs its in
  let first = List.hd its in
  List.iter
    (fun it ->
      if it.cold.fresh_total <> first.cold.fresh_total || it.warm.fresh_total <> first.warm.fresh_total
      then problem "serve-mixed: fresh simulations per phase differ between iterations")
    its;
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun i -> Option.value (Hashtbl.find_opt answers i) ~default:"-") (List.init distinct Fun.id))))
  in
  check_counts
    ~key:("serve-mixed" ^ if smoke then "-smoke" else "")
    [
      ("cold_fresh", string_of_int first.cold.fresh_total);
      ("warm_fresh", string_of_int first.warm.fresh_total);
      ("warm_db_hits", string_of_int first.warm.db_hits_total);
      ("store_records", string_of_int first.store_records);
      ("answers", digest);
    ];
  let lat = List.map latency (replies_of plain) in
  let tune_s it = it.cold.wall *. it.cold.factor /. float_of_int distinct in
  note "serve-mixed: %d iteration(s) of %d+%d requests; cold %.2f s (%d fresh), warm %.2f s (%d db hits)"
    (List.length its) (Array.length bag) (Array.length bag) first.cold.wall
    first.cold.fresh_total first.warm.wall first.warm.db_hits_total;
  note "serve-mixed: p50 %.1f ms, p90 %.1f ms over %d requests (%d beyond p90)"
    (Stats.percentile 50.0 lat) (Stats.percentile 90.0 lat) (List.length lat) (Stats.beyond 90.0 lat);
  if not trace then begin
    metric "tune_s" "s" (Stats.median (List.map tune_s plain));
    metric "setup_s" "s" (Stats.median restarts *. Calibrate.factor speed);
    metric "fresh_evals" "count" (float_of_int first.cold.fresh_total);
    metric "best_mflops" "MFLOPS"
      (Stats.geomean (Hashtbl.fold (fun _ a acc -> match mflops_of a with Some m -> m :: acc | None -> acc) answers []));
    metric "peak_rss_mb" "MB"
      (Stats.median (List.map (fun it -> float_of_int (max it.cold.rss_kb it.warm.rss_kb) /. 1024.0) plain));
    metric "req_p50_ms" "ms" (Stats.percentile 50.0 lat);
    metric "req_per_s" "1/s"
      (float_of_int (List.length lat)
      /. Stats.sum (List.map (fun it -> (it.cold.wall *. it.cold.factor) +. (it.warm.wall *. it.warm.factor)) plain))
  end;
  (qs, plain, traced, tune_s, root)

let kernel_named name =
  match name with
  | "matmul" -> Kernels.Matmul.kernel
  | "jacobi3d" -> Kernels.Jacobi3d.kernel
  | "matvec" -> Kernels.Matvec.kernel
  | "stencil2d" -> Kernels.Stencil2d.kernel
  | _ -> Kernels.Wavefront.kernel

(* Round trip of a result line through the protocol's JSON codec. *)
let json_us () =
  let line =
    J.to_string
      (J.Obj
         [
           ("id", J.Int 17);
           ( "result",
             J.Obj
               [
                 ("session", J.Int 17); ("sid", J.Int 9); ("kernel", J.String "matmul"); ("n", J.Int 64);
                 ("machine", J.String "SGI R10000"); ("status", J.String "ok");
                 ("best_variant", J.String "matmul_v2"); ("parameters", J.String "ti=44 tj=45 tk=44 ui=4 uj=5");
                 ("prefetch", J.String "a=4 b=2 p_a=1"); ("mflops", J.Float 300.8123456789);
                 ("performance", J.String "300.8"); ("cycles", J.Float 1043701733.0); ("fresh", J.Int 217);
                 ("hits", J.Int 77); ("db_hits", J.Int 0); ("pruned", J.Int 30); ("failed", J.Int 0);
                 ("quarantined", J.Int 0); ("seconds", J.Float 0.97); ("batches", J.Int 31);
                 ("resumed", J.Bool false); ("db", J.String "ok");
               ] );
         ])
  in
  let n = 2000 in
  let (), t =
    Layers.timed (fun () ->
        Span.with_ "serve.json" (fun () ->
            for _ = 1 to n do
              ignore (J.to_string (J.of_string line))
            done))
  in
  t /. float_of_int n *. 1e6

(* Per-layer figures for the traced run. *)
let layers ~smoke (qs, plain, traced, tune_s, root) =
  let f = float_of_int in
  let its = plain @ Option.to_list traced in
  let all = replies_of its in
  let lat rs = List.map latency rs in
  let cold = List.concat_map (fun it -> it.cold.replies) its in
  let warm = List.concat_map (fun it -> it.warm.replies) its in
  let first = List.hd its in
  metric "serve.cold_p50_ms" "ms" (Stats.median (lat cold));
  metric "serve.warm_p50_ms" "ms" (Stats.median (lat warm));
  metric "serve.fresh_req_ms" "ms" (Stats.median (lat (List.filter (fun r -> r.fresh > 0) all)));
  metric "serve.repeat_req_ms" "ms"
    (Stats.median (lat (List.filter (fun r -> r.fresh = 0 && r.db_hits = 0) all)));
  metric "serve.queue_ms" "ms"
    (Stats.median (List.map (fun r -> (r.accepted -. r.sent) *. 1000.0 *. r.scale) all));
  metric "serve.json_us" "us" (json_us ());
  metric "req_p90_ms" "ms" (Stats.percentile 90.0 (lat all));
  metric "perfdb.db_hits" "count" (f first.warm.db_hits_total);
  metric "perfdb.appends" "count" (f first.store_records);
  metric "perfdb.store_kb" "KB" (f first.store_bytes /. 1024.0);
  Layers.perfdb_costs root;
  metric "gc.minor_mwords" "Mwords" (first.cold.minor_words /. 1e6);
  metric "gc.major_collections" "count" (f first.cold.major_collections);
  (match (plain, traced) with
  | p :: _, Some t -> metric "trace.overhead_pct" "%" ((tune_s t -. tune_s p) /. tune_s p *. 100.0)
  | _ -> ());
  (* re-drive the prefilter queries in process, on one engine as the
     daemon shares one per context *)
  let machine = Machine.sgi_r10000 in
  let pf = Core.Engine.create ~prefilter:4 machine in
  let mode = Core.Executor.Budget (budget ~smoke) in
  let pf_queries = List.filter (fun q -> q.prefilter <> None) (Array.to_list qs) in
  let tune q =
    let kernel = kernel_named q.kernel in
    let log = Core.Search_log.create () in
    let r, t =
      Layers.timed (fun () ->
          Span.with_ ("tune." ^ q.kernel) (fun () -> Core.Eco.optimize_with ~mode ~log pf kernel ~n:q.n))
    in
    ((Layers.site pf kernel ~n:q.n ~mode, log), t, Tune.winner r)
  in
  let firsts = List.map tune pf_queries in
  let logs = List.map (fun (l, _, _) -> l) firsts in
  let tune_wall = Stats.sum (List.map (fun (_, t, _) -> t) firsts) in
  let s = Core.Engine.stats pf in
  Layers.engine_metrics s;
  let hits = first.cold.hits_total + first.warm.hits_total in
  metric "engine.hit_ratio" "ratio"
    (f hits /. f (max 1 (hits + first.cold.fresh_total + first.warm.fresh_total)));
  metric "model.evals_per_s" "1/s" (Layers.model_evals_per_s logs);
  let sum g = f (List.fold_left (fun a (_, l) -> a + g l) 0 logs) in
  metric "search.points" "count" (sum Core.Search_log.points);
  metric "search.pruned" "count" (sum Core.Search_log.pruned);
  metric "search.prefiltered" "count" (sum Core.Search_log.prefiltered);
  metric "search.confirmed" "count" (sum Core.Search_log.confirmed);
  metric "search.confirm_skipped" "count" (sum Core.Search_log.confirm_skipped);
  metric "search.self_s" "s" (tune_wall -. s.Core.Engine.eval_seconds -. s.Core.Engine.fill_seconds);
  (* the same prefiltered queries again on the same engine, as the
     daemon would serve a repeat: how many answers move *)
  let drift =
    List.length
      (List.filter (fun ((_, _, first), q) -> let _, _, again = tune q in again <> first)
         (List.combine firsts pf_queries))
  in
  metric "serve.pf_repeat_drift" "count" (f drift);
  if drift > 0 then
    note "serve-mixed: %d of %d prefiltered queries answer differently when repeated on one engine" drift
      (List.length pf_queries);
  let derive, t =
    Layers.timed (fun () ->
        Span.with_ "derive" (fun () ->
            List.concat_map
              (fun k -> Core.Derive.variants machine (kernel_named k))
              [ "matmul"; "jacobi3d"; "matvec"; "stencil2d"; "wavefront" ]))
  in
  metric "derive.s" "s" t;
  metric "derive.variants" "count" (f (List.length derive));
  let acc = Layers.new_sim () in
  let entries = List.concat_map (fun (site, l) -> List.map (fun e -> (site, e)) (Core.Search_log.entries l)) logs in
  List.iter (fun (site, e) -> Layers.redrive_entry acc site e) (Layers.pick (if smoke then 6 else 24) entries);
  Layers.sim_metrics acc ~sim_s:s.Core.Engine.sim_seconds;
  if s.Core.Engine.trace_fills > 0 then Layers.group_metrics ~reprice:false logs;
  check_counts
    ~key:("serve-mixed" ^ (if smoke then "-smoke" else "") ^ "-layers")
    [
      ("vm.events", string_of_int acc.Layers.events);
      ("l1_hits", string_of_int acc.Layers.l1_hits);
      ("l1_misses", string_of_int acc.Layers.l1_misses);
      ("tlb", string_of_int acc.Layers.tlb_misses);
      ("prefiltered", string_of_int s.Core.Engine.prefiltered);
      ("pf_repeat_drift", string_of_int drift);
    ]
