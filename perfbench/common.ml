(* What every workload shares: the result record printed as the final
   JSON line, failure accounting, process helpers and the cross-run
   determinism record. *)

let now = Unix.gettimeofday

type outcome = {
  mutable metrics : (string * (float * string)) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** correctness failures, newest first *)
}

let out = { metrics = []; attempted = 0; failed = 0; problems = [] }

let metric name unit v =
  let v = if Float.is_finite v then v else 0.0 in
  out.metrics <- (name, (v, unit)) :: List.remove_assoc name out.metrics

let problem fmt =
  Printf.ksprintf
    (fun s ->
      out.problems <- s :: out.problems;
      Printf.eprintf "perfbench: FAIL %s\n%!" s)
    fmt

(* One operation (a tune, a request) attempted; [ok = false] counts it
   failed. *)
let attempt ok =
  out.attempted <- out.attempted + 1;
  if not ok then out.failed <- out.failed + 1

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* The final line: the benchmark's whole verdict. *)
let print_result ~names =
  let metrics =
    List.filter_map
      (fun n ->
        match List.assoc_opt n out.metrics with
        | Some (v, u) ->
          Some (n, Serve.Json.Obj [ ("value", Serve.Json.Float v); ("unit", Serve.Json.String u) ])
        | None ->
          problem "metric %s was not measured" n;
          None)
      names
  in
  let j =
    Serve.Json.Obj
      [
        ("correct", Serve.Json.Bool (out.problems = []));
        ("attempted", Serve.Json.Int (max 1 out.attempted));
        ("failed", Serve.Json.Int out.failed);
        ("metrics", Serve.Json.Obj metrics);
      ]
  in
  print_endline (Serve.Json.to_string j)

(* ---------- processes ---------- *)

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* Scratch space inside the checkout (ignored by git). *)
let work_dir = "_perfbench"

let scratch () =
  let d = Filename.concat work_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p d;
  at_exit (fun () -> try rm_rf d with Sys_error _ -> ());
  d

(* Children not yet reaped; whatever is left at exit (a run that
   failed midway) is killed and reaped then. *)
let children = ref []

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st ->
    children := List.filter (( <> ) pid) !children;
    st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry pid))
        !children)

(* Spawn this executable with [args]; the child's stdout comes back as
   a channel. *)
let spawn_self ?stdin args =
  let r, w = Unix.pipe ~cloexec:true () in
  let cin, to_child =
    match stdin with
    | Some () ->
      let cr, cw = Unix.pipe ~cloexec:true () in
      (cr, Some cw)
    | None -> (Unix.stdin, None)
  in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) cin w Unix.stderr in
  children := pid :: !children;
  Unix.close w;
  (match to_child with Some _ -> Unix.close cin | None -> ());
  (pid, Unix.in_channel_of_descr r, Option.map Unix.out_channel_of_descr to_child)

(* ---------- determinism across runs ---------- *)

(* Work counts that must repeat exactly on every run of one build: the
   first run of a build records them, every later run compares.  A
   difference is nondeterminism, never noise. *)
let check_counts ~key counts =
  let file = Filename.concat work_dir ("counts-" ^ key) in
  let build = "exe " ^ Digest.to_hex (Digest.file Sys.executable_name) in
  let lines = build :: List.map (fun (k, v) -> k ^ " " ^ v) counts in
  let previous =
    match open_in_bin file with
    | exception Sys_error _ -> []
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      String.split_on_char '\n' s
  in
  match previous with
  | first :: _ when first = build ->
    List.iter
      (fun l ->
        if not (List.mem l previous) then
          problem "work count changed between runs of one build: %s (see %s)" l file)
      lines
  | _ ->
    mkdir_p work_dir;
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc (String.concat "\n" lines);
    close_out oc;
    Sys.rename tmp file
