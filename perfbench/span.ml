(* In-memory spans recorded around the benchmark's own calls into each
   layer.  Nothing is recorded until [enable] is called, so the untraced
   run pays one branch per call site.  Spans are written out once, at
   the end, as Chrome trace-event JSON (viewable at ui.perfetto.dev). *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  lane : int;  (** trace-viewer row; concurrent requests get their own *)
  t0 : float;
  mutable t1 : float;
  mutable minor_words : float;  (** [Gc.quick_stat] delta over the span *)
  mutable major_collections : int;
  aggregate : bool;
      (** laid out from a program-side total, not timed by the span *)
}

let enabled = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let recorded = ref 0

let enable () = enabled := true
let now = Unix.gettimeofday

let fresh ~name ~parent ~lane ~t0 ~t1 ~aggregate =
  let s =
    {
      id = !next_id;
      name;
      parent;
      lane;
      t0;
      t1;
      minor_words = 0.0;
      major_collections = 0;
      aggregate;
    }
  in
  incr next_id;
  incr recorded;
  spans := s :: !spans;
  s

let current () = match !stack with p :: _ -> p | [] -> -1

(* [with_ name f] runs [f] inside a span that is a child of the
   innermost open one. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let s = fresh ~name ~parent:(current ()) ~lane:0 ~t0:(now ()) ~t1:0.0 ~aggregate:false in
    stack := s.id :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        let g1 = Gc.quick_stat () in
        s.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
        s.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
        stack := List.tl !stack)
  end

(* A span whose interval was timed elsewhere (a request timed from send
   to reply, overlapping its siblings). *)
let record ?(parent = current ()) ?(lane = 0) name ~t0 ~t1 =
  if !enabled then ignore (fresh ~name ~parent ~lane ~t0 ~t1 ~aggregate:false)

(* Program-side totals ([Engine.stats] seconds) become children of the
   innermost open span, laid end to end from its start: their sizes are
   real, their positions are not. *)
let aggregates parts =
  if !enabled then
    match List.find_opt (fun s -> s.id = current ()) !spans with
    | None -> ()
    | Some p ->
      let at = ref p.t0 in
      List.iter
        (fun (name, d) ->
          if d > 0.0 then begin
            ignore (fresh ~name ~parent:p.id ~lane:0 ~t0:!at ~t1:(!at +. d) ~aggregate:true);
            at := !at +. d
          end)
        parts

let all () = List.rev !spans
let duration s = s.t1 -. s.t0

(* Length of the union of the children's intervals, clipped to the
   parent — children of a request phase overlap. *)
let coverage parent children =
  let iv =
    List.sort compare
      (List.map (fun c -> (Float.max parent.t0 c.t0, Float.min parent.t1 c.t1)) children)
  in
  let total, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = Float.max a hi in
        if b > a then (acc +. (b -. a), b) else (acc, hi))
      (0.0, neg_infinity) iv
  in
  total

let self_time s =
  let children = List.filter (fun c -> c.parent = s.id) !spans in
  Float.max 0.0 (duration s -. coverage s children)

(* Per-name totals over every span: calls, wall, self time, minor
   words. *)
let table () =
  let h = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let c, d, st, w =
        match Hashtbl.find_opt h s.name with
        | Some v -> v
        | None ->
          order := s.name :: !order;
          (0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace h s.name (c + 1, d +. duration s, st +. self_time s, w +. s.minor_words))
    (all ());
  List.rev_map (fun n -> (n, Hashtbl.find h n)) !order

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event format: one complete ("X") event per span, in
   microseconds from the first span. *)
let write_chrome file =
  let ss = all () in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity ss in
  let oc = open_out file in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f,\"minor_words\":%.0f,\"major_collections\":%d}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name)
        (if s.aggregate then "aggregate" else "span")
        s.lane
        ((s.t0 -. base) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent
        (self_time s *. 1e6)
        s.minor_words s.major_collections)
    ss;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
