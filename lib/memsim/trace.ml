(* Events are packed as [addr lsl 2 lor tag] (the Ir.Sink.pack
   encoding) in a growable int array. *)

let tag_load = Ir.Sink.tag_load
let tag_store = Ir.Sink.tag_store
let tag_prefetch = Ir.Sink.tag_prefetch

type t = {
  mutable buf : int array;
  mutable len : int;
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_prefetches : int;
}

(* Even tiny kernels emit tens of thousands of events, so start big
   enough that a typical budgeted measurement never reallocates. *)
let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  {
    buf = Array.make (max 1 capacity) 0;
    len = 0;
    n_loads = 0;
    n_stores = 0;
    n_prefetches = 0;
  }

let clear t =
  t.len <- 0;
  t.n_loads <- 0;
  t.n_stores <- 0;
  t.n_prefetches <- 0

let push t v =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- v;
  t.len <- t.len + 1

let sink t =
  {
    Ir.Sink.load =
      (fun addr ->
        t.n_loads <- t.n_loads + 1;
        push t ((addr lsl 2) lor tag_load));
    Ir.Sink.store =
      (fun addr ->
        t.n_stores <- t.n_stores + 1;
        push t ((addr lsl 2) lor tag_store));
    Ir.Sink.prefetch =
      (fun addr ->
        t.n_prefetches <- t.n_prefetches + 1;
        push t ((addr lsl 2) lor tag_prefetch));
  }

let tee a b =
  {
    Ir.Sink.load =
      (fun addr ->
        a.Ir.Sink.load addr;
        b.Ir.Sink.load addr);
    Ir.Sink.store =
      (fun addr ->
        a.Ir.Sink.store addr;
        b.Ir.Sink.store addr);
    Ir.Sink.prefetch =
      (fun addr ->
        a.Ir.Sink.prefetch addr;
        b.Ir.Sink.prefetch addr);
  }

let length t = t.len
let loads t = t.n_loads
let stores t = t.n_stores
let prefetches t = t.n_prefetches

let raw t = t.buf

let replay_packed t hierarchy =
  Hierarchy.replay_packed hierarchy t.buf ~pos:0 ~len:t.len

let replay t (sink : Ir.Sink.t) =
  for i = 0 to t.len - 1 do
    let v = t.buf.(i) in
    let addr = v lsr 2 in
    match v land 3 with
    | 0 -> sink.Ir.Sink.load addr
    | 1 -> sink.Ir.Sink.store addr
    | _ -> sink.Ir.Sink.prefetch addr
  done

let of_program ~params program =
  let t = create () in
  ignore (Ir.Exec.run ~sink:(sink t) ~params program);
  t

let misses_under t geometry =
  let cache = Cache.create geometry in
  let accesses = ref 0 and misses = ref 0 in
  let touch addr =
    incr accesses;
    let line = Cache.line_of_addr cache addr in
    if Cache.access cache ~line ~write:false = Cache.absent then begin
      incr misses;
      ignore (Cache.insert cache ~ready:0 ~dirty:false ~line)
    end
  in
  replay t
    { Ir.Sink.load = touch; Ir.Sink.store = touch; Ir.Sink.prefetch = ignore };
  (!accesses, !misses)
