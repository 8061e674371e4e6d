type stats = { accesses : int; misses : int }

type region = {
  name : string;
  lo : int;
  hi : int;  (* exclusive *)
  mutable r_accesses : int;
  mutable r_misses : int;
}

type t = {
  cache : Cache.t;
  regions : region array;
  other : region;
}

let create (g : Machine.cache) ~regions =
  {
    cache = Cache.create g;
    regions =
      Array.of_list
        (List.map
           (fun (name, lo, bytes) ->
             { name; lo; hi = lo + bytes; r_accesses = 0; r_misses = 0 })
           regions);
    other = { name = "<other>"; lo = 0; hi = 0; r_accesses = 0; r_misses = 0 };
  }

let region_of t addr =
  let n = Array.length t.regions in
  let rec go i =
    if i >= n then t.other
    else
      let r = t.regions.(i) in
      if addr >= r.lo && addr < r.hi then r else go (i + 1)
  in
  go 0

let access t addr =
  let r = region_of t addr in
  r.r_accesses <- r.r_accesses + 1;
  let line = Cache.line_of_addr t.cache addr in
  if Cache.access t.cache ~line ~write:false = Cache.absent then begin
    r.r_misses <- r.r_misses + 1;
    ignore (Cache.insert t.cache ~ready:0 ~dirty:false ~line)
  end

let sink t =
  {
    Ir.Sink.load = (fun addr -> access t addr);
    Ir.Sink.store = (fun addr -> access t addr);
    Ir.Sink.prefetch = ignore;
  }

let report t =
  let entries =
    Array.to_list
      (Array.map
         (fun r -> (r.name, { accesses = r.r_accesses; misses = r.r_misses }))
         t.regions)
  in
  if t.other.r_accesses > 0 then
    entries
    @ [
        ( t.other.name,
          { accesses = t.other.r_accesses; misses = t.other.r_misses } );
      ]
  else entries

let regions_of_program ~params (p : Ir.Program.t) =
  let lookup x =
    match List.assoc_opt x params with
    | Some v -> v
    | None -> invalid_arg ("Attribution: unbound parameter " ^ x)
  in
  List.map
    (fun (name, base_elems) ->
      let d = Ir.Program.find_decl_exn p name in
      (name, base_elems * 8, Ir.Decl.elements lookup d * 8))
    (Ir.Exec.layout ~params p)

let of_program machine ~level ~params program =
  let t =
    create
      (Machine.cache_level machine level)
      ~regions:(regions_of_program ~params program)
  in
  ignore (Ir.Exec.run ~sink:(sink t) ~params program);
  report t
