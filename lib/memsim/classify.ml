type report = {
  accesses : int;
  compulsory : int;
  capacity : int;
  conflict : int;
  real_misses : int;
  fa_misses : int;
}

type t = {
  real : Cache.t;
  rd : Reuse_distance.t;  (* oracle for the fully associative cache *)
  capacity_lines : int;
  mutable accesses : int;
  mutable real_misses : int;
}

let create (g : Machine.cache) =
  {
    real = Cache.create g;
    rd = Reuse_distance.create ~line_bytes:g.Machine.line_bytes ();
    capacity_lines = g.Machine.size_bytes / g.Machine.line_bytes;
    accesses = 0;
    real_misses = 0;
  }

let access t addr =
  t.accesses <- t.accesses + 1;
  let line = Cache.line_of_addr t.real addr in
  if Cache.access t.real ~line ~write:false = Cache.absent then begin
    t.real_misses <- t.real_misses + 1;
    ignore (Cache.insert t.real ~ready:0 ~dirty:false ~line)
  end;
  Reuse_distance.access t.rd addr

let sink t =
  {
    Ir.Sink.load = (fun addr -> access t addr);
    Ir.Sink.store = (fun addr -> access t addr);
    Ir.Sink.prefetch = ignore;
  }

let report t =
  let compulsory = Reuse_distance.cold t.rd in
  let fa_misses = Reuse_distance.misses_at t.rd t.capacity_lines in
  let capacity =
    max 0 (min (fa_misses - compulsory) (t.real_misses - compulsory))
  in
  let conflict = max 0 (t.real_misses - fa_misses) in
  {
    accesses = t.accesses;
    compulsory;
    capacity;
    conflict;
    real_misses = t.real_misses;
    fa_misses;
  }

let of_program machine ~level ~params program =
  let t = create (Machine.cache_level machine level) in
  ignore (Ir.Exec.run ~sink:(sink t) ~params program);
  report t

let pp fmt (r : report) =
  Format.fprintf fmt
    "%d accesses: %d misses (%d compulsory, %d capacity, %d conflict)"
    r.accesses r.real_misses r.compulsory r.capacity r.conflict
