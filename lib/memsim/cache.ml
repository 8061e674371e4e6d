type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;
  set_mask : int;
  ways : int array;  (* per way: tag (-1 = invalid), stamp, fill, dirty *)
  mutable tick : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (c : Machine.cache) =
  let lines = c.Machine.size_bytes / c.Machine.line_bytes in
  let sets = lines / c.Machine.assoc in
  if not (is_pow2 sets) then
    invalid_arg
      (Printf.sprintf "Cache.create: %s has %d sets (must be a power of two)"
         c.Machine.name sets);
  if not (is_pow2 c.Machine.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  {
    sets;
    assoc = c.Machine.assoc;
    line_bytes = c.Machine.line_bytes;
    line_shift = log2 c.Machine.line_bytes;
    set_mask = sets - 1;
    ways = Array.init (4 * lines) (fun i -> if i mod 4 = 0 then -1 else 0);
    tick = 0;
  }

let sets c = c.sets
let assoc c = c.assoc
let line_bytes c = c.line_bytes
let line_of_addr c addr = addr lsr c.line_shift

(* First slot of [line]'s set. *)
let set_base c line = 4 * (line land c.set_mask) * c.assoc

let insert c ~ready ~dirty ~line =
  let base = set_base c line and ways = c.ways in
  (* The first invalid way wins outright (any invalid way is as good as
     another, so scanning on is wasted work); otherwise evict the LRU
     way, earliest index winning stamp ties. *)
  let victim = ref (-1) in
  let lru = ref base in
  let lru_stamp = ref max_int in
  let way = ref 0 in
  while !victim < 0 && !way < c.assoc do
    let i = base + (4 * !way) in
    if ways.(i) = -1 then victim := i
    else begin
      if ways.(i + 1) < !lru_stamp then begin
        lru := i;
        lru_stamp := ways.(i + 1)
      end;
      incr way
    end
  done;
  let i = if !victim >= 0 then !victim else !lru in
  let evicted_dirty = ways.(i) <> -1 && ways.(i + 3) = 1 in
  c.tick <- c.tick + 1;
  ways.(i) <- line;
  ways.(i + 1) <- c.tick;
  ways.(i + 2) <- ready;
  ways.(i + 3) <- Bool.to_int dirty;
  evicted_dirty

(* First slot of [line]'s way among the ways starting at slots [i],
   [i + 4], ... below [stop], or -1.  A line occupies at most one way
   ([insert] only runs on a miss), so the first match is the only
   one. *)
let rec find_way (ways : int array) ~(line : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get ways i = line then i
  else find_way ways ~line (i + 4) stop

let way c ~line =
  let base = set_base c line in
  find_way c.ways ~line base (base + (4 * c.assoc))

let set_dirty c ~line =
  let i = way c ~line in
  if i >= 0 then c.ways.(i + 3) <- 1

let absent = min_int

let access c ~line ~write =
  let i = way c ~line in
  if i < 0 then absent
  else begin
    c.tick <- c.tick + 1;
    Array.unsafe_set c.ways (i + 1) c.tick;
    if write then Array.unsafe_set c.ways (i + 3) 1;
    Array.unsafe_get c.ways (i + 2)
  end

let resident c ~line = way c ~line >= 0

let reset c =
  Array.fill c.ways 0 (Array.length c.ways) 0;
  for w = 0 to (Array.length c.ways / 4) - 1 do
    c.ways.(4 * w) <- -1
  done;
  c.tick <- 0

let settle c =
  for w = 0 to (Array.length c.ways / 4) - 1 do
    c.ways.((4 * w) + 2) <- 0
  done

let occupancy c =
  let n = ref 0 in
  for w = 0 to (Array.length c.ways / 4) - 1 do
    if c.ways.(4 * w) <> -1 then incr n
  done;
  !n
