type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;
  set_mask : int;
  tags : int array;  (* sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU: larger = more recent *)
  fills : int array;  (* cycle at which the line's data arrives *)
  dirty : bool array;
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
    tags = Array.make (sets * c.Machine.assoc) (-1);
    stamps = Array.make (sets * c.Machine.assoc) 0;
    fills = Array.make (sets * c.Machine.assoc) 0;
    dirty = Array.make (sets * c.Machine.assoc) false;
    tick = 0;
  }

let sets c = c.sets
let assoc c = c.assoc
let line_bytes c = c.line_bytes
let line_of_addr c addr = addr lsr c.line_shift

let insert c ~now:_ ~ready ~dirty ~line =
  let base = (line land c.set_mask) * c.assoc in
  (* The first invalid way wins outright (any invalid way is as good as
     another, so scanning on is wasted work); otherwise evict the LRU
     way, earliest index winning stamp ties. *)
  let victim = ref (-1) in
  let lru = ref base in
  let lru_stamp = ref max_int in
  let way = ref 0 in
  while !victim < 0 && !way < c.assoc do
    let i = base + !way in
    if c.tags.(i) = -1 then victim := i
    else begin
      if c.stamps.(i) < !lru_stamp then begin
        lru := i;
        lru_stamp := c.stamps.(i)
      end;
      incr way
    end
  done;
  let i = if !victim >= 0 then !victim else !lru in
  let evicted_dirty = c.tags.(i) <> -1 && c.dirty.(i) in
  c.tick <- c.tick + 1;
  c.tags.(i) <- line;
  c.stamps.(i) <- c.tick;
  c.fills.(i) <- ready;
  c.dirty.(i) <- dirty;
  evicted_dirty

(* Index of [line]'s way among [tags.(i .. stop-1)], or -1.  A line
   occupies at most one way ([insert] only runs on a miss), so the first
   match is the only one. *)
let rec find_way (tags : int array) ~(line : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = line then i
  else find_way tags ~line (i + 1) stop

let way c ~line =
  let base = (line land c.set_mask) * c.assoc in
  find_way c.tags ~line base (base + c.assoc)

let set_dirty c ~line =
  let i = way c ~line in
  if i >= 0 then c.dirty.(i) <- true

let absent = min_int

let access c ~line ~write =
  let i = way c ~line in
  if i < 0 then absent
  else begin
    c.tick <- c.tick + 1;
    Array.unsafe_set c.stamps i c.tick;
    if write then Array.unsafe_set c.dirty i true;
    Array.unsafe_get c.fills i
  end

let resident c ~line = way c ~line >= 0

let reset c =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.stamps 0 (Array.length c.stamps) 0;
  Array.fill c.fills 0 (Array.length c.fills) 0;
  Array.fill c.dirty 0 (Array.length c.dirty) false;
  c.tick <- 0

let settle c = Array.fill c.fills 0 (Array.length c.fills) 0

let occupancy c =
  Array.fold_left (fun acc t -> if t <> -1 then acc + 1 else acc) 0 c.tags
