type t = {
  entries : int;
  page_bytes : int;
  page_shift : int;
  slots : int array;  (* ring buffer of resident pages; -1 = empty *)
  keys : int array;  (* open-addressing hash set of resident pages *)
  mask : int;
  mutable next : int;
  mutable last_page : int;  (* MRU fast path *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (g : Machine.tlb) =
  (* The resident set is probed on every simulated access, so it is an
     open-addressing table kept at most quarter-full: pages hash by
     identity (working sets are contiguous page runs, which distribute
     perfectly) and linear probing rarely moves past the home slot. *)
  let size =
    let rec go s = if s >= 4 * g.Machine.entries then s else go (2 * s) in
    go 16
  in
  {
    entries = g.Machine.entries;
    page_bytes = g.Machine.page_bytes;
    page_shift = log2 g.Machine.page_bytes;
    slots = Array.make g.Machine.entries (-1);
    keys = Array.make size (-1);
    mask = size - 1;
    next = 0;
    last_page = -1;
  }

let page_bytes t = t.page_bytes
let page_of_addr t addr = addr lsr t.page_shift

(* Probes over the key table are top-level functions: a local closure
   would allocate on every call, and [access] runs once per TLB miss of
   the replay kernel. *)
let rec mem_from (keys : int array) mask page i =
  let k = Array.unsafe_get keys i in
  k = page || (k <> -1 && mem_from keys mask page ((i + 1) land mask))

let mem t page = mem_from t.keys t.mask page (page land t.mask)

let rec free_slot keys mask i =
  if Array.unsafe_get keys i = -1 then i else free_slot keys mask ((i + 1) land mask)

let add t page = t.keys.(free_slot t.keys t.mask (page land t.mask)) <- page

let rec slot_of (keys : int array) mask page i =
  if keys.(i) = page then i else slot_of keys mask page ((i + 1) land mask)

(* Backward-shift deletion: refill the hole left at the removed slot by
   sliding later chain members whose home slot lies at or before the
   hole, so [mem]'s stop-at-empty probe stays correct. *)
let remove t page =
  let keys = t.keys and mask = t.mask in
  let hole = ref (slot_of keys mask page (page land mask)) in
  keys.(!hole) <- -1;
  let j = ref !hole in
  let scanning = ref true in
  while !scanning do
    j := (!j + 1) land mask;
    let k = keys.(!j) in
    if k = -1 then scanning := false
    else if (!j - (k land mask)) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- k;
      keys.(!j) <- -1;
      hole := !j
    end
  done

let access t ~page =
  if page = t.last_page then true
  else if mem t page then begin
    t.last_page <- page;
    true
  end
  else begin
    let victim = t.slots.(t.next) in
    if victim <> -1 then remove t victim;
    t.slots.(t.next) <- page;
    add t page;
    t.next <- (t.next + 1) mod t.entries;
    t.last_page <- page;
    false
  end

let probe t ~page = page = t.last_page || mem t page

let reset t =
  Array.fill t.slots 0 t.entries (-1);
  Array.fill t.keys 0 (t.mask + 1) (-1);
  t.next <- 0;
  t.last_page <- -1

let occupancy t =
  Array.fold_left (fun acc k -> if k = -1 then acc else acc + 1) 0 t.keys
