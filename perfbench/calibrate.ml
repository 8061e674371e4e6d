(* Host-speed reference.  On a shared host the same tune takes anywhere
   from 1x to 1.5x its quiet-machine time, in phases lasting seconds.
   [run] times a short fixed computation that does not depend on the
   program under test — a two-level set-associative cache simulation over
   a synthetic address stream, the same kind of work as the simulator's
   replay loop.  Sampled every 0.1 s while a tune runs, it gives the
   speed the host ran at, and the tune's wall time is scaled to the speed
   at which [run] takes [reference_s]. *)

let l1_sets = 512
let l2_sets = 65536
let l1 = Array.make (2 * l1_sets) (-1)
let l2 = Array.make (2 * l2_sets) (-1)
(* Seconds one [run] of [events] takes on a quiet 2-core x86-64
   development host. *)
let events = 1 lsl 16
let reference_s = 0.0011

let run () =
  let x = ref 12345 and hits = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    (* mostly unit-stride lines, every eighth access scattered *)
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let line = (if i land 7 = 0 then !x land 0xfffff else i) lsr 2 in
    let s = 2 * (line land (l1_sets - 1)) in
    if l1.(s) = line then incr hits
    else if l1.(s + 1) = line then begin
      l1.(s + 1) <- l1.(s);
      l1.(s) <- line;
      incr hits
    end
    else begin
      l1.(s + 1) <- l1.(s);
      l1.(s) <- line;
      let s2 = 2 * (line land (l2_sets - 1)) in
      if l2.(s2) <> line then begin
        l2.(s2 + 1) <- l2.(s2);
        l2.(s2) <- line
      end
    end
  done;
  let t = Unix.gettimeofday () -. t0 in
  if !hits > events then failwith "calibration miscounted";
  t

(* Speed samples taken while a measured computation runs: [tick] (from
   a poll hook) runs one calibration at most every [every] seconds. *)
type sampler = { every : float; mutable last : float; mutable total : float; mutable n : int }

let sampler ?(every = 0.1) () = { every; last = Unix.gettimeofday (); total = 0.0; n = 0 }

let tick s =
  let t = Unix.gettimeofday () in
  if t -. s.last >= s.every then begin
    s.total <- s.total +. run ();
    s.n <- s.n + 1;
    s.last <- Unix.gettimeofday ()
  end

(* Multiply a timing by this to express it at reference speed: the
   reference over the mean calibration time seen while it ran (one
   calibration now when none was sampled). *)
let factor s = reference_s /. if s.n = 0 then run () else s.total /. float_of_int s.n
