(* Small numeric helpers: order statistics and the non-negative least
   squares fit behind the simulator's per-outcome cost split. *)

let sorted xs = List.sort compare xs

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p]th percentile — the count a tail
   percentile rests on. *)
let beyond p xs =
  let v = percentile p xs in
  List.length (List.filter (fun x -> x > v) xs)

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* Solve the square system [a x = b] by Gaussian elimination with
   partial pivoting; [None] when singular. *)
let solve a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  try
    for c = 0 to n - 1 do
      let p = ref c in
      for r = c + 1 to n - 1 do
        if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
      done;
      if Float.abs a.(!p).(c) < 1e-300 then raise Exit;
      let t = a.(c) in
      a.(c) <- a.(!p);
      a.(!p) <- t;
      let t = b.(c) in
      b.(c) <- b.(!p);
      b.(!p) <- t;
      for r = c + 1 to n - 1 do
        let f = a.(r).(c) /. a.(c).(c) in
        for k = c to n - 1 do
          a.(r).(k) <- a.(r).(k) -. (f *. a.(c).(k))
        done;
        b.(r) <- b.(r) -. (f *. b.(c))
      done
    done;
    let x = Array.make n 0.0 in
    for r = n - 1 downto 0 do
      let s = ref b.(r) in
      for k = r + 1 to n - 1 do
        s := !s -. (a.(r).(k) *. x.(k))
      done;
      x.(r) <- !s /. a.(r).(r)
    done;
    Some x
  with Exit -> None

(* Non-negative least squares [y ~ X w, w >= 0] for a handful of
   columns: try every column subset, solve its normal equations, keep
   the feasible solution with the smallest squared residual.  Returns
   the weights and the relative residual [||y - Xw|| / ||y||]. *)
let nnls rows ys =
  let k = match rows with r :: _ -> Array.length r | [] -> 0 in
  let xs = Array.of_list rows and ys = Array.of_list ys in
  let rss w =
    let s = ref 0.0 in
    Array.iteri
      (fun i row ->
        let p = ref 0.0 in
        Array.iteri (fun j x -> p := !p +. (x *. w.(j))) row;
        let e = ys.(i) -. !p in
        s := !s +. (e *. e))
      xs;
    !s
  in
  let best = ref (Array.make k 0.0) in
  let best_rss = ref (rss !best) in
  for mask = 1 to (1 lsl k) - 1 do
    let cols = List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init k Fun.id) in
    let cols = Array.of_list cols in
    let m = Array.length cols in
    let a = Array.make_matrix m m 0.0 and b = Array.make m 0.0 in
    Array.iteri
      (fun i row ->
        for p = 0 to m - 1 do
          b.(p) <- b.(p) +. (row.(cols.(p)) *. ys.(i));
          for q = 0 to m - 1 do
            a.(p).(q) <- a.(p).(q) +. (row.(cols.(p)) *. row.(cols.(q)))
          done
        done)
      xs;
    match solve a b with
    | Some x when Array.for_all (fun v -> v >= 0.0) x ->
      let w = Array.make k 0.0 in
      Array.iteri (fun p j -> w.(j) <- x.(p)) cols;
      let r = rss w in
      if r < !best_rss then begin
        best := w;
        best_rss := r
      end
    | _ -> ()
  done;
  let norm = sqrt (Array.fold_left (fun a y -> a +. (y *. y)) 0.0 ys) in
  (!best, if norm > 0.0 then sqrt !best_rss /. norm else 0.0)
