(* Bytecode VM: the measurement fast path.  Compiles a fully-bound
   program once into flat int arrays and replays it in a tight loop;
   in address-only mode each innermost loop runs from a descriptor,
   whole iterations in bulk and a budget-crossing one item by item.
   Semantics (statement order, evaluation order, budget behaviour,
   spill rules, address computation) mirror the closure interpreter in
   exec.ml exactly — the differential test suite holds the two
   bit-identical. *)

module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create ?(capacity = 4096) () = { a = Array.make (max 1 capacity) 0; len = 0 }
  let clear t = t.len <- 0
  let length t = t.len
  let data t = t.a

  (* Room for [n] more values without growing. *)
  let reserve t n =
    let need = t.len + n in
    if need > Array.length t.a then begin
      let size = ref (2 * Array.length t.a) in
      while !size < need do
        size := 2 * !size
      done;
      let bigger = Array.make !size 0 in
      Array.blit t.a 0 bigger 0 t.len;
      t.a <- bigger
    end

  let push t v =
    if t.len = Array.length t.a then reserve t 1;
    Array.unsafe_set t.a t.len v;
    t.len <- t.len + 1
end

(* Opcodes (code array). *)
let op_halt = 0
let op_flops = 1 (* [op; n] *)
let op_move = 2 (* [op] *)
let op_touch = 3 (* [op; aff]  affine pre-packed: ((base+o) lsl 5) lor tag *)
let op_loop = 4 (* [op; slot; step; lo_pc; hi_pc; end_pc; mark_id] *)
let op_end = 5 (* [op; loop_pc] *)
let op_iloop = 17 (* [op; slot; step; lo_pc; hi_pc; mark_id; descriptor...] *)

(* Compute-mode opcodes (float stack machine). *)
let op_fconst = 6 (* [op; fidx] *)
let op_floadh = 7 (* [op; aff; d; pbase]  pbase = (base lsl 5) lor tag *)
let op_floadr = 8 (* [op; aff; d] *)
let op_fneg = 9 (* [op] *)
let op_fadd = 10 (* [op] *)
let op_fsub = 11 (* [op] *)
let op_fmul = 12 (* [op] *)
let op_fdiv = 13 (* [op] *)
let op_fstoreh = 14 (* [op; aff; d; pbase] *)
let op_fstorer = 15 (* [op; aff; d] *)
let op_prefh = 16 (* [op; aff; pbase] *)

(* Loop-bound opcodes (bcode array, RPN). *)
let b_aff = 0 (* [op; aff] *)
let b_min = 1
let b_max = 2
let b_add = 3
let b_floormult = 4 (* [op; k] *)
let b_ret = 5

(* An address-only innermost loop compiles to one [op_iloop] whose
   descriptor follows inline:
   [op; slot; step; lo_pc; hi_pc; mark_id; next_pc; flops; moves; nt;
    items...; tinc...].
   [flops] and [moves] are per iteration.  [items] is the body in
   order, each [(arg lsl 2) lor kind]: [item_flops] adds [arg] flops,
   [item_move] is a register move, [item_touch] emits the next touch,
   whose value starts at interned affine expression [arg].  Touch [k]
   (in body order, [nt] in all) moves by [tinc.(k)] per iteration: the
   loop slot's coefficient × step, pre-shifted like the table, so the
   packed tag bits survive.  Execution continues at [next_pc]. *)
let item_flops = 0
let item_move = 1
let item_touch = 2

type t = {
  code : int array;
  bcode : int array;
  (* Affine table: value j = aconst.(j) + sum over k in
     [aoff.(j), aoff.(j)+alen.(j)) of acoef.(k) * env.(aslot.(k)). *)
  aconst : int array;
  aoff : int array;
  alen : int array;
  aslot : int array;
  acoef : int array;
  fconsts : float array;
  data : float array array;  (* per declaration; [||] entries in fast mode *)
  masters : float array array;  (* pristine copies, re-blitted each run *)
  heap_arrays : (string * int) list;  (* heap decls, declaration order *)
  spilled : int;
  mark_slots : int array array;
  (* Mutable scratch (one runner at a time). *)
  env : int array;
  cur : int array;  (* current touch values of the running innermost loop *)
  f_slot : int array;
  f_step : int array;
  f_hi : int array;
  f_body_pc : int array;
  f_mark : int array;
  bstack : int array;
  fstack : float array;
}

let mark_slots t = t.mark_slots
let spilled t = t.spilled

let arrays t = List.map (fun (name, d) -> (name, t.data.(d))) t.heap_arrays

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ?(compute = false) ?(marks = false) ?register_budget ~params
    (p : Program.t) =
  (match Program.validate p with
  | [] -> ()
  | errs ->
    invalid_arg
      (Printf.sprintf "Vm.compile: invalid program %s: %s" p.Program.name
         (String.concat "; " errs)));
  let loop_vars = Stmt.loop_vars p.Program.body in
  let slot_of = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slot_of v i) loop_vars;
  let param_value x =
    match List.assoc_opt x params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Vm.compile: unbound parameter %s" x)
  in
  let placements, spilled =
    Exec.placements ~with_data:compute ?register_budget ~params p
  in
  let placement_of name =
    List.find (fun pl -> pl.Exec.name = name) placements
  in
  let code = Buf.create ~capacity:256 () in
  let bcode = Buf.create ~capacity:64 () in
  let aconst = Buf.create ~capacity:64 () in
  let aoff = Buf.create ~capacity:64 () in
  let alen = Buf.create ~capacity:64 () in
  let aslot = Buf.create ~capacity:64 () in
  let acoef = Buf.create ~capacity:64 () in
  let fconsts = ref [] and n_fconsts = ref 0 in
  let intern_fconst c =
    fconsts := c :: !fconsts;
    incr n_fconsts;
    !n_fconsts - 1
  in
  (* Intern an affine expression: parameter terms fold into the
     constant, loop-variable terms read the environment.  [shift] and
     [tag] pre-pack the packed-event encoding for fast-mode touches. *)
  let intern_aff ?(shift = 0) ?(tag = 0) ?(base = 0) (a : Aff.t) =
    let const = ref (Aff.const_part a) in
    let terms =
      List.filter_map
        (fun (c, x) ->
          match Hashtbl.find_opt slot_of x with
          | Some slot -> Some (slot, c)
          | None ->
            const := !const + (c * param_value x);
            None)
        (Aff.terms a)
    in
    let j = Buf.length aconst in
    Buf.push aconst (((base + !const) lsl shift) lor tag);
    Buf.push aoff (Buf.length aslot);
    Buf.push alen (List.length terms);
    List.iter
      (fun (slot, c) ->
        Buf.push aslot slot;
        Buf.push acoef (c lsl shift))
      terms;
    j
  in
  let fold_offset (r : Reference.t) =
    let pl = placement_of r.Reference.array in
    let offset =
      List.fold_left2
        (fun acc idx stride -> Aff.add acc (Aff.scale stride idx))
        Aff.zero r.Reference.idx pl.Exec.strides
    in
    (pl, offset)
  in
  (* Loop bounds: RPN programs in [bcode]. *)
  let bexp_depth = ref 1 in
  let emit_bexp_prog (b : Bexp.t) =
    let start = Buf.length bcode in
    let rec emit depth b =
      bexp_depth := max !bexp_depth depth;
      match b with
      | Bexp.Aff a ->
        Buf.push bcode b_aff;
        Buf.push bcode (intern_aff a)
      | Bexp.Min (x, y) ->
        emit depth x;
        emit (depth + 1) y;
        Buf.push bcode b_min
      | Bexp.Max (x, y) ->
        emit depth x;
        emit (depth + 1) y;
        Buf.push bcode b_max
      | Bexp.Add (x, y) ->
        emit depth x;
        emit (depth + 1) y;
        Buf.push bcode b_add
      | Bexp.Floor_mult (x, k) ->
        emit depth x;
        Buf.push bcode b_floormult;
        Buf.push bcode k
    in
    emit 1 b;
    Buf.push bcode b_ret;
    start
  in
  (* In exec.ml [is_register_ref] is [not in_memory && data != [||]];
     the interpreter always allocates data, so it reduces to
     [not in_memory] — which also holds with [with_data:false]. *)
  let is_register_ref (r : Reference.t) =
    not (placement_of r.Reference.array).Exec.in_memory
  in
  (* Address-only mode: an assignment is its flop count (or register
     move), then its access events in the closure interpreter's order —
     operands right to left ([fa () +. fb ()] evaluates [fb] first),
     the store last.  [item] receives each piece, as bytecode outside
     innermost loops and as a descriptor item inside them. *)
  let assign_head (lhs : Reference.t) rhs =
    let n = Fexpr.flops rhs in
    let is_move =
      n = 0
      &&
      match rhs with
      | Fexpr.Ref r -> is_register_ref r && is_register_ref lhs
      | _ -> false
    in
    if is_move then item_move else (n lsl 2) lor item_flops
  in
  let touch item tag r =
    let pl, offset = fold_offset r in
    if pl.Exec.in_memory then
      item
        ((intern_aff ~shift:5 ~tag ~base:pl.Exec.base offset lsl 2)
        lor item_touch)
  in
  let rec touch_loads item (e : Fexpr.t) =
    match e with
    | Fexpr.Ref r -> touch item Sink.tag_load r
    | Fexpr.Const _ -> ()
    | Fexpr.Neg x -> touch_loads item x
    | Fexpr.Bin (_, a, b) ->
      touch_loads item b;
      touch_loads item a
  in
  let address_stmt item (s : Stmt.t) =
    match s with
    | Stmt.Assign (lhs, rhs) ->
      item (assign_head lhs rhs);
      touch_loads item rhs;
      touch item Sink.tag_store lhs
    | Stmt.Prefetch r -> touch item Sink.tag_prefetch r
    | Stmt.Loop _ -> invalid_arg "Vm.compile: address_stmt on a loop"
  in
  let emit_op item =
    let kind = item land 3 in
    if kind = item_move then Buf.push code op_move
    else begin
      Buf.push code (if kind = item_flops then op_flops else op_touch);
      Buf.push code (item lsr 2)
    end
  in
  (* Compute mode: float stack machine, same evaluation order. *)
  let data_index =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i pl -> Hashtbl.replace tbl pl.Exec.name i) placements;
    fun name -> Hashtbl.find tbl name
  in
  let fexpr_depth = ref 1 in
  let rec emit_fexpr depth (e : Fexpr.t) =
    fexpr_depth := max !fexpr_depth depth;
    match e with
    | Fexpr.Ref r ->
      let pl, offset = fold_offset r in
      if pl.Exec.in_memory then begin
        Buf.push code op_floadh;
        Buf.push code (intern_aff offset);
        Buf.push code (data_index r.Reference.array);
        Buf.push code ((pl.Exec.base lsl 5) lor Sink.tag_load)
      end
      else begin
        Buf.push code op_floadr;
        Buf.push code (intern_aff offset);
        Buf.push code (data_index r.Reference.array)
      end
    | Fexpr.Const c ->
      Buf.push code op_fconst;
      Buf.push code (intern_fconst c)
    | Fexpr.Neg x ->
      emit_fexpr depth x;
      Buf.push code op_fneg
    | Fexpr.Bin (op, a, b) ->
      emit_fexpr depth b;
      emit_fexpr (depth + 1) a;
      Buf.push code
        (match op with
        | Fexpr.Add -> op_fadd
        | Fexpr.Sub -> op_fsub
        | Fexpr.Mul -> op_fmul
        | Fexpr.Div -> op_fdiv)
  in
  let emit_store (lhs : Reference.t) =
    let pl, offset = fold_offset lhs in
    if pl.Exec.in_memory then begin
      Buf.push code op_fstoreh;
      Buf.push code (intern_aff offset);
      Buf.push code (data_index lhs.Reference.array);
      Buf.push code ((pl.Exec.base lsl 5) lor Sink.tag_store)
    end
    else begin
      Buf.push code op_fstorer;
      Buf.push code (intern_aff offset);
      Buf.push code (data_index lhs.Reference.array)
    end
  in
  (* Iteration marks: slots feeding the folded offsets of the
     in-memory references of an innermost loop body. *)
  let mark_slot_lists = ref [] and n_marks = ref 0 in
  let body_mark_slots body =
    let slots = ref [] in
    List.iter
      (fun r ->
        let pl, offset = fold_offset r in
        if pl.Exec.in_memory then
          List.iter
            (fun (_, x) ->
              match Hashtbl.find_opt slot_of x with
              | Some s when not (List.mem s !slots) -> slots := s :: !slots
              | _ -> ())
            (Aff.terms offset))
      (Stmt.all_refs body);
    Array.of_list (List.sort compare !slots)
  in
  let is_innermost body =
    not (List.exists (function Stmt.Loop _ -> true | _ -> false) body)
  in
  (* Per-iteration change of interned affine value [j] in a loop over
     [slot]. *)
  let aff_step j ~slot ~step =
    let o = (Buf.data aoff).(j) in
    let inc = ref 0 in
    for k = o to o + (Buf.data alen).(j) - 1 do
      if (Buf.data aslot).(k) = slot then
        inc := !inc + ((Buf.data acoef).(k) * step)
    done;
    !inc
  in
  let push_code v = Buf.push code v in
  let address_into_code s = address_stmt push_code s in
  let max_touches = ref 0 in
  let emit_iloop (l : Stmt.loop) ~slot ~lo_pc ~hi_pc ~mark_id =
    let header = Buf.length code in
    Buf.push code op_iloop;
    Buf.push code slot;
    Buf.push code l.Stmt.step;
    Buf.push code lo_pc;
    Buf.push code hi_pc;
    Buf.push code mark_id;
    (* next_pc, flops, moves and nt, patched below *)
    for _ = 1 to 4 do
      Buf.push code 0
    done;
    let items = Buf.length code in
    List.iter address_into_code l.Stmt.body;
    let tinc = Buf.length code in
    let flops = ref 0 and moves = ref 0 in
    for q = items to tinc - 1 do
      let it = (Buf.data code).(q) in
      let kind = it land 3 in
      if kind = item_touch then
        Buf.push code (aff_step (it lsr 2) ~slot ~step:l.Stmt.step)
      else if kind = item_flops then flops := !flops + (it lsr 2)
      else incr moves
    done;
    let nt = Buf.length code - tinc in
    let d = Buf.data code in
    d.(header + 6) <- Buf.length code;
    d.(header + 7) <- !flops;
    d.(header + 8) <- !moves;
    d.(header + 9) <- nt;
    max_touches := max !max_touches nt
  in
  let max_depth = ref 0 in
  let rec emit_stmt depth (s : Stmt.t) =
    match s with
    | Stmt.Assign (lhs, rhs) when compute ->
      emit_op (assign_head lhs rhs);
      emit_fexpr 1 rhs;
      emit_store lhs
    | Stmt.Prefetch r when compute ->
      let pl, offset = fold_offset r in
      if pl.Exec.in_memory then begin
        Buf.push code op_prefh;
        Buf.push code (intern_aff offset);
        Buf.push code ((pl.Exec.base lsl 5) lor Sink.tag_prefetch)
      end
    | Stmt.Assign _ | Stmt.Prefetch _ -> address_stmt emit_op s
    | Stmt.Loop l ->
      (* The interpreter evaluates [hi] before [lo] at loop entry. *)
      let hi_pc = emit_bexp_prog l.Stmt.hi in
      let lo_pc = emit_bexp_prog l.Stmt.lo in
      let innermost = is_innermost l.Stmt.body in
      let mark_id =
        if marks && innermost then begin
          mark_slot_lists := body_mark_slots l.Stmt.body :: !mark_slot_lists;
          incr n_marks;
          !n_marks - 1
        end
        else -1
      in
      let slot = Hashtbl.find slot_of l.Stmt.var in
      if innermost && not compute then
        emit_iloop l ~slot ~lo_pc ~hi_pc ~mark_id
      else begin
        max_depth := max !max_depth depth;
        let loop_pc = Buf.length code in
        Buf.push code op_loop;
        Buf.push code slot;
        Buf.push code l.Stmt.step;
        Buf.push code lo_pc;
        Buf.push code hi_pc;
        let end_patch = Buf.length code in
        Buf.push code 0;
        Buf.push code mark_id;
        List.iter (emit_stmt (depth + 1)) l.Stmt.body;
        Buf.push code op_end;
        Buf.push code loop_pc;
        (Buf.data code).(end_patch) <- Buf.length code
      end
  in
  List.iter (emit_stmt 1) p.Program.body;
  Buf.push code op_halt;
  let data = Array.of_list (List.map (fun pl -> pl.Exec.data) placements) in
  let masters = Array.map Array.copy data in
  let heap_arrays =
    List.filter_map
      (fun pl ->
        match (Program.find_decl_exn p pl.Exec.name).Decl.storage with
        | Decl.Heap -> Some (pl.Exec.name, data_index pl.Exec.name)
        | Decl.Register -> None)
      placements
  in
  let sub b = Array.sub (Buf.data b) 0 (Buf.length b) in
  {
    code = sub code;
    bcode = sub bcode;
    aconst = sub aconst;
    aoff = sub aoff;
    alen = sub alen;
    aslot = sub aslot;
    acoef = sub acoef;
    fconsts = Array.of_list (List.rev !fconsts);
    data;
    masters;
    heap_arrays;
    spilled;
    mark_slots = Array.of_list (List.rev !mark_slot_lists);
    env = Array.make (max 1 (List.length loop_vars)) 0;
    cur = Array.make (max 1 !max_touches) 0;
    f_slot = Array.make (max 1 !max_depth) 0;
    f_step = Array.make (max 1 !max_depth) 0;
    f_hi = Array.make (max 1 !max_depth) 0;
    f_body_pc = Array.make (max 1 !max_depth) 0;
    f_mark = Array.make (max 1 !max_depth) 0;
    bstack = Array.make (!bexp_depth + 1) 0;
    fstack = Array.make (!fexpr_depth + 1) 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type run = {
  stats : Exec.stats;
  events : int array;
  n_events : int;
  marks : int array;
  n_marks : int;
  cut_events : int;
  cut_marks : int;
}

(* The run-time helpers are top-level functions of [t], so a run
   allocates no closures. *)

(* Value of interned affine expression [j] under the current loop
   variables. *)
let eval_aff t j =
  let env = t.env and aconst = t.aconst and acoef = t.acoef and aslot = t.aslot in
  let o = Array.unsafe_get t.aoff j in
  match Array.unsafe_get t.alen j with
  | 0 -> Array.unsafe_get aconst j
  | 1 ->
    Array.unsafe_get aconst j
    + (Array.unsafe_get acoef o * Array.unsafe_get env (Array.unsafe_get aslot o))
  | 2 ->
    Array.unsafe_get aconst j
    + (Array.unsafe_get acoef o * Array.unsafe_get env (Array.unsafe_get aslot o))
    + Array.unsafe_get acoef (o + 1)
      * Array.unsafe_get env (Array.unsafe_get aslot (o + 1))
  | n ->
    let acc = ref (Array.unsafe_get aconst j) in
    for k = o to o + n - 1 do
      acc :=
        !acc
        + (Array.unsafe_get acoef k
          * Array.unsafe_get env (Array.unsafe_get aslot k))
    done;
    !acc

(* Loop bound: the RPN program at [start] in [bcode]. *)
let eval_bexp t start =
  let bcode = t.bcode and bstack = t.bstack in
  let pc = ref start and sp = ref 0 in
  let result = ref 0 in
  let running = ref true in
  while !running do
    let op = Array.unsafe_get bcode !pc in
    if op = b_aff then begin
      bstack.(!sp) <- eval_aff t bcode.(!pc + 1);
      incr sp;
      pc := !pc + 2
    end
    else if op = b_ret then begin
      result := bstack.(!sp - 1);
      running := false
    end
    else if op = b_floormult then begin
      let k = bcode.(!pc + 1) in
      let v = bstack.(!sp - 1) in
      bstack.(!sp - 1) <-
        k * (if v >= 0 then v / k else -(((-v) + k - 1) / k));
      pc := !pc + 2
    end
    else begin
      let y = bstack.(!sp - 1) and x = bstack.(!sp - 2) in
      bstack.(!sp - 2) <-
        (if op = b_min then min x y else if op = b_max then max x y else x + y);
      decr sp;
      pc := !pc + 1
    end
  done;
  !result

let record_mark t mk ev mark_id =
  Buf.push mk mark_id;
  Buf.push mk ev.Buf.len;
  let slots = t.mark_slots.(mark_id) in
  for i = 0 to Array.length slots - 1 do
    Buf.push mk t.env.(slots.(i))
  done

let run ?flop_budget ?warm_budget ?events ?marks t =
  let ev = match events with Some b -> Buf.clear b; b | None -> Buf.create () in
  let mk =
    match marks with Some b -> Buf.clear b; b | None -> Buf.create ~capacity:64 ()
  in
  let budget = match flop_budget with None -> max_int | Some b -> b in
  let warm = match warm_budget with None -> max_int | Some w -> w in
  let code = t.code and env = t.env in
  Array.fill env 0 (Array.length env) 0;
  for i = 0 to Array.length t.masters - 1 do
    Array.blit t.masters.(i) 0 t.data.(i) 0 (Array.length t.masters.(i))
  done;
  let halt_pc = Array.length code - 1 in
  let f_slot = t.f_slot
  and f_step = t.f_step
  and f_hi = t.f_hi
  and f_body_pc = t.f_body_pc
  and f_mark = t.f_mark in
  let fstack = t.fstack and data = t.data and fconsts = t.fconsts in
  let cur = t.cur in
  let sp = ref 0 and fsp = ref 0 in
  let flops = ref 0 and iters = ref 0 and moves = ref 0 in
  let completed = ref true in
  let cut_e = ref (-1) and cut_m = ref (-1) in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let op = Array.unsafe_get code !pc in
    if op = op_touch then begin
      (* Hottest opcode: emit one pre-packed event. *)
      let v = eval_aff t (Array.unsafe_get code (!pc + 1)) in
      if ev.Buf.len = Array.length ev.Buf.a then Buf.reserve ev 1;
      Array.unsafe_set ev.Buf.a ev.Buf.len v;
      ev.Buf.len <- ev.Buf.len + 1;
      pc := !pc + 2
    end
    else if op = op_flops then begin
      flops := !flops + Array.unsafe_get code (!pc + 1);
      if !flops > warm && !cut_e = -1 then begin
        cut_e := ev.Buf.len;
        cut_m := mk.Buf.len
      end;
      if !flops > budget then begin
        completed := false;
        pc := halt_pc
      end
      else pc := !pc + 2
    end
    else if op = op_end then begin
      let f = !sp - 1 in
      let slot = Array.unsafe_get f_slot f in
      let i = Array.unsafe_get env slot + Array.unsafe_get f_step f in
      if i <= Array.unsafe_get f_hi f then begin
        Array.unsafe_set env slot i;
        incr iters;
        let m = Array.unsafe_get f_mark f in
        if m >= 0 then record_mark t mk ev m;
        pc := Array.unsafe_get f_body_pc f
      end
      else begin
        sp := f;
        pc := !pc + 2
      end
    end
    else if op = op_iloop then begin
      let at = !pc in
      let hi = eval_bexp t code.(at + 4) in
      let lo = eval_bexp t code.(at + 3) in
      let next = code.(at + 6) in
      if lo <= hi then begin
        let slot = code.(at + 1) and step = code.(at + 2) in
        let mark = code.(at + 5) in
        let per_iter = code.(at + 7) and nt = code.(at + 9) in
        let items = at + 10 and tinc = next - nt in
        env.(slot) <- lo;
        let k = ref 0 in
        for q = items to tinc - 1 do
          let item = code.(q) in
          if item land 3 = item_touch then begin
            cur.(!k) <- eval_aff t (item lsr 2);
            incr k
          end
        done;
        let i = ref lo and left = ref (((hi - lo) / step) + 1) in
        while !left > 0 do
          (* Flops only grow within an iteration, so the whole
             iterations that end at or below the flop budget (and,
             while the cut is unset, the warm budget) cross neither:
             they run in bulk.  A count already above the limit (a
             negative budget) leaves every iteration to the walk. *)
          let limit = if !cut_e < 0 then min budget warm else budget in
          let fit =
            if !flops > limit then 0
            else if per_iter = 0 then !left
            else min !left ((limit - !flops) / per_iter)
          in
          if fit > 0 then begin
            Buf.reserve ev (fit * nt);
            let a = ev.Buf.a in
            if mark < 0 then begin
              (* Touch by touch: each value stays in a register and its
                 slots [base + k + it * nt] are written in stride. *)
              let base = ev.Buf.len in
              for k = 0 to nt - 1 do
                let v = ref (Array.unsafe_get cur k) in
                let inc = Array.unsafe_get code (tinc + k) in
                let p = ref (base + k) in
                for _ = 1 to fit do
                  Array.unsafe_set a !p !v;
                  v := !v + inc;
                  p := !p + nt
                done;
                Array.unsafe_set cur k !v
              done;
              ev.Buf.len <- base + (fit * nt);
              i := !i + (fit * step)
            end
            else
              (* Marked: iteration by iteration, each mark first. *)
              for _ = 1 to fit do
                env.(slot) <- !i;
                record_mark t mk ev mark;
                let pos = ev.Buf.len in
                for k = 0 to nt - 1 do
                  let v = Array.unsafe_get cur k in
                  Array.unsafe_set a (pos + k) v;
                  Array.unsafe_set cur k (v + Array.unsafe_get code (tinc + k))
                done;
                ev.Buf.len <- pos + nt;
                i := !i + step
              done;
            flops := !flops + (fit * per_iter);
            moves := !moves + (fit * code.(at + 8));
            iters := !iters + fit;
            left := !left - fit
          end;
          if !left > 0 then begin
            (* The iteration that crosses a threshold, item by item. *)
            env.(slot) <- !i;
            incr iters;
            if mark >= 0 then record_mark t mk ev mark;
            let q = ref items and k = ref 0 in
            while !q < tinc do
              let item = code.(!q) in
              let kind = item land 3 in
              if kind = item_touch then begin
                Buf.push ev cur.(!k);
                cur.(!k) <- cur.(!k) + code.(tinc + !k);
                incr k
              end
              else if kind = item_move then incr moves
              else begin
                flops := !flops + (item lsr 2);
                if !flops > warm && !cut_e = -1 then begin
                  cut_e := ev.Buf.len;
                  cut_m := mk.Buf.len
                end;
                if !flops > budget then begin
                  completed := false;
                  q := tinc
                end
              end;
              incr q
            done;
            i := !i + step;
            left := if !completed then !left - 1 else 0
          end
        done;
        if !completed then env.(slot) <- !i - step
      end;
      pc := if !completed then next else halt_pc
    end
    else if op = op_loop then begin
      let hi = eval_bexp t code.(!pc + 4) in
      let lo = eval_bexp t code.(!pc + 3) in
      if lo > hi then pc := code.(!pc + 5)
      else begin
        let slot = code.(!pc + 1) in
        let f = !sp in
        f_slot.(f) <- slot;
        f_step.(f) <- code.(!pc + 2);
        f_hi.(f) <- hi;
        f_body_pc.(f) <- !pc + 7;
        f_mark.(f) <- code.(!pc + 6);
        sp := f + 1;
        env.(slot) <- lo;
        incr iters;
        let m = code.(!pc + 6) in
        if m >= 0 then record_mark t mk ev m;
        pc := !pc + 7
      end
    end
    else if op = op_move then begin
      incr moves;
      pc := !pc + 1
    end
    else if op = op_halt then running := false
    else if op = op_floadh then begin
      let o = eval_aff t code.(!pc + 1) in
      Buf.push ev (code.(!pc + 3) + (o lsl 5));
      fstack.(!fsp) <- Array.unsafe_get data.(code.(!pc + 2)) o;
      incr fsp;
      pc := !pc + 4
    end
    else if op = op_floadr then begin
      let o = eval_aff t code.(!pc + 1) in
      fstack.(!fsp) <- Array.unsafe_get data.(code.(!pc + 2)) o;
      incr fsp;
      pc := !pc + 3
    end
    else if op = op_fstoreh then begin
      let o = eval_aff t code.(!pc + 1) in
      Buf.push ev (code.(!pc + 3) + (o lsl 5));
      decr fsp;
      Array.unsafe_set data.(code.(!pc + 2)) o fstack.(!fsp);
      pc := !pc + 4
    end
    else if op = op_fstorer then begin
      let o = eval_aff t code.(!pc + 1) in
      decr fsp;
      Array.unsafe_set data.(code.(!pc + 2)) o fstack.(!fsp);
      pc := !pc + 3
    end
    else if op = op_fconst then begin
      fstack.(!fsp) <- fconsts.(code.(!pc + 1));
      incr fsp;
      pc := !pc + 2
    end
    else if op = op_fneg then begin
      fstack.(!fsp - 1) <- -.fstack.(!fsp - 1);
      pc := !pc + 1
    end
    else if op = op_prefh then begin
      let o = eval_aff t code.(!pc + 1) in
      Buf.push ev (code.(!pc + 2) + (o lsl 5));
      pc := !pc + 3
    end
    else begin
      (* Binary float op: x (top of stack) is the left operand, as in
         [fa () op fb ()] with right-to-left operand evaluation. *)
      let x = fstack.(!fsp - 1) and y = fstack.(!fsp - 2) in
      fstack.(!fsp - 2) <-
        (if op = op_fadd then x +. y
         else if op = op_fsub then x -. y
         else if op = op_fmul then x *. y
         else x /. y);
      decr fsp;
      pc := !pc + 1
    end
  done;
  if warm_budget <> None && !cut_e = -1 then begin
    cut_e := ev.Buf.len;
    cut_m := mk.Buf.len
  end;
  {
    stats =
      {
        Exec.flops = !flops;
        loop_iterations = !iters;
        register_moves = !moves;
        spilled_scalars = t.spilled;
        completed = !completed;
      };
    events = ev.Buf.a;
    n_events = ev.Buf.len;
    marks = mk.Buf.a;
    n_marks = mk.Buf.len;
    cut_events = !cut_e;
    cut_marks = !cut_m;
  }
