(* Tests for the paper's core algorithm: variant derivation (phase 1),
   instantiation, and the model-guided empirical search (phase 2). *)

module Kernel = Kernels.Kernel
module Matmul = Kernels.Matmul
module Jacobi3d = Kernels.Jacobi3d
module Matvec = Kernels.Matvec

let sgi = Machine.sgi_r10000
let fast_mode = Core.Executor.Budget 30_000

let mm_variants = lazy (Core.Derive.variants sgi Matmul.kernel)
let jacobi_variants = lazy (Core.Derive.variants sgi Jacobi3d.kernel)

let find_constraint (v : Core.Variant.t) what_part =
  List.find_opt
    (fun c ->
      let d = Core.Constr.describe c in
      (* substring search *)
      let rec contains i =
        i + String.length what_part <= String.length d
        && (String.sub d i (String.length what_part) = what_part || contains (i + 1))
      in
      contains 0)
    v.Core.Variant.constraints

(* --- Param / Constr --- *)

let test_param_names () =
  Alcotest.(check string) "unroll" "ui" (Core.Param.unroll "i").Core.Param.name;
  Alcotest.(check string) "tile" "tk" (Core.Param.tile "k").Core.Param.name

let test_constr_poly_le () =
  let c =
    Core.Constr.Poly_le
      {
        poly = Analysis.Poly.mul (Analysis.Poly.var "x") (Analysis.Poly.var "y");
        bound = 32;
        what = "regs";
      }
  in
  let lookup b x = List.assoc x b in
  Alcotest.(check bool) "4*8 ok" true (Core.Constr.satisfied c (lookup [ ("x", 4); ("y", 8) ]));
  Alcotest.(check bool) "5*8 too big" false
    (Core.Constr.satisfied c (lookup [ ("x", 5); ("y", 8) ]))

let test_constr_pages () =
  let c =
    Core.Constr.Pages_le
      {
        elems = Analysis.Poly.var "e";
        runs = Analysis.Poly.var "r";
        page_elems = 512;
        bound = 4;
        what = "tlb";
      }
  in
  let lookup b x = List.assoc x b in
  Alcotest.(check bool) "small" true
    (Core.Constr.satisfied c (lookup [ ("e", 1024); ("r", 2) ]));
  Alcotest.(check bool) "too many runs" false
    (Core.Constr.satisfied c (lookup [ ("e", 1024); ("r", 8) ]));
  Alcotest.(check bool) "too many pages" false
    (Core.Constr.satisfied c (lookup [ ("e", 4096); ("r", 1) ]))

let test_constr_stride () =
  let c =
    Core.Constr.Stride_not_multiple
      { elems = Analysis.Poly.var "s"; modulus = 2048; what = "copy" }
  in
  let lookup v x = if x = "s" then v else raise Not_found in
  Alcotest.(check bool) "small ok" true (Core.Constr.satisfied c (lookup 128));
  Alcotest.(check bool) "exact multiple bad" false
    (Core.Constr.satisfied c (lookup 4096));
  Alcotest.(check bool) "non-multiple ok" true (Core.Constr.satisfied c (lookup 4097))

(* --- Derive: Matrix Multiply (the paper's Table 4) --- *)

let test_mm_variant_count () =
  let vs = Lazy.force mm_variants in
  Alcotest.(check bool)
    (Printf.sprintf "several variants (%d)" (List.length vs))
    true
    (List.length vs >= 4 && List.length vs <= 16)

let test_mm_register_loop_is_k () =
  List.iter
    (fun (v : Core.Variant.t) ->
      match List.rev v.Core.Variant.element_order with
      | innermost :: _ -> Alcotest.(check string) "k innermost" "k" innermost
      | [] -> Alcotest.fail "empty order")
    (Lazy.force mm_variants)

let test_mm_register_constraint () =
  (* Table 4: UI*UJ <= 32 on every variant. *)
  List.iter
    (fun v ->
      match find_constraint v "registers" with
      | Some (Core.Constr.Poly_le { poly; bound; _ }) ->
        Alcotest.(check int) "bound 32" 32 bound;
        Alcotest.(check string) "ui*uj" "ui*uj" (Analysis.Poly.to_string poly)
      | _ -> Alcotest.fail "missing register constraint")
    (Lazy.force mm_variants)

let test_mm_both_orders_derived () =
  let orders =
    List.sort_uniq compare
      (List.map
         (fun (v : Core.Variant.t) -> v.Core.Variant.element_order)
         (Lazy.force mm_variants))
  in
  Alcotest.(check bool) "IJK present" true (List.mem [ "i"; "j"; "k" ] orders);
  Alcotest.(check bool) "JIK present" true (List.mem [ "j"; "i"; "k" ] orders)

let test_mm_l1_constraint_2048 () =
  (* The paper's L1 bound: (2-1)/2 * 32KB/8B = 2048 elements. *)
  let v = List.hd (Lazy.force mm_variants) in
  match find_constraint v "L1 capacity" with
  | Some (Core.Constr.Poly_le { bound; _ }) ->
    Alcotest.(check int) "2048" 2048 bound
  | _ -> Alcotest.fail "missing L1 constraint"

let test_mm_l2_constraint_65536 () =
  let v = List.hd (Lazy.force mm_variants) in
  match find_constraint v "L2 capacity" with
  | Some (Core.Constr.Poly_le { bound; _ }) ->
    Alcotest.(check int) "65536" 65536 bound
  | _ -> Alcotest.fail "missing L2 constraint"

let test_mm_copy_variants_exist () =
  let vs = Lazy.force mm_variants in
  let copied (v : Core.Variant.t) =
    List.sort compare
      (List.map
         (fun (c : Core.Variant.copy_spec) -> c.Core.Variant.array)
         v.Core.Variant.copies)
  in
  Alcotest.(check bool) "copy-B variant (Fig 1b)" true
    (List.exists (fun v -> copied v = [ "b" ]) vs);
  Alcotest.(check bool) "copy-A-and-B variant (Fig 1c)" true
    (List.exists (fun v -> copied v = [ "a"; "b" ]) vs);
  Alcotest.(check bool) "no-copy variant kept for search" true
    (List.exists (fun v -> copied v = []) vs)

let test_mm_small_array_variant () =
  (* A variant whose L2 constraint involves n — the paper's v1, feasible
     only for small problem sizes. *)
  let vs = Lazy.force mm_variants in
  Alcotest.(check bool) "n-dependent L2 constraint" true
    (List.exists
       (fun (v : Core.Variant.t) ->
         List.exists
           (fun c -> List.mem "n" (Core.Constr.vars c))
           v.Core.Variant.constraints)
       vs)

(* --- Derive: Jacobi --- *)

let test_jacobi_variant_count () =
  let vs = Lazy.force jacobi_variants in
  Alcotest.(check bool)
    (Printf.sprintf "2..8 variants (%d)" (List.length vs))
    true
    (List.length vs >= 2 && List.length vs <= 8)

let test_jacobi_i_innermost () =
  List.iter
    (fun (v : Core.Variant.t) ->
      match List.rev v.Core.Variant.element_order with
      | innermost :: _ -> Alcotest.(check string) "i innermost" "i" innermost
      | [] -> Alcotest.fail "empty")
    (Lazy.force jacobi_variants)

let test_jacobi_never_copies () =
  (* The paper: copying is not profitable for the stencil. *)
  List.iter
    (fun (v : Core.Variant.t) ->
      Alcotest.(check int) "no copies" 0 (List.length v.Core.Variant.copies))
    (Lazy.force jacobi_variants)

let test_jacobi_multiple_outer_orders () =
  let orders =
    List.sort_uniq compare
      (List.map
         (fun (v : Core.Variant.t) -> v.Core.Variant.element_order)
         (Lazy.force jacobi_variants))
  in
  Alcotest.(check bool) "at least two loop orders" true (List.length orders >= 2)

let test_jacobi_register_constraint_rotation () =
  (* 3 rotating B registers per unrolled point: 3*uj*uk <= 32. *)
  let v = List.hd (Lazy.force jacobi_variants) in
  match find_constraint v "registers" with
  | Some (Core.Constr.Poly_le { poly; _ }) ->
    let at uj uk =
      Analysis.Poly.eval
        (fun x -> match x with "uj" -> uj | "uk" -> uk | _ -> 1)
        poly
    in
    Alcotest.(check int) "3*2*2" 12 (at 2 2);
    Alcotest.(check int) "3*1*1" 3 (at 1 1)
  | _ -> Alcotest.fail "missing register constraint"

(* --- Variant instantiation --- *)

let test_instantiate_all_mm_variants_sound () =
  let reference = Kernel.run_original Matmul.kernel 13 in
  let want = List.assoc "c" reference.Ir.Exec.arrays in
  List.iter
    (fun (v : Core.Variant.t) ->
      let bindings =
        List.map
          (fun p ->
            ( p.Core.Param.name,
              match p.Core.Param.kind with
              | Core.Param.Unroll -> 3
              | Core.Param.Tile -> 5 ))
          (Core.Variant.params v)
      in
      let p = Core.Variant.instantiate v ~bindings in
      let r = Ir.Exec.run ~params:[ ("n", 13) ] p in
      let got = List.assoc "c" r.Ir.Exec.arrays in
      Array.iteri
        (fun i w ->
          if Float.abs (w -. got.(i)) > 1e-9 *. Float.max 1.0 (Float.abs w) then
            Alcotest.failf "%s: c[%d] differs" v.Core.Variant.name i)
        want)
    (Lazy.force mm_variants)

let test_instantiate_all_jacobi_variants_sound () =
  let reference = Kernel.run_original Jacobi3d.kernel 11 in
  let want = List.assoc "a" reference.Ir.Exec.arrays in
  List.iter
    (fun (v : Core.Variant.t) ->
      let bindings =
        List.map
          (fun p ->
            ( p.Core.Param.name,
              match p.Core.Param.kind with
              | Core.Param.Unroll -> 2
              | Core.Param.Tile -> 4 ))
          (Core.Variant.params v)
      in
      let p = Core.Variant.instantiate v ~bindings in
      let r = Ir.Exec.run ~params:[ ("n", 11) ] p in
      let got = List.assoc "a" r.Ir.Exec.arrays in
      Array.iteri
        (fun i w ->
          if Float.abs (w -. got.(i)) > 1e-9 *. Float.max 1.0 (Float.abs w) then
            Alcotest.failf "%s: a[%d] differs" v.Core.Variant.name i)
        want)
    (Lazy.force jacobi_variants)

let test_feasible_respects_constraints () =
  let v =
    List.find
      (fun (v : Core.Variant.t) -> v.Core.Variant.copies <> [])
      (Lazy.force mm_variants)
  in
  let base =
    List.map (fun p -> (p.Core.Param.name, 2)) (Core.Variant.params v)
  in
  Alcotest.(check bool) "small point feasible" true
    (Core.Variant.feasible v ~n:64 base);
  let big = List.map (fun (k, _) -> (k, 64)) base in
  (* ui=uj=64 blows the register constraint. *)
  Alcotest.(check bool) "big point infeasible" false
    (Core.Variant.feasible v ~n:64 big)

let test_feasible_rejects_oversized_tiles () =
  let v = List.hd (Lazy.force mm_variants) in
  let bindings =
    List.map
      (fun p ->
        ( p.Core.Param.name,
          match p.Core.Param.kind with Core.Param.Unroll -> 2 | Core.Param.Tile -> 100 ))
      (Core.Variant.params v)
  in
  Alcotest.(check bool) "tile > n rejected" false
    (Core.Variant.feasible v ~n:50 bindings)

(* --- Executor --- *)

let test_executor_full_vs_budget_agree () =
  (* Budgeted cycles extrapolate close to the full simulation. *)
  let p = Matmul.kernel.Kernel.program in
  let full = Core.Executor.measure sgi Matmul.kernel ~n:48 ~mode:Core.Executor.Full p in
  let sampled =
    Core.Executor.measure sgi Matmul.kernel ~n:48
      ~mode:(Core.Executor.Budget 40_000) p
  in
  let rel =
    Float.abs
      (Core.Executor.cycles full -. Core.Executor.cycles sampled)
    /. Core.Executor.cycles full
  in
  Alcotest.(check bool)
    (Printf.sprintf "within 40%% (%.2f)" rel)
    true (rel < 0.4)

let test_executor_scale_factor () =
  let p = Matmul.kernel.Kernel.program in
  let m =
    Core.Executor.measure sgi Matmul.kernel ~n:64
      ~mode:(Core.Executor.Budget 10_000) p
  in
  Alcotest.(check bool) "scale > 1" true (m.Core.Executor.scale > 1.0);
  let full = Core.Executor.measure sgi Matmul.kernel ~n:16 ~mode:Core.Executor.Full p in
  Alcotest.(check (float 0.0)) "full scale = 1" 1.0 full.Core.Executor.scale

(* --- Search --- *)

let test_model_point_feasible () =
  List.iter
    (fun v ->
      match Core.Search.model_point ~n:64 v with
      | Some bindings ->
        Alcotest.(check bool)
          (v.Core.Variant.name ^ " model point feasible")
          true
          (Core.Variant.feasible v ~n:64 bindings)
      | None -> Alcotest.failf "%s has no model point" v.Core.Variant.name)
    (Lazy.force mm_variants)

let test_search_improves_on_model_point () =
  let v = List.hd (Lazy.force mm_variants) in
  let engine = Core.Engine.create sgi in
  let log = Core.Search_log.create () in
  match Core.Search.tune_variant engine ~n:48 ~mode:fast_mode ~log v with
  | None -> Alcotest.fail "no outcome"
  | Some o ->
    let model = Core.Search.model_point ~n:48 v in
    let model_cycles =
      match model with
      | Some bindings -> (
        match
          Core.Search.measure_point engine ~n:48 ~mode:fast_mode v ~bindings
            ~prefetch:[]
        with
        | Some out -> Core.Executor.cycles out.Core.Search.measurement
        | None -> infinity)
      | None -> infinity
    in
    Alcotest.(check bool) "tuned <= model-initial" true
      (Core.Executor.cycles o.Core.Search.measurement <= model_cycles)

let test_search_result_feasible () =
  let v = List.hd (Lazy.force mm_variants) in
  let log = Core.Search_log.create () in
  match
    Core.Search.tune_variant (Core.Engine.create sgi) ~n:48 ~mode:fast_mode
      ~log v
  with
  | None -> Alcotest.fail "no outcome"
  | Some o ->
    Alcotest.(check bool) "bindings feasible" true
      (Core.Variant.feasible v ~n:48 o.Core.Search.bindings)

let test_search_deterministic () =
  let v = List.hd (Lazy.force mm_variants) in
  let run () =
    let log = Core.Search_log.create () in
    match
      Core.Search.tune_variant (Core.Engine.create sgi) ~n:32 ~mode:fast_mode
        ~log v
    with
    | Some o -> (o.Core.Search.bindings, o.Core.Search.prefetch)
    | None -> ([], [])
  in
  Alcotest.(check bool) "same result twice" true (run () = run ())

let test_search_log_records () =
  let v = List.hd (Lazy.force mm_variants) in
  let log = Core.Search_log.create () in
  ignore
    (Core.Search.tune_variant (Core.Engine.create sgi) ~n:32 ~mode:fast_mode
       ~log v);
  Alcotest.(check bool) "points logged" true (Core.Search_log.points log > 3);
  match Core.Search_log.best log with
  | Some best ->
    List.iter
      (fun e ->
        Alcotest.(check bool) "best is minimal" true
          (best.Core.Search_log.cycles <= e.Core.Search_log.cycles))
      (Core.Search_log.entries log)
  | None -> Alcotest.fail "no best"

(* --- Eco end-to-end --- *)

let test_eco_beats_naive () =
  let r = Core.Eco.optimize ~mode:fast_mode sgi Matmul.kernel ~n:48 in
  let naive =
    Core.Engine.measure_program r.Core.Eco.engine Matmul.kernel ~n:48
      ~mode:fast_mode Matmul.kernel.Kernel.program
  in
  Alcotest.(check bool) "tuned faster than naive" true
    (r.Core.Eco.measurement.Core.Executor.mflops > naive.Core.Executor.mflops)

let test_eco_remeasure_other_size () =
  let r = Core.Eco.optimize ~mode:fast_mode sgi Matmul.kernel ~n:48 in
  (match Core.Eco.remeasure ~mode:fast_mode sgi r ~n:64 with
  | Some m -> Alcotest.(check bool) "positive" true (m.Core.Executor.mflops > 0.0)
  | None -> Alcotest.fail "remeasure failed");
  (* Smaller than the tuned tiles: clamping must keep it feasible. *)
  match Core.Eco.remeasure ~mode:fast_mode sgi r ~n:16 with
  | Some m -> Alcotest.(check bool) "clamped tiles work" true (m.Core.Executor.mflops > 0.0)
  | None -> Alcotest.fail "remeasure with clamping failed"

let test_eco_matvec () =
  (* The optimizer handles a 2-loop kernel end to end. *)
  let r = Core.Eco.optimize ~mode:fast_mode sgi Matvec.kernel ~n:256 in
  Alcotest.(check bool) "positive result" true
    (r.Core.Eco.measurement.Core.Executor.mflops > 0.0)

let test_eco_optimized_code_is_correct () =
  let r = Core.Eco.optimize ~mode:fast_mode sgi Matmul.kernel ~n:32 in
  let got =
    Ir.Exec.run ~params:[ ("n", 17) ] r.Core.Eco.outcome.Core.Search.program
  in
  let want = Kernel.run_original Matmul.kernel 17 in
  let gc = List.assoc "c" got.Ir.Exec.arrays in
  let wc = List.assoc "c" want.Ir.Exec.arrays in
  Array.iteri
    (fun i w ->
      if Float.abs (w -. gc.(i)) > 1e-9 *. Float.max 1.0 (Float.abs w) then
        Alcotest.failf "optimized output differs at %d" i)
    wc

let suite =
  [
    Alcotest.test_case "param names" `Quick test_param_names;
    Alcotest.test_case "constr: poly_le" `Quick test_constr_poly_le;
    Alcotest.test_case "constr: pages_le" `Quick test_constr_pages;
    Alcotest.test_case "constr: stride" `Quick test_constr_stride;
    Alcotest.test_case "mm: variant count" `Quick test_mm_variant_count;
    Alcotest.test_case "mm: K innermost everywhere" `Quick
      test_mm_register_loop_is_k;
    Alcotest.test_case "mm: UI*UJ <= 32 (Table 4)" `Quick
      test_mm_register_constraint;
    Alcotest.test_case "mm: both loop orders (v1+v2)" `Quick
      test_mm_both_orders_derived;
    Alcotest.test_case "mm: L1 bound 2048 (Table 4)" `Quick
      test_mm_l1_constraint_2048;
    Alcotest.test_case "mm: L2 bound 65536 (Table 4)" `Quick
      test_mm_l2_constraint_65536;
    Alcotest.test_case "mm: copy variants" `Quick test_mm_copy_variants_exist;
    Alcotest.test_case "mm: small-array variant" `Quick
      test_mm_small_array_variant;
    Alcotest.test_case "jacobi: variant count" `Quick test_jacobi_variant_count;
    Alcotest.test_case "jacobi: I innermost" `Quick test_jacobi_i_innermost;
    Alcotest.test_case "jacobi: never copies" `Quick test_jacobi_never_copies;
    Alcotest.test_case "jacobi: multiple orders" `Quick
      test_jacobi_multiple_outer_orders;
    Alcotest.test_case "jacobi: rotation register constraint" `Quick
      test_jacobi_register_constraint_rotation;
    Alcotest.test_case "instantiate: all mm variants sound" `Quick
      test_instantiate_all_mm_variants_sound;
    Alcotest.test_case "instantiate: all jacobi variants sound" `Quick
      test_instantiate_all_jacobi_variants_sound;
    Alcotest.test_case "feasible: constraints" `Quick
      test_feasible_respects_constraints;
    Alcotest.test_case "feasible: tile <= n" `Quick
      test_feasible_rejects_oversized_tiles;
    Alcotest.test_case "executor: budget extrapolates" `Quick
      test_executor_full_vs_budget_agree;
    Alcotest.test_case "executor: scale factor" `Quick test_executor_scale_factor;
    Alcotest.test_case "search: model point feasible" `Quick
      test_model_point_feasible;
    Alcotest.test_case "search: improves on model point" `Quick
      test_search_improves_on_model_point;
    Alcotest.test_case "search: result feasible" `Quick test_search_result_feasible;
    Alcotest.test_case "search: deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "search: log records" `Quick test_search_log_records;
    Alcotest.test_case "eco: beats naive" `Quick test_eco_beats_naive;
    Alcotest.test_case "eco: remeasure other sizes" `Quick
      test_eco_remeasure_other_size;
    Alcotest.test_case "eco: matvec end-to-end" `Quick test_eco_matvec;
    Alcotest.test_case "eco: optimized code correct" `Quick
      test_eco_optimized_code_is_correct;
  ]
