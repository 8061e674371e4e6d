type result = {
  variant : Core.Variant.t;
  bindings : (string * int) list;
  measurement : Core.Executor.measurement;
}

let optimize engine kernel ~n ~mode =
  let machine = Core.Engine.machine engine in
  let variants = Core.Derive.variants machine kernel in
  (* Rank every variant's model-initial point analytically, then walk
     the ranking: the best-predicted point is measured once; if its
     measurement fails (timeout, quarantine, malformed program) the
     model's next choice is tried. *)
  let ranked =
    List.sort
      (fun (_, _, s1) (_, _, s2) -> compare s1 s2)
      (List.filter_map
         (fun v ->
           match Core.Search.model_point ~n v with
           | None -> None
           | Some bindings ->
             let s =
               match
                 Core.Predict.score_point machine v ~n ~bindings ~prefetch:[]
               with
               | s when Float.is_nan s -> infinity
               | s -> s
               | exception _ -> infinity
             in
             Some (v, bindings, s))
         variants)
  in
  let rec pick = function
    | [] -> None
    | (v, bindings, _) :: rest -> (
      match
        Core.Search.measure_point engine ~n ~mode v ~bindings ~prefetch:[]
      with
      | Some o ->
        Some { variant = v; bindings; measurement = o.Core.Search.measurement }
      | None -> pick rest)
  in
  pick ranked
