module Ast = Secshare_xpath.Ast
open Query_common

(* AdvancedQuery as a plan lowering: every step carries the look-ahead
   points of the remaining query (the names still to be matched), and
   the cheap containment sieve — own point first, then the look-ahead
   points — always runs before a strict equality test, since equality
   implies containment.  Descendant steps lower to [Pruned_scan],
   whose level-by-level walk never enters a branch that fails the
   sieve.

   With the fused protocol the *first* sieve point rides inside the
   step's scan (a child scan, or each level of the pruned walk); the
   remaining points still drop out one [Eval_batch] round at a time,
   so the evaluation counts (one pair per surviving node per point)
   match the unfused lowering — only the round-trip count shrinks. *)
let lower ?agg ~fused ~mapping ~strictness query =
  if query = [] then raise (Query_error "empty query");
  let look_names = Ast.names_after query in
  let step_ops ~first index (step : Ast.step) =
    let look = look_points mapping look_names.(index) in
    let own_point =
      match step.Ast.test with
      | Ast.Name name -> Some (map_point mapping name)
      | Ast.Any | Ast.Parent -> None
    in
    let sieve = match own_point with None -> look | Some p -> p :: look in
    let eval, rest =
      match sieve with p :: rest when fused -> (Some p, rest) | _ -> (None, sieve)
    in
    let strict_eq =
      match (own_point, strictness) with
      | Some point, Strict -> [ Plan.Filter_equality { point } ]
      | _ -> []
    in
    let containment points =
      match points with
      | [] -> []
      | _ -> [ Plan.Filter_containment { points } ]
    in
    match (step.Ast.test, step.Ast.axis) with
    | Ast.Parent, _ -> (Plan.Parent_step :: Plan.Dedup :: containment look)
    | _, Ast.Child ->
        let axis = if first then Plan.Root_scan else Plan.Child_scan in
        (Plan.Scan { axis; eval } :: Plan.Dedup :: containment rest) @ strict_eq
    | _, Ast.Descendant ->
        (* the walk prunes with the full sieve even in strict mode —
           containment is what lets it stop early; the equality test
           runs after, on each level's survivors *)
        let prefix =
          if first then [ Plan.Scan { axis = Plan.Root_scan; eval = None } ] else []
        in
        prefix
        @ (Plan.Pruned_scan { eval; prune = rest; include_self = first } :: strict_eq)
        @ [ Plan.Dedup ]
  in
  let rec go ~first index = function
    | [] -> []
    | step :: rest -> step_ops ~first index step @ go ~first:false (index + 1) rest
  in
  let path_ops = go ~first:true 0 query in
  match agg with
  | None -> path_ops
  | Some func ->
      path_ops @ [ Plan.Aggregate { func; scale = agg_scale mapping ~func query } ]
