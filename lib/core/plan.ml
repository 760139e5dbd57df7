module Ast = Secshare_xpath.Ast

(* The query plan IR: a linear chain of batch-streaming operators
   lowered from an XPath AST.  XPath location paths are themselves
   linear, so the plan is a list — each operator pulls batches from
   the one before it (Volcano style, but batch-at-a-time rather than
   tuple-at-a-time).

   The IR is *physical*: lowering already decided whether a name
   step's containment test rides inside the scan (the fused
   [Scan_eval] protocol path) or runs as a separate [Filter_containment]
   round trip, so [to_string]/[--explain] show exactly what executes. *)

type axis_scan =
  | Root_scan  (** the document root (children of the virtual node 0) *)
  | Child_scan  (** children of every input node *)
  | Descendant_scan of { include_self : bool }
      (** descendants of every input node; [include_self] also emits
          the input nodes themselves (the first [//] step, where the
          context is the virtual document node) *)

type op =
  | Scan of { axis : axis_scan; eval : int option }
      (** [eval] is a containment point fused into the scan: scanned
          rows come back with server evaluations and only the rows
          containing the point survive *)
  | Pruned_scan of { eval : int option; prune : int list; include_self : bool }
      (** the advanced engine's look-ahead descendant walk: descend
          level by level, keeping (and descending into) only nodes
          whose subtree contains [eval] and every prune point — dead
          branches are never entered.  [eval] rides in each level's
          scan; the [prune] points drop out in [Eval_batch] rounds *)
  | Parent_step  (** parent of every input node *)
  | Filter_containment of { points : int list }
      (** keep nodes whose subtree contains every point; applied one
          point at a time over each batch, so a node drops out at its
          first failing point *)
  | Filter_equality of { point : int }
      (** keep nodes themselves mapped to the point (strict test:
          reconstruction + child-product division) *)
  | Dedup  (** drop nodes already emitted (pre-keyed hash buffer) *)
  | Aggregate of { func : Ast.agg_func; scale : int }
      (** terminal sink: drain the pipeline, then fold the matched set
          into one number — [Count] client-side, [Sum]/[Avg] with a
          single constant-size [Agg_eval] round trip over the numeric
          share column ([scale] is the column's fixed-point scale) *)

type t = op list

let axis_to_string = function
  | Root_scan -> "scan-root"
  | Child_scan -> "scan-children"
  | Descendant_scan { include_self = false } -> "scan-descendants"
  | Descendant_scan { include_self = true } -> "scan-descendants(+self)"

let points_to_string points = String.concat "," (List.map string_of_int points)

let with_eval name = function
  | None -> name
  | Some p -> Printf.sprintf "%s+eval@%d" name p

let op_to_string = function
  | Scan { axis; eval } -> with_eval (axis_to_string axis) eval
  | Pruned_scan { eval; prune; include_self } ->
      Printf.sprintf "%s[%s]"
        (with_eval (if include_self then "pruned-scan(+self)" else "pruned-scan") eval)
        (points_to_string prune)
  | Parent_step -> "parent"
  | Filter_containment { points } ->
      (Printf.sprintf "filter-containment[%s]" (points_to_string points)
      [@lint.suppress
        "secret-sink" ~reason:"client-side --explain; labels use op_base_name"])
  | Filter_equality { point } ->
      (Printf.sprintf "filter-equality@%d" point
      [@lint.suppress "secret-sink" ~reason:"same: --explain runs on the trusted client"])
  | Dedup -> "dedup"
  | Aggregate { func; scale } ->
      if scale = 0 then Printf.sprintf "aggregate(%s)" (Ast.func_to_string func)
      else Printf.sprintf "aggregate(%s,scale=%d)" (Ast.func_to_string func) scale

let to_string plan = String.concat " -> " (List.map op_to_string plan)
let pp fmt plan = Format.pp_print_string fmt (to_string plan)
