(** The streaming-execution plan IR.

    A plan is a linear chain of batch-pull operators lowered from an
    XPath AST by {!Simple_query.lower} / {!Advanced_query.lower} and
    executed by {!Operator.build}.  It is a physical plan and the only
    place the round trips are decided: whether a name test is fused
    into its axis scan (one [Scan_eval] round trip) or runs as a
    separate filter was settled during lowering, so printing the plan
    shows exactly what will execute. *)

type axis_scan =
  | Root_scan  (** the document root (children of the virtual node 0) *)
  | Child_scan  (** children of every input node *)
  | Descendant_scan of { include_self : bool }
      (** descendants of every input node; with [include_self] the
          input nodes themselves are also candidates (first [//] step) *)

type op =
  | Scan of { axis : axis_scan; eval : int option }
      (** [eval]: a containment point fused into the scan ([Scan_eval]) *)
  | Pruned_scan of { eval : int option; prune : int list; include_self : bool }
      (** look-ahead descendant walk: only branches whose subtree
          contains [eval] and every prune point are entered; [eval]
          rides in each level's [Scan_eval], the prune points follow
          as [Eval_batch] rounds *)
  | Parent_step
  | Filter_containment of { points : int list }
      (** one batched round trip per point, nodes drop out at the
          first failing point *)
  | Filter_equality of { point : int }
  | Dedup
  | Aggregate of { func : Secshare_xpath.Ast.agg_func; scale : int }
      (** terminal sink: fold the matched set into one number —
          [Count] locally, [Sum]/[Avg] via a single constant-size
          [Agg_eval] over the numeric share column *)

type t = op list

val op_to_string : op -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
