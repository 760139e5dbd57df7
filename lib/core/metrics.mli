(** Counters for the paper's experimental quantities.

    Figure 5 plots containment evaluations; §6.3 discusses the cost of
    equality tests, i.e. whole-polynomial reconstructions; figure 6
    measures wall-clock time.  One containment check is exactly one
    evaluation pair (server share + regenerated client share).

    {b Ownership}: a query's work is counted in exactly one place, the
    {!op_stats} row of the operator that did it; a query's [t] is
    {!total} over its rows.  Neither record locks: each row is written
    only by the thread driving its operator.  [add] destructures every
    field, so adding a counter without extending the sum is a compile
    error, not a silent drop. *)

type t = {
  mutable evaluations : int;
      (** containment tests: one polynomial evaluation pair each *)
  mutable equality_tests : int;
  mutable reconstructions : int;
      (** full polynomials reconstructed (node + its children) for
          equality tests *)
  mutable nodes_examined : int;  (** candidate nodes inspected *)
  mutable degenerate_divisions : int;
      (** equality tests aborted because the child product was the
          zero ring element (see DESIGN.md §7) *)
}

val create : unit -> t
val add : t -> t -> unit
(** Accumulate the second argument into the first. *)

(** {2 Per-operator counters}

    Every operator of the streaming execution pipeline (see
    {!Operator}) carries one of these; [ssdb_query --explain] prints
    them as the query's execution profile. *)

type op_stats = {
  op_name : string;
  mutable batches : int;  (** output batches emitted *)
  mutable rows_in : int;  (** rows pulled from the upstream operator *)
  mutable rows_out : int;
  counts : t;  (** the paper's counters for the work this operator did *)
  mutable rpc_calls : int;
  mutable rpc_bytes : int;  (** request + response bytes of those calls *)
  mutable wall_seconds : float;
}

val op_stats : string -> op_stats
(** Fresh zeroed counters with the given operator label. *)

val total : op_stats list -> t
(** The sum of the rows' [counts]: a query's {!t}. *)

val pp_op_table : Format.formatter -> op_stats list -> unit
(** Aligned table, one row per operator, header included. *)
