(** Batch-pull execution of a {!Plan}.

    Volcano-style streaming, batch-at-a-time: {!build} turns a plan
    into a chain of operators, {!next} pulls one bounded batch of node
    metadata from an operator (pulling upstream on demand), and
    {!run} drains the chain to exhaustion with guaranteed teardown —
    server cursors opened by scans are closed eagerly when a pipeline
    stops early (abandoned, or an exception mid-query) instead of
    lingering until TTL eviction.

    Every operator carries a {!Metrics.op_stats} record: batches and
    rows in/out, the paper's counters for the work it did, and the RPC
    calls/bytes (teardown's [Cursor_close] included) and (cumulative)
    wall time attributable to it — the data behind [--explain], and
    the only place a query's work is counted. *)

type t

type batch = Secshare_rpc.Protocol.node_meta array

val build : Client_filter.t -> Plan.t -> t list
(** Operators in plan order; the last element is the sink to drain.
    Every axis scan is a [Scan_eval] conversation evaluating exactly
    the points the plan put in it (none: a plain streamed scan); the
    operators make no protocol choice of their own.
    @raise Invalid_argument on a plan whose first operator is not a
    source. *)

val next : t -> batch option
(** One batch, or [None] when the stream is dry.  Batches are
    unordered and may be empty only at the source level; operators
    skip empty intermediate results. *)

val close : t -> unit
(** Release the operator's server-side resources (idempotent). *)

val stats : t -> Metrics.op_stats
(** The operator's counters, final once it is closed. *)

val run :
  Client_filter.t ->
  Plan.t ->
  (Query_common.value, string) result * Metrics.op_stats list
(** The query driver: [build], pull every batch from the sink, then
    close every operator (also on exception).  A plan ending in an
    [Aggregate] sink evaluates to the sink's value; any other plan to
    [Nodes] of its rows in document order, duplicates removed.  A
    {!Query_common.Query_error} is [Error msg], a
    {!Client_filter.Filter_error} is [Error ("filter: " ^ msg)].
    Either way it also returns every operator's counters, in plan
    order; the operators are closed by then, so the rows are final. *)
