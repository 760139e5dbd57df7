(** The server half of the filter (paper §5.2): answers protocol
    requests from the node table.

    The server sees only [pre]/[post]/[parent] numbers and share
    polynomials; it never learns tag names, mapped values or which tag
    a query is about (it evaluates shares at client-supplied field
    points, which are themselves meaningless without the map).

    Cursors implement the [nextNode()] pipeline: a [Scan_eval] whose
    first batch does not exhaust its ranges leaves a cursor holding
    only the scan's resume position, and the client drains it with
    [Scan_next] in small batches so it holds only one batch at a time;
    the server reads each batch from the node table on demand and never
    materialises the result.  Abandoned cursors cannot accumulate: each
    cursor carries a last-used timestamp and is evicted once idle past
    [cursor_ttl] (swept on every cursor operation or via
    {!sweep_cursors}); the total is capped at [max_cursors] with
    least-recently-used eviction; and a {!connection}-scoped handler
    evicts a connection's cursors the moment it closes. *)

type t

val create :
  ?cursor_ttl:float ->
  ?max_cursors:int ->
  ?slow_query_ms:float ->
  ?now:(unit -> float) ->
  ?manifest:Secshare_rpc.Protocol.manifest_info ->
  ?numbers:Secshare_store.Node_table.t ->
  Secshare_poly.Ring.t ->
  Secshare_store.Node_table.t ->
  t
(** [numbers] (default: none) is the numeric share column backing
    [Agg_eval]: one row per aggregatable leaf, its share bytes an
    8-byte little-endian {!Numeric} field element.  Without it,
    [Agg_eval] answers [Error_msg].
    [cursor_ttl] (seconds, default: none) evicts cursors idle longer
    than that; [max_cursors] (default 1024) bounds concurrently open
    cursors, evicting the least recently used past the cap.
    [slow_query_ms] (default: off) logs one structured info-level line
    per query lifetime — cursor open to removal, or a one-shot scan —
    that took at least this many milliseconds: trace id, opcode mix,
    batch/row/byte counts and duration only, never evaluation points,
    node numbers or share values.  [now] is the clock, injectable for
    tests.  The cursor table stays behind its own lock, and share
    evaluation happens outside it.  [manifest] (default: the trivial
    1-of-1 topology over the table's rows) is what the [Manifest]
    handshake reports — set it when this server is one shard of a
    threshold deployment.  Its [p] and [e] are always [ring]'s,
    whatever [manifest] says. *)

val close : t -> unit
(** Evict every open cursor with reason [shutdown].  Idempotent; a
    closed filter still answers requests. *)

val handler : t -> Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response
(** Total: errors come back as [Error_msg]. *)

val connection :
  t ->
  (Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response) * (unit -> unit)
(** A per-connection handler plus its close hook, built on
    {!Secshare_rpc.Session_cursors}: a connection can drain or close
    only the cursors it opened (any other id is answered as unknown),
    and the hook evicts every cursor it still holds.  Feed the pair to
    {!Secshare_rpc.Server.start_sessions}. *)

val sweep_cursors : t -> int
(** Evict cursors idle past the TTL now; returns how many. *)

val open_cursors : t -> int
(** Number of cursors currently open (for leak tests). *)

type cursor_stats = Cursor_table.stats = {
  open_cursors : int;
  evicted_cursors : int;
      (** removed by TTL, cap pressure, connection close or {!close} *)
  expired_cursors : int;  (** the TTL subset of [evicted_cursors] *)
}

val cursor_stats : t -> cursor_stats
