(** The client half of the filter (paper §5.2).

    "ClientFilter first regenerates the client polynomial by using the
    pseudorandom generator with the secret seed and the pre location of
    the polynomial.  After the evaluation of its generated polynomial
    it will add the result to the retrieved value from the server.
    Only when the sum equals zero, the location is returned to the
    invoking query engine."

    All structure navigation goes through the transport (so it works
    identically in-process and over a socket); all secret material
    (seed, map values) stays on this side. *)

type t

exception Filter_error of string
(** Transport or protocol failure. *)

val create :
  Secshare_poly.Ring.t ->
  seed:Secshare_prg.Seed.t ->
  ?scan_batch:int ->
  ?batch_eval:bool ->
  ?fused_scan:bool ->
  ?share_cache:int ->
  Secshare_rpc.Transport.t ->
  t
(** [scan_batch] (default 256) bounds every scan batch — the
    [max_items] of each [Scan_eval] and [Scan_next] — so the client
    holds at most one batch of node metadata at a time.  [batch_eval]
    (default true) lets {!containment_batch} use one [Eval_batch]
    round trip for the whole candidate list; disabling it sends a
    one-row [Eval_batch] per node, reproducing the per-node-call cost
    model of the paper's RMI filter (see the batching ablation).
    [fused_scan] (default true) lets the execution pipeline evaluate
    shares inside the [Scan_eval] request — axis scan and share
    evaluation in one message — instead of per-parent [Children] calls
    and point-free descendant scans followed by a separate
    [Eval_batch].  [share_cache] (default 4096
    polynomials, 0 = off) bounds the LRU cache of regenerated client
    polynomials keyed by [pre]; regeneration is a pure function of the
    seed and [pre], so a cached entry is exact forever and eviction
    can only cost time, never correctness.  It is the client's only
    cache.

    The filter keeps no counters: every counting call below takes the
    calling operator's [~counts] and adds its work there. *)

val rpc_counters : t -> Secshare_rpc.Transport.counters
val scan_batch : t -> int
val fused_scan : t -> bool

val share_cache_stats : t -> Lru.stats option
(** Hit/miss/eviction counts of the polynomial cache; [None] when the
    cache is disabled. *)

(** {2 Structure navigation} *)

val root : t -> Secshare_rpc.Protocol.node_meta option
val children : t -> pre:int -> Secshare_rpc.Protocol.node_meta list
val parent : t -> pre:int -> Secshare_rpc.Protocol.node_meta option

(** {2 Scans}

    One [Scan_eval] round trip both walks an axis range server-side
    and evaluates every scanned share at the supplied points — the
    scan and the containment test of a name step travel in the same
    message.  With no points it is a plain streamed axis scan.  The
    streaming operators manage the continuation cursor themselves so
    they can stop early (e.g. a satisfied [limit]) and close the server
    side eagerly instead of waiting for TTL eviction. *)

val scan_eval :
  t ->
  target:Secshare_rpc.Protocol.scan_target ->
  points:int list ->
  max_items:int ->
  (Secshare_rpc.Protocol.node_meta * int list) list * int option
(** First batch plus a continuation cursor when more rows remain. *)

val scan_next :
  t ->
  cursor:int ->
  max_items:int ->
  (Secshare_rpc.Protocol.node_meta * int list) list * int option

val cursor_close : t -> int -> unit
(** Abandon a scan cursor before it is drained. *)

val filter_scan_rows :
  t ->
  counts:Metrics.t ->
  (Secshare_rpc.Protocol.node_meta * int list) list ->
  points:int list ->
  Secshare_rpc.Protocol.node_meta list
(** Client half of a fused batch: combine each row's server
    evaluations with regenerated client shares and keep the rows
    passing the containment test at every point (counted in [counts],
    one evaluation pair per point).  With no points, strips the
    (empty) value lists.
    @raise Filter_error on a row whose value count differs from the
    point count, or with a value outside [\[0, q)]. *)

(** {2 Oblivious aggregation} *)

val agg_eval : t -> int list -> int * int
(** One [Agg_eval] round trip: [(count, sum)] where [sum] is the
    server's blinded partial sum over the listed [pre]s — constant
    reply bytes whatever the list length.
    @raise Filter_error on a sum outside [\[0, Numeric.modulus)]. *)

val blind_sum : t -> int list -> int
(** The client's half: the {!Numeric} sum of the PRG blinding values
    for the listed [pre]s.  [server sum + blind_sum] (mod the numeric
    field) is the scaled plaintext total. *)

(** {2 The two tests of §5.2 / §6.3} *)

val containment_batch :
  t ->
  counts:Metrics.t ->
  Secshare_rpc.Protocol.node_meta list ->
  point:int ->
  Secshare_rpc.Protocol.node_meta list
(** Non-strict: keep the candidates whose subtree (including the node
    itself) contains a node mapped to [point].  One [Eval_batch] round
    trip, or a one-row [Eval_batch] per node without [batch_eval]; one
    evaluation pair per node in [counts] either way.  The verdict is
    the one {!filter_scan_rows} uses, and refuses the same replies. *)

val equality :
  t -> counts:Metrics.t -> Secshare_rpc.Protocol.node_meta -> point:int -> bool
(** Strict: is the node itself mapped to [point]?  Reconstructs the
    node and all its children and divides out the child product; one
    equality test plus one reconstruction per polynomial in [counts],
    and a degenerate division (never a match) counted there too. *)

val close : t -> unit
