(** The public facade: build an encrypted database from an XML
    document, query it, measure it.

    A [t] is one client handle over either deployment: it always holds
    the client's secret state (field, mapping, seed) and a caching
    {!Client_filter}; a {e local} handle additionally owns the server
    half (node table + filter, in-process transport), while a {e
    remote} handle ({!connect}) talks to a {!serve}d database over a
    Unix-domain socket — reproducing the paper's client/server
    deployment (figure 3).  {!query} works identically on both;
    server-side operations ({!serve}, {!storage_stats}, cursor
    inspection, {!save_bundle}) raise [Invalid_argument] on a remote
    handle.

    Every client-side knob enters through one {!client_config} record
    — transport batching, the share-regeneration cache, socket
    deadlines and retries, server cursor policy and the evaluation
    worker pool — so a configuration can be built once and reused
    across {!create}, {!of_parts}, {!connect} and {!open_bundle}. *)

type t
(** A client handle, local or remote. *)

type client_config = {
  rpc_batching : bool;
      (** batch containment evaluations into one round trip (default
          true); disable to reproduce the per-node-call cost model of
          the paper's RMI filter *)
  rpc_fused_scan : bool;
      (** let the execution pipeline use the fused [Scan_eval] request
          — axis scan and share evaluation in one message — instead
          of per-parent [Children] / cursor calls followed by a
          separate evaluation round trip (default true) *)
  share_cache : int;
      (** capacity, in polynomials, of the client's LRU cache over
          regenerated share polynomials (default 4096; 0 disables).
          Regeneration is a pure function of seed and [pre], so cached
          entries are exact forever — see {!Client_filter.create} *)
  timeout : float option;
      (** bound each RPC round trip to this many seconds (default
          [None]; socket transports only) *)
  max_retries : int;
      (** retry failed idempotent calls with exponential backoff,
          transparently reconnecting a dead socket (default 0; socket
          transports only — see {!Secshare_rpc.Transport.policy}) *)
  cursor_ttl : float option;
      (** evict server-side scan cursors idle longer than this many
          seconds (default [None]: no TTL) *)
  max_cursors : int;
      (** cap on concurrently open server-side cursors, evicting the
          least recently used past it (default 1024) *)
  slow_query_ms : float option;
      (** log one structured info-level line per server-side query
          lifetime at least this slow (default [None]: off); the line
          carries trace id, opcode mix, batch/row/byte counts and
          duration only — see {!Server_filter.create} *)
  workers : int;
      (** size of the server's evaluation worker pool — the number of
          domains batch share evaluation fans out over (default 1 =
          inline, the single-threaded behaviour; [ssdb_server
          --workers]) *)
}

val default_client_config : client_config
(** The defaults spelled out above; build variations with record
    update syntax: [{ default_client_config with workers = 4 }]. *)

type config = {
  p : int;  (** field characteristic (a prime); default 83 *)
  e : int;  (** extension degree; default 1 *)
  trie : Secshare_trie.Expand.mode option;
      (** expand text into tries (§4); default [None] — tags only,
          the paper's experimental configuration *)
  seed : Secshare_prg.Seed.t option;  (** default: fresh random seed *)
  mapping : [ `From_document | `From_dtd of Secshare_xml.Dtd.t | `Explicit of Mapping.t ];
  page_size : int;  (** storage page size; default 8192 *)
  client : client_config;  (** every client-side and serving knob *)
}

val default_config : config

type engine = Simple | Advanced

type query_result = {
  value : Query_common.value;
      (** what the query produced: the node set of a location path
          ([Nodes], document order) or the scalar of an aggregate
          ([Count]/[Sum]/[Avg]) *)
  metrics : Metrics.t;
  operators : Metrics.op_stats list;
      (** per-operator execution counters, in plan order (the data
          behind [ssdb_query --explain]) *)
  rpc_calls : int;
  rpc_bytes : int;
  seconds : float;
  trace_id : int64;
      (** the query's trace id: every client span and — over a socket
          transport — every server-side span of this query carries it
          (see {!Secshare_obs.Trace}) *)
}

val result_nodes : query_result -> Secshare_rpc.Protocol.node_meta list
(** The node set of a [Nodes] result; [[]] for an aggregate result. *)

val create : ?config:config -> string -> (t, string) result
(** Encode an XML document given as a string. *)

val of_parts :
  ?client:client_config ->
  p:int ->
  e:int ->
  mapping:Mapping.t ->
  seed:Secshare_prg.Seed.t ->
  table:Secshare_store.Node_table.t ->
  ?numbers:Secshare_store.Node_table.t ->
  unit ->
  (t, string) result
(** Assemble a database from an already-encoded node table (e.g. one
    re-opened from a page file) plus the client's secret state.
    [numbers] is the numeric share column; without it [sum]/[avg]
    queries fail server-side. *)

val create_tree : ?config:config -> Secshare_xml.Tree.t -> (t, string) result
val create_file : ?config:config -> string -> (t, string) result

val query :
  ?engine:engine ->
  ?strictness:Query_common.strictness ->
  t ->
  string ->
  (query_result, string) result
(** Parse and evaluate a query ([contains] predicates are rewritten
    into trie steps first).  Defaults: [Advanced], [Strict].  Works
    identically on local and remote handles.

    Aggregates — [count(path)], [sum(path)], [avg(path)] — return the
    matching scalar {!Query_common.value}.  A [sum]/[avg] whose final
    tag is mapped but not flagged aggregatable (not every occurrence a
    numeric leaf) fails here, client-side, with no server round trip;
    an unmapped final tag returns the empty-set value (0), mirroring
    plaintext XPath over a document that cannot contain the name.

    Any query naming an unmapped tag, node or aggregate, on either
    engine, short-circuits to that empty-set value ([Nodes []],
    [Count 0], a zero sum) with no RPC and no operators.  Otherwise
    the engine's [lower] builds the plan and {!Operator.run} executes
    it. *)

val query_ast :
  ?engine:engine ->
  ?strictness:Query_common.strictness ->
  ?agg:Secshare_xpath.Ast.agg_func ->
  t ->
  Secshare_xpath.Ast.t ->
  (query_result, string) result

val accuracy : ?engine:engine -> t -> string -> (float, string) result
(** The paper's figure-7 quotient E/C: equality-test result size over
    containment-test result size (1.0 when both are empty). *)

type storage_stats = {
  rows : int;
  data_bytes : int;
  index_bytes : int;
  encode_stats : Encode.stats;
}

val storage_stats : t -> storage_stats
(** Local handles only. *)

val mapping : t -> Mapping.t
val ring : t -> Secshare_poly.Ring.t
val seed : t -> Secshare_prg.Seed.t
val client_filter : t -> Client_filter.t

val table : t -> Secshare_store.Node_table.t
(** Local handles only. *)

val numbers_table : t -> Secshare_store.Node_table.t option
(** The numeric share column, when this database has one (local
    handles only). *)

val is_remote : t -> bool
(** [true] for a handle from {!connect} (no local server half). *)

val rpc_counters : t -> Secshare_rpc.Transport.counters
(** Live transport counters (calls, bytes, retries, reconnects,
    timeouts).  On a local handle the transport is in-process: calls
    count, byte counters stay 0. *)

val share_cache_stats : t -> Lru.stats option
(** Hit/miss/eviction counts of the client share-regeneration cache;
    [None] when [share_cache] is 0. *)

val workers : t -> int
(** The server evaluation-pool size (local handles only). *)

(** {2 Remote deployment} *)

val serve : ?send_timeout:float -> t -> path:string -> Secshare_rpc.Server.t
(** Expose this database's server half on a Unix-domain socket (local
    handles only).  Each connection gets a session-scoped handler:
    cursors it opened are evicted when it disconnects.  [send_timeout]
    bounds each response write (see
    {!Secshare_rpc.Server.start_sessions}). *)

val open_cursors : t -> int
(** Server-side cursors currently open (for leak tests/monitoring). *)

val cursor_stats : t -> Server_filter.cursor_stats
val sweep_cursors : t -> int
(** Evict cursors idle past the configured TTL now; returns how many. *)

val of_transport :
  ?client:client_config ->
  p:int ->
  e:int ->
  mapping:Mapping.t ->
  seed:Secshare_prg.Seed.t ->
  Secshare_rpc.Transport.t ->
  (t, string) result
(** A remote handle over an already-built transport — any endpoint
    speaking the filter protocol: a socket to one server, an
    in-process handler, or a shard router.  The handle owns the
    transport and closes it with {!close}. *)

val connect :
  ?client:client_config ->
  p:int ->
  e:int ->
  mapping:Mapping.t ->
  seed:Secshare_prg.Seed.t ->
  path:string ->
  unit ->
  (t, string) result
(** {!of_transport} over a socket: the client's secret state across a
    Unix-domain-socket transport.  [client.timeout],
    [client.max_retries] configure the transport; the cursor and
    worker fields are server-side and ignored here. *)

val close : t -> unit
(** Close the transport; on a local handle also stop the server's
    evaluation pool and close the node table(s). *)

(** {2 Bundles}

    A bundle is a directory holding everything needed to reopen a
    database: the server's page files ([shares.db] and, when the
    database has a numeric column, [nums.db] — both safe to publish)
    and the client's secrets ([client.map], [client.seed], [config]).
    In a real deployment the two halves live on different machines;
    the bundle is the single-machine convenience form. *)

val save_bundle :
  ?durable:bool -> ?checkpoint_every:int -> t -> dir:string -> (unit, string) result
(** Write the bundle (creating [dir] if needed; existing files are
    overwritten).  Local handles only.  With [durable:true] the copy
    into [shares.db] is written through a write-ahead log (each row
    fsynced before the next is copied) — slower, but a crash
    mid-bundle leaves a recoverable file instead of a torn one;
    [checkpoint_every] bounds the log's growth during the copy. *)

val open_bundle :
  ?client:client_config ->
  ?durable:bool ->
  ?checkpoint_every:int ->
  dir:string ->
  unit ->
  (t, string) result
(** Reopen a saved bundle.  If [shares.db.wal] holds records from a
    crashed writer, recovery replays them before the handle is
    returned ({!Secshare_store.Node_table.recovery_stats} on {!table}
    reports what was redone).  [durable]/[checkpoint_every] keep the
    reopened table writing through its write-ahead log. *)
