(** The flat relational table of encoded nodes — the paper's MySQL
    back-end (§5.1).

    Each row holds the [pre], [post] and [parent] sequence numbers (the
    XPath-accelerator encoding of the tree structure) and the server's
    polynomial share.  Rows live in slotted pages; three int columns
    indexed by [pre] (row locator, last child, previous sibling)
    answer the axes the query engines need:

    - a row by [pre] (pre → row locator);
    - the root, the smallest [pre] with [parent = 0], and the children
      of a node, the rows with [parent = pre(node)] (each parent's
      sibling list);
    - descendants of a node, the rows read from [pre(node) + 1] in
      [pre] order while [post < post(node)] (document order makes the
      subtree a contiguous [pre] run).

    Sequence numbering convention (as in the paper): [pre] counts open
    tags from 1, [post] counts close tags from 1, and the root's
    [parent] is 0.  Rows may be inserted in any order, and the [pre]s
    present may be sparse (the numeric column holds only the numeric
    leaves).  The columns are allocated in chunks of 256 [pre]s where
    rows land, so both numbers are bounded by {!max_pre}.

    {b Concurrency.}  The read paths ([find_by_pre], [children],
    [scan_range], [fold_descendants], …) take no lock of their own:
    they read the columns without one and fetch rows through the
    pager, whose one buffer-pool latch each row read takes, so any
    number of sessions can scan one table at once (a file-backed
    table's row reads take turns on that latch).  Writes are serialised by an internal writer lock, but
    an insert may replace the chunk directory while it grows it — the
    supported discipline is the serving lifecycle: load/encode first
    (single writer, or [insert] calls from several threads), then
    share the table with any number of lock-free readers.  Mixed
    concurrent read/write is not supported. *)

type t

(** What [open_file] replayed from the write-ahead log, when it did. *)
type recovery_stats = {
  redo_pages : int;  (** logged page images laid over the heap file *)
  redo_rows : int;  (** logged rows re-inserted (not found in redone pages) *)
  wal_records : int;  (** valid records in the scanned log *)
  discarded_bytes : int;  (** torn/corrupt log tail bytes cut off *)
}

val create : ?page_size:int -> unit -> t
(** In-memory table. *)

val create_file :
  ?page_size:int ->
  ?cache_pages:int ->
  ?durable:bool ->
  ?checkpoint_every:int ->
  string ->
  t
(** Table backed by a page file.  With [durable:true] every insert is
    written (and fsynced) to a write-ahead log at [path ^ ".wal"]
    before being acknowledged, and every dirty page image is logged
    and fsynced before it overwrites the heap file (torn-write
    protection); [flush]/[close] checkpoint — heap pages written, heap
    fd fsynced, {e then} the log truncated.  The buffer pool holds
    [max 1 cache_pages] pages (default 256).  [checkpoint_every:n]
    additionally checkpoints automatically after every [n] inserts,
    bounding log growth and recovery time. *)

val open_file :
  ?cache_pages:int ->
  ?durable:bool ->
  ?checkpoint_every:int ->
  string ->
  (t, string) result
(** Re-open a table.  If a write-ahead log with records is present,
    crash recovery runs first: every CRC-valid page image past the
    last checkpoint is written back over the heap file (newest image
    per page — this repairs torn heap writes, and is why a short heap
    file is tolerated when the log covers it), the pre columns are rebuilt
    from the repaired heap, logged rows not yet present are
    re-inserted, and the recovered state is checkpointed.  If the heap
    file itself is unreadable while the log holds records (a crash
    before the first checkpoint ever completed), the heap is rebuilt
    from the log alone.  A hole page — one below the heap frontier
    that never reached the disk because it was still dirty in the
    cache when a later page was evicted past it — is backfilled as an
    empty page and its rows are re-inserted from the log.  A heap or
    log row with a [pre] or [parent] outside the {!insert} bounds
    fails the open with [Error].  A torn or
    corrupt log tail is discarded.  [recovery_stats] reports what was
    replayed.  [durable]/[checkpoint_every] select the same durable
    write path as [create_file] (a table created without [durable] is
    adopted: a fresh log is started for it); without [durable] the log
    is detached again once recovery completes.  [cache_pages] sizes
    the buffer pool as in [create_file].  No file descriptor is
    leaked on any error path. *)

val recovery_stats : t -> recovery_stats option
(** What the open replayed; [None] when the table opened clean (or was
    just created). *)

val max_pre : int
(** The largest [pre] (and [parent]) a table admits: 2{^24} − 1.  One
    row then costs at most the 512 KB chunk directory and one 6 KB
    chunk, and a table's columns at most 3 × 8 × 2{^24} bytes
    (384 MiB), where a [pre] near 2{^31} could ask for 16 GB.  At
    XMark density (about 15 rows per KB) the bound admits documents of
    about 1 GB, beyond what the in-memory encoder holds. *)

val insert : t -> Page.row -> unit
(** Append a row.  @raise Invalid_argument on a duplicate [pre], on a
    [pre] below 1 or a [parent] below 0, or on either above {!max_pre},
    before the row reaches a page or the log. *)

val find_by_pre : t -> int -> Page.row option
val root : t -> Page.row option
(** The row with the smallest [pre] among those with [parent = 0]. *)

val children : t -> parent:int -> Page.row list
(** Rows with the given parent, ascending [pre]. *)

val descendants : t -> pre:int -> post:int -> Page.row list
(** All rows strictly inside the subtree of the node with the given
    [pre]/[post] numbers, in document order. *)

val fold_descendants :
  t -> pre:int -> post:int -> init:'a -> f:('a -> Page.row -> 'a) -> 'a
(** Streaming variant of [descendants]. *)

val scan_range :
  t ->
  from_pre:int ->
  until_pre:int ->
  below_post:int ->
  max_rows:int ->
  Page.row list * int option
(** Resumable range scan: up to [max_rows] rows in ascending [pre]
    order starting at [from_pre], below [until_pre] ([max_int] for no
    bound), stopping at the first row with [post >= below_post].  The
    second component is the [pre] to resume from when the scan
    stopped on the row budget ([None] when the range itself was
    exhausted).  Subtree conventions: a node's strict
    descendants are [(from_pre = pre + 1, below_post = post)]; the
    subtree including the node itself is
    [(from_pre = pre, below_post = post + 1)]. *)

val row_count : t -> int
val data_bytes : t -> int
(** Bytes of page images holding the rows (the paper's "output
    size"). *)

val index_bytes : t -> int
(** Bytes the pre-indexed columns allocate: every allocated chunk at
    its full capacity, plus the chunk directory (the paper's "index
    size"). *)

val iter : t -> f:(Page.row -> unit) -> unit
(** Visit all rows in insertion order. *)

val flush : t -> unit
(** Checkpoint the table: dirty page images logged to the WAL (with a
    commit record, fsynced), written to the heap file, heap fd
    fsynced, and only then the log truncated.  The ordering is the
    durability contract — the log never forgets data the heap has not
    durably accepted. *)

val close : t -> unit
