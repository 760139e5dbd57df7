(* The checked-in concurrency model: every shared mutable root in lib/
   is declared here (or carries an inline attribute), naming the lock
   class that guards it, the domain it is confined to, or the reason
   unsynchronised access is sound.  [Pass_races] inventories the tree
   and reports any root this table misses — and any entry whose root
   no longer exists — so the model cannot rot in either direction.
   DESIGN.md §16 is the prose version of this table.

   Declaration kinds:

   - [Guarded_by cls]: every access (read or write) holds the lock
     class [cls] (a lock site's class in [Lock_table]), lexically or via every call site.
   - [Guarded_writes cls]: writes hold [cls]; reads are lock-free by
     a single-writer publication argument (node table readers).
   - [Domain_confined d]: only code running on domain [d] ("evloop")
     or, for ["caller"], on whichever single executor owns the value,
     may touch the root.  Accesses from unknown (pre-publication)
     contexts are allowed; the runtime witness covers those.
   - [Atomic_ok why]: unsynchronised access is sound for the stated
     reason (Atomic.t cells, write-once publication, defensive
     copies).  The reason is mandatory.

   Inline attributes override this table:
     [@@guarded_by "cursor-table"]    on a module-level binding
     [@guarded_by "cursor-table"]     on a record field (after its type)
     [@@domain_confined "evloop"]  /  [@@atomic_ok "why"]
     [let[@atomic_ok "why"] x = ref ... in ...] on an escaping local
     [@@runs_on "evloop"]             seeds a function's domain. *)

type guard =
  | Guarded_by of string
  | Guarded_writes of string
  | Domain_confined of string
  | Atomic_ok of string

(* Functions whose function arguments run on another executor: the
   closure (or the function passed by name) escapes the caller's
   domain, so the race pass analyzes it with an empty lockset and its
   own domain identity. *)
let spawn_fns = [ [ "Domain"; "spawn" ]; [ "Thread"; "create" ] ]

(* Files whose [array]/[bytes]-typed record fields join the inventory.
   Everywhere else only ref/Hashtbl/Queue/Buffer/Atomic fields do:
   array payloads in the math layers are immutable by convention and
   never cross an executor. *)
let strict_container_files =
  [
    "pager.ml";
    "page.ml";
    "node_table.ml";
    "server_filter.ml";
    "server.ml";
    "evloop.ml";
    "histogram.ml";
    "race_check.ml";
  ]

(* The guarded-by table, keyed (normalized file path, root name).
   Inline attributes in the showcase files (rpc server, the witness
   itself) carry their own declarations; everything declared
   here instead keeps the annotation burden off stable code. *)
let table : ((string * string) * guard) list =
  [
    (* --- lib/rpc/evloop.ml: poll interest set, loop-domain only ---- *)
    (("lib/rpc/evloop.ml", "fds"), Domain_confined "evloop");
    (("lib/rpc/evloop.ml", "events"), Domain_confined "evloop");
    (("lib/rpc/evloop.ml", "revents"), Domain_confined "evloop");
    (("lib/rpc/evloop.ml", "count"), Domain_confined "evloop");
    (("lib/rpc/evloop.ml", "index"), Domain_confined "evloop");
    (("lib/rpc/evloop.ml", "ready_fds"), Domain_confined "evloop");
    (("lib/rpc/evloop.ml", "ready_evs"), Domain_confined "evloop");
    (* --- lib/core/cursor_table.ml: the one cursor table, used by the
       server filter and the shard router.  The lock guards the table
       and its accounting only; a cursor's payload has single-owner
       affinity (one in-flight request per cursor, enforced by the
       protocol and the runtime witness), and the removal hook reads
       it only after the entry has left the table. *)
    (("lib/core/cursor_table.ml", "next_id"), Guarded_by "cursor-table");
    (("lib/core/cursor_table.ml", "evictions"), Guarded_by "cursor-table");
    (("lib/core/cursor_table.ml", "expiries"), Guarded_by "cursor-table");
    (("lib/core/cursor_table.ml", "last_used"), Guarded_by "cursor-table");
    (* --- lib/core/server_filter.ml and lib/shard/router.ml: cursor
       payloads, owned by the one request that drains them --------- *)
    (("lib/core/server_filter.ml", "pending_parents"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "buffered_rows"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "current_range"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "pending_ranges"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "next_calls"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "batches"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "rows"), Domain_confined "caller");
    (("lib/core/server_filter.ml", "resp_bytes"), Domain_confined "caller");
    (("lib/shard/router.ml", "members"), Domain_confined "caller");
    (("lib/shard/router.ml", "remote"), Domain_confined "caller");
    (("lib/shard/router.ml", "alive"), Domain_confined "caller");
    (("lib/shard/router.ml", "lambdas"), Domain_confined "caller");
    (("lib/shard/router.ml", "opened"), Domain_confined "caller");
    (("lib/shard/router.ml", "exhausted"), Domain_confined "caller");
    (("lib/shard/router.ml", "merged"), Domain_confined "caller");
    (("lib/shard/router.ml", "skip"), Domain_confined "caller");
    (* --- lib/store: the node table's pages and pre-indexed columns,
       written under the table writer lock.  Readers are lock-free
       against published structure, so structural fields are
       Guarded_writes; the interprocedural entry-lockset proves the
       write paths reach them only under write_lock. *)
    (("lib/store/node_table.ml", "rows"), Guarded_writes "table-writer");
    (("lib/store/node_table.ml", "fill_page"), Guarded_writes "table-writer");
    (("lib/store/node_table.ml", "wal"), Guarded_writes "table-writer");
    (("lib/store/node_table.ml", "since_checkpoint"), Guarded_writes "table-writer");
    (("lib/store/node_table.ml", "chunks"), Guarded_writes "table-writer");
    ( ("lib/store/node_table.ml", "recovery"),
      Atomic_ok "set once by open_file before the table is shared" );
    (("lib/store/page.ml", "data"), Guarded_writes "table-writer");
    (("lib/store/page.ml", "count"), Guarded_writes "table-writer");
    (("lib/store/page.ml", "free_off"), Guarded_writes "table-writer");
    ( ("lib/store/page.ml", "share"),
      Atomic_ok "row payloads are written once at insert and immutable after" );
    (* --- lib/store/pager.ml: the buffer pool, one latch ------------ *)
    (("lib/store/pager.ml", "cache"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "clock"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "hits"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "misses"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "evictions"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "dirty"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "last_used"), Guarded_by "pager-latch");
    (("lib/store/pager.ml", "npages"), Guarded_by "pager-latch");
    ( ("lib/store/pager.ml", "barrier"),
      Atomic_ok
        "set only by Node_table.create_file/open_file (attach_wal, and the recovery \
         path's detach) before the table is returned" );
    (* --- lib/store/wal.ml: append path serialised on the fd -------- *)
    (("lib/store/wal.ml", "entries"), Guarded_by "wal-append");
    (("lib/store/wal.ml", "lsn"), Guarded_by "wal-append");
    ( ("lib/store/store_io.ml", "current"),
      Atomic_ok "test seam; swapped only before concurrent sections start" );
    ( ("lib/store/store_io.ml", "failpoint"),
      Atomic_ok "test seam; installed before concurrent sections start" );
    ( ("lib/store/store_io.ml", "remaining"),
      Atomic_ok "test seam; decremented on the single writer path" );
    (* --- lib/obs: observability ------------------------------------ *)
    (("lib/obs/histogram.ml", "sum"), Guarded_by "obs-histogram");
    (("lib/obs/histogram.ml", "count"), Guarded_by "obs-histogram");
    (("lib/obs/histogram.ml", "max_value"), Guarded_by "obs-histogram");
    (("lib/obs/histogram.ml", "counts"), Guarded_by "obs-histogram");
    ( ("lib/obs/histogram.ml", "bounds"),
      Atomic_ok "copied at create, never mutated" );
    ( ("lib/obs/histogram.ml", "default_bounds"),
      Atomic_ok "module constant, never mutated" );
    (("lib/obs/histogram.ml", "snap_bounds"), Domain_confined "caller");
    (("lib/obs/histogram.ml", "cumulative"), Domain_confined "caller");
    (("lib/obs/registry.ml", "families"), Guarded_by "obs-registry");
    ( ("lib/obs/registry.ml", "children"),
      Atomic_ok
        "append-only list updated under the registry lock; the lock-free render \
         iteration can at worst miss a brand-new child, never see a torn cell" );
    (("lib/obs/trace.ml", "span_counter"), Atomic_ok "Atomic.t counter");
    (("lib/obs/trace.ml", "ambient"), Guarded_by "trace-ambient");
    (("lib/obs/trace.ml", "ring"), Guarded_by "trace-ring");
    (("lib/obs/trace.ml", "ring_next"), Guarded_by "trace-ring");
    (("lib/obs/trace.ml", "log_channel"), Guarded_by "trace-log");
    (("lib/obs/events.ml", "current_level"), Atomic_ok "Atomic.t level cell");
    (("lib/obs/events.ml", "sink"), Guarded_by "events-sink");
    ( ("lib/obs/metrics_http.ml", "running"),
      Atomic_ok "bool Atomic.t polled by the accept loop; stop uses exchange" );
    (("lib/obs/metrics_http.ml", "threads"), Guarded_by "metrics-http");
    ( ("lib/obs/metrics_http.ml", "accept_thread"),
      Atomic_ok "written once by serve; joined by stop after running flips" );
    (* --- lib/obs/race_check.ml: the lockset witness's own state ---- *)
    ( ("lib/obs/race_check.ml", "enabled_flag"),
      Atomic_ok "bool Atomic.t; flipped by tests before concurrent sections" );
    (("lib/obs/race_check.ml", "held"), Guarded_by "race-witness");
    (("lib/obs/race_check.ml", "state"), Guarded_by "race-witness");
    (("lib/obs/race_check.ml", "report_acc"), Guarded_by "race-witness");
    (("lib/obs/race_check.ml", "owner"), Guarded_by "race-witness");
    (("lib/obs/race_check.ml", "cset"), Guarded_by "race-witness");
    (("lib/obs/race_check.ml", "written_shared"), Guarded_by "race-witness");
    (("lib/obs/race_check.ml", "reported"), Guarded_by "race-witness");
  ]

(* Whole-file defaults for the sequential layers: parser/builder/client
   state owned by a single caller at a time.  An explicit table entry
   or inline attribute always wins over the default. *)
let file_defaults : (string * guard) list =
  [
    ("lib/core/encode.ml", Domain_confined "caller");
    ("lib/core/lru.ml", Domain_confined "caller");
    ("lib/core/mapping.ml", Domain_confined "caller");
    ("lib/core/metrics.ml", Domain_confined "caller");
    ("lib/core/operator.ml", Domain_confined "caller");
    ("lib/core/reference.ml", Domain_confined "caller");
    ("lib/prg/splitmix64.ml", Domain_confined "caller");
    ("lib/rpc/wire.ml", Domain_confined "caller");
    ("lib/rpc/transport.ml", Domain_confined "caller");
    ("lib/xml/dtd.ml", Domain_confined "caller");
    ("lib/xml/sax.ml", Domain_confined "caller");
    ("lib/xml/tree.ml", Domain_confined "caller");
    ("lib/xpath/parser.ml", Domain_confined "caller");
    ("lib/lint/lint_source.ml", Domain_confined "caller");
    ("lib/lint/pass_races.ml", Domain_confined "caller");
  ]

let find ~file ~root =
  match List.assoc_opt (file, root) table with
  | Some g -> Some g
  | None -> List.assoc_opt file file_defaults

let entries_for file =
  List.filter_map
    (fun ((f, root), guard) ->
      if String.equal f file then Some (root, guard) else None)
    table
