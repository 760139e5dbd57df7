(** Page storage with a buffer pool.

    Backing stores: anonymous memory (the default for benchmarks) or a
    file of fixed-size page images.  File mode keeps a bounded LRU
    cache of deserialised pages and writes dirty pages back on
    eviction and flush.

    {b Concurrency.}  File mode is safe for concurrent use: one latch
    guards the buffer pool and the file-growth frontier, so callers
    on different domains take turns (the server reads from one
    domain, so in practice nothing waits), and the shared file
    descriptor's seek+read/write pairs are serialised by an I/O lock
    below the latch.  Every acquisition is reported to the runtime
    lock witness ([Secshare_obs.Race_check], armed by
    [SSDB_RACE_CHECK=1]), which checks the declared order
    latch -> io.  Memory mode has
    no latches: it is written by the single-threaded encoder and is
    safe for any number of readers once encoding has finished (the
    append path must not run concurrently with readers). *)

type t

val in_memory : ?page_size:int -> unit -> t
(** All pages live on the OCaml heap; [flush] is a no-op. *)

val create_file : ?page_size:int -> ?cache_pages:int -> string -> t
(** Create (truncate) a page file.  The buffer pool holds
    [max 1 cache_pages] pages (default 256). *)

(** Why {!open_file} failed. *)
type open_error =
  | Unreadable of string
      (** The file is missing, its header is not a page-file header,
          or it is shorter than its header promises. *)
  | Retired of string
      (** The header carries the magic of a retired format: [SSDBPAG1],
          whose shares follow the sampler that re-read keystream bytes,
          or [SSDBPAG2], whose shares are coefficient vectors rather
          than values at the nonzero points.  The message says to
          re-encode.  Such a file is refused and left untouched: never
          decoded, never rebuilt from a log. *)

val open_file : ?cache_pages:int -> ?recovery:bool -> string -> (t, open_error) result
(** Open an existing page file; the page size is recovered from the
    file header.  Fails on a bad or retired header or a torn page
    file.  [~recovery:true] tolerates a file shorter than its header
    promises — the caller (WAL recovery) is about to [install_page]
    logged images over the damage before anything reads it.
    [cache_pages] sizes the buffer pool as in {!create_file}. *)

val page_size : t -> int
val page_count : t -> int

val append : t -> Page.t -> int
(** Add a page, returning its index.  The page must have the pager's
    page size.  @raise Invalid_argument otherwise. *)

val get : t -> int -> Page.t
(** Fetch a page (through the cache in file mode).  The returned page
    is shared: mutations are visible to other [get]s; call
    [mark_dirty] after mutating.  @raise Invalid_argument on an
    out-of-range index; @raise Failure on a corrupt page image. *)

val mark_dirty : t -> int -> unit

val set_write_barrier : t -> ((int * bytes) list -> unit) option -> unit
(** Install (or clear) the write-ahead hook.  Before any dirty page
    image is written over the heap file — on [flush] or cache eviction
    — the barrier is called with the exact serialized images about to
    land.  The durable node table points this at the WAL: it logs the
    images and fsyncs, so a torn heap write is always repairable by
    redo.  Latency caveat: [flush] runs the barrier with no latch
    held, but evicting a {e dirty} victim runs it under the latch, so
    every [get] stalls behind the log append + fsync — size
    [cache_pages] so dirty evictions are rare under read-heavy load.
    No-op in memory mode. *)

val flush : t -> unit
(** Write every dirty cached page (through the barrier, if set) and
    the file header.  Does {e not} fsync — call [sync]. *)

val sync : t -> unit
(** fsync the heap fd: everything flushed so far is durable.  No-op in
    memory mode. *)

val install_page : t -> int -> bytes -> unit
(** Recovery-only: write a serialized page image directly at the given
    index, bypassing and invalidating the cache, extending the file if
    the index is past the current frontier.  The image is validated
    ([Page.deserialize]) before anything is written.
    @raise Invalid_argument on memory backing or a size mismatch;
    @raise Failure if the image does not deserialize. *)

val close : t -> unit
(** [flush], [sync], then close the fd. *)

val abort : t -> unit
(** Close the fd {e without} flushing — for error paths where the
    in-memory state is suspect and must not reach the disk. *)

val data_bytes : t -> int
(** Total bytes of page images (page_count * page_size). *)

type cache_stats = { hits : int; misses : int; evictions : int }

val cache_stats : t -> cache_stats
