(** Page-level redo write-ahead log for the node table.

    The paper's prototype delegates durability to MySQL; this storage
    engine earns the same guarantee with an ARIES-style redo log.  Two
    record granularities cooperate:

    - {b Row records} make each insert durable the moment it is
      acknowledged: the row is appended (CRC-framed, with an LSN) and
      fsynced before [Node_table.insert] returns.
    - {b Page-image records} close the torn-page hole that row redo
      alone cannot: before the pager overwrites any dirty page in the
      heap file, the full post-image is logged and fsynced.  If the
      heap write is then torn by a crash, recovery lays the logged
      image back over the damaged page — whole-page redo is oblivious
      to how little of the in-place write survived.

    Commit records mark the end of each flush batch; a checkpoint
    record (followed by truncation to the file header) certifies that
    every logged change is durable in the heap file.  The node table
    writes the checkpoint only {e after} fsyncing the heap fd, so the
    log never forgets data the heap has not yet promised to keep.

    Record framing is [u32 length | u32 crc32 | payload]; a torn tail
    or corrupted record fails its CRC and scanning stops cleanly at
    the last valid prefix. *)

type t

(** Typed append failures.  A share longer than [max_share_len] would
    not fit a page cell (whose length field is u16) and is rejected
    outright — the previous format silently truncated the length to
    16 bits and corrupted the log. *)
type append_error = Share_too_large of int

val max_share_len : int

val create : string -> t
(** Create (or truncate) a log file and write its header. *)

val open_existing : string -> (t, string) result
(** Open an existing log for appending.  The file is scanned first:
    [entry_count] reflects the records actually present, the next LSN
    continues past the largest logged LSN, and a torn tail is
    truncated away so later appends extend the valid prefix.  A
    missing file is created fresh ([create] semantics), so a table
    encoded without durability can later be opened durable. *)

val append_row : t -> Page.row -> (unit, append_error) result
(** Append one committed-row record and fsync the log. *)

val append_page_images : t -> (int * bytes) list -> unit
(** Append one page-image record per [(page index, serialized image)]
    pair, without syncing — callers batch images and then [sync]. *)

val append_commit : t -> unit
(** Append a commit record marking the end of a flush batch (no
    sync). *)

val sync : t -> unit
(** fsync the log fd: everything appended so far is durable. *)

val checkpoint : t -> unit
(** The heap file has been fsynced and covers every logged change:
    append a checkpoint record, fsync, truncate the log back to its
    header and fsync again.  A crash between those steps leaves a
    checkpoint record whose LSN tells recovery to ignore everything
    logged before it. *)

(** What a scan of the log prescribes for recovery. *)
type recovery_plan = {
  redo_pages : (int * bytes) list;
      (** newest logged image per page (ascending page index) past the
          last checkpoint; recovery writes these over the heap file *)
  redo_rows : Page.row list;
      (** committed rows logged past the last checkpoint, in append
          order; recovery re-inserts any that the redone pages do not
          already hold *)
  last_checkpoint : int64 option;  (** LSN of the last checkpoint record *)
  max_lsn : int64;  (** largest LSN in the valid prefix (0 when empty) *)
  records : int;  (** valid records in the scanned prefix *)
  valid_bytes : int;  (** length of the valid prefix, header included *)
  discarded_bytes : int;  (** torn/corrupt bytes past the valid prefix *)
}

val scan : string -> (recovery_plan, string) result
(** Read a log file and compute its recovery plan.  A torn or
    CRC-corrupt record ends the scan cleanly (the valid prefix is
    used); an unreadable file, a foreign header or the header of a
    retired format is an [Error], the last one saying to re-encode:
    [SSDBWAL2], whose shares follow the sampler that re-read keystream
    bytes, and [SSDBWAL3], whose shares are coefficient vectors. *)

val entry_count : t -> int
(** Records in the log right now: counted on open, incremented per
    append, reset by [checkpoint]. *)

val next_lsn : t -> int64
val close : t -> unit
