(** The open-cursor table of every [Scan_eval]/[Scan_next] endpoint —
    the server filter and the shard router: the server-side buffer of
    the paper's [nextNode()] pipeline (§5, Fig 3).

    Ids are sequential from 1.  Entries live in an {!Lru}: {!use}
    makes one the most recent, a full table evicts its least recently
    used entry to admit a new one, and with a TTL, entries idle longer
    than that are swept from the cold end on every {!add} and {!use}.
    One mutex guards the table.  Every entry leaves through one removal
    path, and [on_remove] runs exactly once per removed entry, {e after}
    the lock is released, so it may do network I/O. *)

type reason =
  | Drained  (** the scan ended: its last batch was served, or it failed *)
  | Client_close  (** [Cursor_close] *)
  | Ttl  (** idle past the TTL *)
  | Cap  (** least recently used when the table was full *)
  | Connection_close  (** the owning session went away *)
  | Shutdown  (** {!clear} *)

val reason_label : reason -> string
(** Stable lowercase label ("drained", "client_close", …): a metric
    label value. *)

type 'a t

val create :
  ?ttl:float ->
  ?now:(unit -> float) ->
  max:int ->
  on_remove:(reason -> int -> 'a -> unit) ->
  unit ->
  'a t
(** [max] (at least 1) bounds the open entries; [ttl] (seconds,
    default: none) expires idle ones; [now] defaults to
    [Unix.gettimeofday].  The hook gets [reason id payload]. *)

val add : 'a t -> 'a -> int
(** Sweep, evict for the cap, insert under a fresh id: one critical section. *)

val use : 'a t -> int -> ('a -> 'b) -> 'b option
(** Sweep; then mark the id most recently used and run [f] on its
    payload under the lock.  [None] when the id is not open. *)

val remove : 'a t -> int -> reason -> unit

val sweep : 'a t -> int
(** Expire idle entries now; returns how many. *)

val clear : 'a t -> unit
(** Remove every entry, for [Shutdown]. *)

val size : 'a t -> int

type stats = {
  open_cursors : int;
  evicted_cursors : int;  (** removed by TTL, cap, connection close or shutdown *)
  expired_cursors : int;  (** the TTL subset of [evicted_cursors] *)
}

val stats : 'a t -> stats
