(** A bounded polymorphic map with least-recently-used eviction.

    Hash table over an intrusive recency list: [find], [add] and the
    eviction they trigger are all O(1).  Not thread-safe — owned by one
    thread, like the {!Client_filter} that embeds it, or by a lock, like
    the {!Cursor_table} built on it. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity] — room for [capacity] entries.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : ('k, 'v) t -> int
val size : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most recently used and counts a hit/miss. *)

val add : ('k, 'v) t -> key:'k -> value:'v -> unit
(** Insert (or replace) an entry, evicting the least recently used one
    when the cache is full. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Drop an entry and return its value; [None] when absent.  Not
    counted as an eviction. *)

val oldest : ('k, 'v) t -> ('k * 'v) option
(** The least recently used entry, without touching recency. *)

val find_or_add : ('k, 'v) t -> 'k -> compute:('k -> 'v) -> 'v
(** [find] then [add compute key] on a miss. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry (capacity and counters are kept). *)

type stats = { hits : int; misses : int; evictions : int }

val stats : ('k, 'v) t -> stats
