(** The runtime lock witness: the declared lock order and an
    Eraser-style lockset race detector.

    Off by default; enabled by [SSDB_RACE_CHECK=1] in the environment
    or {!set_enabled}.  When disabled every entry point is a single
    atomic load, so the hooks stay in production code.

    Instrumented modules call {!acquired} with the lock *class* name
    from {!lock_order} before each [Mutex.lock] and {!released} after
    the matching unlock, and {!access} with a stable root name at each
    shared-state touch.

    - Order: {!acquired} raises [Failure] when the class is undeclared
      or its rank is not strictly above the innermost class the calling
      executor holds (so re-taking a held class, such as the pager
      latch, is refused too).  The check runs before the caller
      blocks on the mutex, and a refused acquisition is not recorded,
      so nothing is left held.
    - Races: a root written by two executors that share no lock class
      produces a report; {!reports} returns them oldest first. *)

val lock_order : (string * int) list
(** Every lock class with its rank, ascending: a lock may only be
    taken while every held lock ranks strictly lower.  This is the one
    declaration of the order; the static lock passes of [ssdb_lint]
    read their ranks from it (DESIGN.md §16). *)

val rank : string -> int option
(** [rank cls] is [cls]'s rank in {!lock_order}, [None] when
    undeclared. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val acquired : string -> unit
(** [acquired cls] records that the calling executor is taking a lock
    of class [cls].  @raise Failure, naming both classes, on an
    undeclared class or an acquisition out of {!lock_order}. *)

val released : string -> unit
(** [released cls] drops the innermost held lock of class [cls]. *)

val access : ?write:bool -> string -> unit
(** [access ~write root] records a touch of [root] by the calling
    executor with its currently held lock classes.  [write] defaults
    to [false]. *)

val reports : unit -> string list
val reset : unit -> unit
(** [reset] clears accumulated root states and reports (held-lock
    stacks survive, so a reset inside a locked region stays
    balanced). *)
