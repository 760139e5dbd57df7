(** An event-driven Unix-domain-socket server for the filter protocol —
    the "big server" side of the paper's architecture (figure 3).

    One loop domain multiplexes every connection over [poll(2)]
    ({!Evloop}); request handlers, share evaluation included, run
    inline on the loop, so connection count is bounded by
    descriptors, not threads.  The
    server keeps per-connection accounting, backs off instead of
    spinning when [accept] fails persistently (e.g. EMFILE), and
    {!stop} performs a graceful drain: stop accepting, flush in-flight
    responses, run close hooks, then unlink the socket. *)

type t

type session = {
  on_request : Protocol.request -> Protocol.response;
      (** Called from the loop domain, one outstanding request per
          connection at a time; distinct connections' handlers never
          overlap (they share the loop), so per-session state needs no
          locking of its own. *)
  on_close : unit -> unit;
      (** Runs exactly once when the connection ends — client
          disconnect, write deadline, or server drain — before the
          descriptor is closed.  Use it to release per-connection
          server state (e.g. evict the connection's cursors). *)
}

val start : path:string -> handler:(Protocol.request -> Protocol.response) -> t
(** Bind [path] (unlinking any stale socket), then serve connections
    from the event loop.  @raise Unix.Unix_error if binding fails. *)

val start_sessions :
  ?send_timeout:float -> path:string -> session:(unit -> session) -> unit -> t
(** Like {!start}, but a fresh [session] is created per connection,
    giving the handler connection identity and a close hook.
    [send_timeout] bounds how long a response may sit part-written in
    the connection's output buffer, so a client that stops reading is
    disconnected instead of holding memory forever. *)

val path : t -> string

type stats = {
  connections_accepted : int;
  connections_active : int;
  requests_handled : int;
  accept_errors : int;  (** failed [accept] calls (backoff applied) *)
}

val stats : t -> stats

val backoff_delay : consecutive_failures:int -> float
(** The accept-failure backoff schedule (seconds before re-arming the
    listener), pure in the failure count (counted from 1).  Doubles
    from 10 ms and saturates at 1 s — exposed so the resilience
    tests can pin the schedule rather than timing real EMFILE
    storms. *)

val stop : t -> unit
(** Graceful drain: stop accepting, close the listening socket, shut
    down the read side of live connections, flush responses still in
    output buffers (bounded by the send timeout), run every
    [on_close] hook, join the loop domain, and unlink the path. *)
