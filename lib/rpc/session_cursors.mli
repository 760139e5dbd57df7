(** Per-connection cursor ownership, shared by every session-scoped
    serving endpoint (the server filter and the shard router).

    Cursor ids are process-wide and sequential, so any client can name
    another session's cursor.  The tracker wraps a handler so that a
    session can only drain or close the cursors it opened:

    - ids are adopted from every [Scan_batch] reply carrying a cursor;
    - they are forgotten when a [Scan_next] drains the scan or a
      [Cursor_close] releases it;
    - a [Scan_next] or [Cursor_close] naming an id the session does not
      own never reaches the handler, and is answered exactly like an
      unknown id ({!unknown_cursor}, or [Pong] for a close), so the
      reply reveals nothing about other sessions;
    - the close hook releases every id the session still holds. *)

val unknown_cursor : int -> Protocol.response
(** The reply to a [Scan_next] for a cursor that does not exist (or is
    not the caller's): the one wording every endpoint uses. *)

val connection :
  handler:(Protocol.request -> Protocol.response) ->
  release:(int -> unit) ->
  (Protocol.request -> Protocol.response) * (unit -> unit)
(** A session-scoped handler plus its close hook, which calls
    [release] once for every cursor the session still owns.  The pair
    plugs into {!Server.start_sessions}; like every session there, it
    is driven by one connection at a time and needs no lock. *)
