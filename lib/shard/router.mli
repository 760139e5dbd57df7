(** The shard router: one [Filter]-protocol endpoint fanning out over
    [n] threshold shard servers.

    The router speaks exactly the single-server protocol on both
    sides, so clients (and the whole query layer above them) are
    unchanged.  Every request goes to one serving group: the
    [threshold] live shards with the lowest ids.  Point lookups and
    share fetches are folded with the group's fixed Lagrange
    multipliers ({!Secshare_core.Share}); a fused scan forwards the
    client's target unchanged as one member scan per group member,
    drains them in lockstep, and streams the combined rows back in
    the exact order the single server would have produced —
    bit-identical results by construction.  The other shards stand by.

    {b Degradation.}  A shard whose transport dies is marked dead and
    the next live shard takes its place in the group — including
    mid-scan: the router reopens the scan on the rebuilt group and
    skips the rows already delivered.  Queries keep succeeding until fewer than
    [threshold] shards are live, at which point requests fail with a
    clear error rather than wrong answers.  An application-level error
    from a {e live} shard (distinguished by a [Ping] probe) is
    propagated, never failed over.

    {b Information flow.}  Like every serving component, the router
    logs and exports topology only — shard ids, liveness, call counts
    — never query content, evaluation points or node numbers. *)

type t

val of_transports :
  Secshare_poly.Ring.t ->
  ?max_cursors:int ->
  Secshare_rpc.Transport.t list ->
  (t, string) result
(** Build a router over already-connected transports, one per shard.
    Each shard is asked for its {!Manifest.t} via the [Manifest]
    handshake; a shard serving another field than [ring] is refused
    with an error naming both fields, and the group must be consistent
    and complete (exactly [shards] members with distinct ids 1..n).  [max_cursors] (default
    1024) bounds concurrently open router cursors, evicting the least
    recently used past the cap. *)

val connect :
  ?policy:Secshare_rpc.Transport.policy ->
  ?max_cursors:int ->
  string list ->
  (t, string) result
(** [of_transports] over socket transports to the given Unix-socket
    paths, each carrying the retry/deadline [policy].  The field is the
    one the first shard's handshake reports, admitted by
    {!Secshare_poly.Ring.checked}; every other shard must serve the
    same.  On an [Error] every socket opened is closed again. *)

val handler :
  t -> Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response
(** The routing request handler — plug into
    {!Secshare_rpc.Transport.local} for in-process use. *)

val connection :
  t -> (Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response) * (unit -> unit)
(** A session-scoped handler for {!Secshare_rpc.Server.start_sessions},
    built on {!Secshare_rpc.Session_cursors}: a connection can drain or
    close only the cursors it opened (any other id is answered as
    unknown), and the second component closes every cursor the
    connection still has open (router-side and on the shards). *)

val manifest : t -> Manifest.t
(** The deployment summary ([shard_id = 0]). *)

val shards : t -> int
val threshold : t -> int
val live_shards : t -> int

val kill_shard : t -> int -> unit
(** Mark shard [id] dead without probing it (test hook for the
    degraded-serving paths; the real path marks shards dead when their
    transport fails a call and a [Ping] probe). *)

val open_cursors : t -> int

val close : t -> unit
(** Close all cursors and every shard transport. *)
