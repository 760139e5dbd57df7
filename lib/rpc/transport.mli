(** Client-side transports for the filter protocol.

    Both transports push every message through the binary codec, so
    byte counts are comparable and the codec is exercised constantly:

    - {!local}: in-process, the benchmark configuration (function call
      in place of the paper's RMI);
    - {!socket}: a Unix-domain-socket connection to a {!Server},
      reproducing the remote client/server split of figure 3.

    The socket transport carries a resilience {!policy}: every call is
    bounded by a deadline, and failed {e idempotent} calls are retried
    with exponential backoff and jitter, transparently reconnecting a
    dead socket.  [Scan_next] is the one non-idempotent request
    (resending it could skip a batch) and is never retried.  Protocol
    errors — an undecodable reply from a live peer — are never
    retried either; only transport failures (timeout, reset, EOF)
    are. *)

type counters = {
  mutable calls : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable retries : int;  (** failed attempts that were retried *)
  mutable reconnects : int;  (** sockets re-established after a drop *)
  mutable timeouts : int;  (** calls that hit the per-call deadline *)
}

type policy = {
  call_timeout : float option;
      (** per-call deadline in seconds; [None] waits forever *)
  max_retries : int;  (** extra attempts after the first failure *)
  backoff_base : float;  (** first backoff delay, seconds *)
  backoff_max : float;  (** backoff ceiling, seconds *)
  backoff_jitter : float;
      (** relative jitter in [0, 1]: each delay is scaled by a random
          factor in [1 - j, 1 + j] to avoid thundering herds *)
}

val default_policy : policy
(** No deadline, no retries — the pre-resilience behaviour. *)

type t

val local : handler:(Protocol.request -> Protocol.response) -> t

val socket : ?policy:policy -> string -> (t, string) result
(** Connect to a Unix-domain socket path. *)

val call : t -> Protocol.request -> Protocol.response
(** Perform one round trip.  Transport failures (after the policy's
    retry budget is spent) and undecodable responses surface as
    [Error_msg] responses; a call never hangs past
    [call_timeout * (max_retries + 1)] plus backoff. *)

val counters : t -> counters
val reset_counters : t -> unit
val close : t -> unit
