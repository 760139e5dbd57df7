module Obs = Secshare_obs

(* Registry mirrors of the mutable [counters] record.  The record
   stays (per-transport, cheap, the existing API); the registry gets
   the process-wide aggregate that /metrics and tests scrape.  The
   per-opcode families are declared here so they render before the
   first call. *)
let () =
  Obs.Registry.declare ~kind:Obs.Registry.K_counter
    ~help:"Client RPC round trips, by opcode." "ssdb_client_rpc_calls_total";
  Obs.Registry.declare ~kind:Obs.Registry.K_histogram
    ~help:"Client RPC round-trip latency in seconds, by opcode."
    "ssdb_client_rpc_seconds"

let obs_bytes_sent =
  Obs.Registry.counter ~help:"Request payload bytes written by clients."
    "ssdb_client_rpc_bytes_sent_total"

let obs_bytes_received =
  Obs.Registry.counter ~help:"Response payload bytes read by clients."
    "ssdb_client_rpc_bytes_received_total"

let obs_retries =
  Obs.Registry.counter ~help:"Failed client RPC attempts that were retried."
    "ssdb_client_rpc_retries_total"

let obs_reconnects =
  Obs.Registry.counter ~help:"Client sockets re-established after a drop."
    "ssdb_client_rpc_reconnects_total"

let obs_timeouts =
  Obs.Registry.counter ~help:"Client RPC attempts that hit the per-call deadline."
    "ssdb_client_rpc_timeouts_total"

type counters = {
  mutable calls : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable retries : int;
  mutable reconnects : int;
  mutable timeouts : int;
}

type policy = {
  call_timeout : float option;
  max_retries : int;
  backoff_base : float;
  backoff_max : float;
  backoff_jitter : float;
}

let default_policy =
  {
    call_timeout = None;
    max_retries = 0;
    backoff_base = 0.05;
    backoff_max = 1.0;
    backoff_jitter = 0.5;
  }

type socket_conn = {
  path : string;
  policy : policy;
  mutable fd : Unix.file_descr option;
  mutable closed : bool;
}

type kind =
  | Local of (Protocol.request -> Protocol.response)
  | Socket of socket_conn

type t = { kind : kind; counters : counters }

let fresh_counters () =
  {
    calls = 0;
    bytes_sent = 0;
    bytes_received = 0;
    retries = 0;
    reconnects = 0;
    timeouts = 0;
  }

let local ~handler = { kind = Local handler; counters = fresh_counters () }

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception exn ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise exn

let socket ?(policy = default_policy) path =
  match connect_fd path with
  | fd ->
      Ok
        {
          kind = Socket { path; policy; fd = Some fd; closed = false };
          counters = fresh_counters ();
        }
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

(* Every request is a pure read of server state except [Scan_next],
   which advances a server-side cursor: resending it after an
   ambiguous failure could silently skip a batch.  ([Scan_eval] only
   creates a cursor — a retried duplicate leaks until evicted, which
   is safe.) *)
let idempotent = function Protocol.Scan_next _ -> false | _ -> true

(* Jitter noise comes from the project's seeded SplitMix64, not
   Stdlib.Random: every random draw in the tree stays auditable
   (ssdb_lint banned/random).  The state is process-global and
   intentionally unsynchronised — a torn update can only repeat a
   jitter value, which is harmless. *)
let jitter_prg =
  Secshare_prg.Splitmix64.create
    (Int64.of_float (Unix.gettimeofday () *. 1e9) |> Int64.logxor 0x5DB5DB5DB5DB5DBL)

let backoff_delay policy attempt =
  let d = policy.backoff_base *. (2.0 ** float_of_int attempt) in
  let d = Float.min d policy.backoff_max in
  let jitter =
    if policy.backoff_jitter <= 0.0 then 0.0
    else
      policy.backoff_jitter
      *. ((Secshare_prg.Splitmix64.next_float jitter_prg *. 2.0) -. 1.0)
  in
  Float.max 0.0 (d *. (1.0 +. jitter))

let drop_connection conn =
  (match conn.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  conn.fd <- None

let call t request =
  let op = Protocol.request_name request in
  let encoded = Protocol.encode_request request in
  t.counters.calls <- t.counters.calls + 1;
  t.counters.bytes_sent <- t.counters.bytes_sent + String.length encoded;
  Obs.Registry.inc
    (Obs.Registry.counter ~labels:[ ("op", op) ] "ssdb_client_rpc_calls_total");
  Obs.Registry.inc ~by:(String.length encoded) obs_bytes_sent;
  let latency =
    Obs.Registry.histogram ~labels:[ ("op", op) ] "ssdb_client_rpc_seconds"
  in
  let perform () =
    match t.kind with
    | Local handler -> (
        (* Round-trip through the codec even locally so both transports
           measure and exercise the same byte stream. *)
        match
          let decoded = Protocol.decode_request encoded in
          Protocol.encode_response (handler decoded)
        with
        | reply ->
            t.counters.bytes_received <- t.counters.bytes_received + String.length reply;
            Obs.Registry.inc ~by:(String.length reply) obs_bytes_received;
            Protocol.decode_response reply
        | exception Wire.Decode_error msg -> Protocol.Error_msg ("codec: " ^ msg))
    | Socket conn ->
        if conn.closed then Protocol.Error_msg "transport closed"
        else begin
          let retryable = idempotent request in
          let rec attempt n =
            let fail msg =
              if retryable && n < conn.policy.max_retries then begin
                t.counters.retries <- t.counters.retries + 1;
                Obs.Registry.inc obs_retries;
                Obs.Events.debug "transport retry op=%s attempt=%d reason=%s" op (n + 1)
                  msg;
                Thread.delay (backoff_delay conn.policy n);
                attempt (n + 1)
              end
              else Protocol.Error_msg ("transport: " ^ msg)
            in
            match
              match conn.fd with
              | Some fd -> Ok fd
              | None -> (
                  match connect_fd conn.path with
                  | fd ->
                      conn.fd <- Some fd;
                      t.counters.reconnects <- t.counters.reconnects + 1;
                      Obs.Registry.inc obs_reconnects;
                      Obs.Events.debug "transport reconnect path=%s" conn.path;
                      Ok fd
                  | exception Unix.Unix_error (err, _, _) ->
                      Error ("reconnect: " ^ Unix.error_message err))
            with
            | Error msg -> fail msg
            | Ok fd -> (
                let deadline =
                  Option.map
                    (fun seconds -> Unix.gettimeofday () +. seconds)
                    conn.policy.call_timeout
                in
                match
                  (* the frame header carries the ambient trace id so
                     server-side spans join the client's trace *)
                  Frame.send ?deadline ~trace_id:(Obs.Trace.current_id ()) fd encoded;
                  Frame.recv ?deadline fd
                with
                | reply -> (
                    t.counters.bytes_received <-
                      t.counters.bytes_received + String.length reply;
                    Obs.Registry.inc ~by:(String.length reply) obs_bytes_received;
                    (* an undecodable reply is a protocol error, not a
                       transport error: the peer answered, retrying the
                       same request will not help *)
                    match Protocol.decode_response reply with
                    | response -> response
                    | exception Wire.Decode_error msg ->
                        Protocol.Error_msg ("codec: " ^ msg))
                | exception Frame.Timeout ->
                    t.counters.timeouts <- t.counters.timeouts + 1;
                    Obs.Registry.inc obs_timeouts;
                    (* the stream may hold a late reply for the timed-out
                       request: unusable, drop the connection *)
                    drop_connection conn;
                    fail "timeout"
                | exception Failure msg ->
                    drop_connection conn;
                    fail msg
                | exception Unix.Unix_error (err, _, _) ->
                    drop_connection conn;
                    fail (Unix.error_message err))
          in
          attempt 0
        end
  in
  Obs.Trace.with_span ~kind:Obs.Span.Client ("rpc:" ^ op) (fun () ->
      let start = Unix.gettimeofday () in
      let response = perform () in
      Obs.Histogram.observe latency (Unix.gettimeofday () -. start);
      response)

let counters t = t.counters

let reset_counters t =
  t.counters.calls <- 0;
  t.counters.bytes_sent <- 0;
  t.counters.bytes_received <- 0;
  t.counters.retries <- 0;
  t.counters.reconnects <- 0;
  t.counters.timeouts <- 0

let close t =
  match t.kind with
  | Local _ -> ()
  | Socket conn ->
      if not conn.closed then begin
        conn.closed <- true;
        drop_connection conn
      end
