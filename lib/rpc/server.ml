module Obs = Secshare_obs

(* Server-side registry families.  Declared (or created) at module
   init so a fresh server's /metrics already shows the full surface.
   Byte counters include the 12-byte frame headers: they measure what
   crossed the wire, not what the codec produced. *)
let () =
  Obs.Registry.declare ~kind:Obs.Registry.K_counter
    ~help:"Requests handled, by opcode." "ssdb_server_requests_total";
  Obs.Registry.declare ~kind:Obs.Registry.K_histogram
    ~help:"Request handling latency in seconds, by opcode."
    "ssdb_server_request_seconds"

let obs_frame_bytes_in =
  Obs.Registry.counter ~help:"Bytes read from clients, frame headers included."
    "ssdb_server_frame_bytes_in_total"

let obs_frame_bytes_out =
  Obs.Registry.counter ~help:"Bytes written to clients, frame headers included."
    "ssdb_server_frame_bytes_out_total"

let obs_connections_accepted =
  Obs.Registry.counter ~help:"Client connections accepted."
    "ssdb_server_connections_accepted_total"

let obs_connections_active =
  Obs.Registry.gauge ~help:"Client connections currently open."
    "ssdb_server_connections_active"

let obs_request_errors =
  Obs.Registry.counter
    ~help:"Requests answered with an error response (codec, handler or unknown cursor)."
    "ssdb_server_request_errors_total"

type session = {
  on_request : Protocol.request -> Protocol.response;
  on_close : unit -> unit;
}

type stats = {
  connections_accepted : int;
  connections_active : int;
  requests_handled : int;
  accept_errors : int;
}

(* Exponential accept backoff, e.g. against EMFILE: same schedule the
   threaded server used, exposed as a pure function so the regression
   tests can pin it.  [consecutive_failures] counts from 1. *)
let backoff_delay ~consecutive_failures =
  Float.min 1.0 (0.005 *. (2.0 ** float_of_int (min consecutive_failures 8)))

(* One multiplexed connection.  All fields are owned by the loop
   domain; nothing here is shared. *)
type conn = {
  fd : Unix.file_descr;
  session : session;
  mutable rbuf : Bytes.t; [@domain_confined "evloop"]
  mutable rlen : int; [@domain_confined "evloop"]  (* bytes of [rbuf] filled *)
  mutable wbuf : Bytes.t; [@domain_confined "evloop"]
  mutable wpos : int; [@domain_confined "evloop"]  (* next unsent byte *)
  mutable wlen : int; [@domain_confined "evloop"]  (* end of pending output *)
  mutable wdeadline : float; [@domain_confined "evloop"]  (* absolute; 0. = none *)
}

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  send_timeout : float option;
  make_session : unit -> session;
  (* loop-domain-only state: the poll interest set and the connection
     table keyed by descriptor number.  Single-owner, so unlocked. *)
  evloop : Evloop.t;
  conns : (int, conn) Hashtbl.t; [@domain_confined "evloop"]
  wake_r : Unix.file_descr;  (* self-pipe: [stop] pokes the loop *)
  wake_w : Unix.file_descr;
  (* cross-thread state: everything below is read by [stats]/[stop]
     from other threads and guarded by [lock]. *)
  lock : Mutex.t;
  mutable running : bool; [@guarded_by "rpc-server-stats"]
  mutable connections_accepted : int; [@guarded_by "rpc-server-stats"]
  mutable connections_active : int; [@guarded_by "rpc-server-stats"]
  mutable requests_handled : int; [@guarded_by "rpc-server-stats"]
  mutable accept_errors : int; [@guarded_by "rpc-server-stats"]
  loop_domain : unit Domain.t option ref;
      [@atomic_ok
        "written by start before the loop is visible and by stop after join; never \
         concurrent"]
}

let with_lock t f =
  Obs.Race_check.acquired "rpc-server-stats";
  Mutex.lock t.lock;
  Obs.Race_check.access ~write:true "server.stats";
  Fun.protect
    ~finally:(fun () ->
      Obs.Race_check.released "rpc-server-stats";
      Mutex.unlock t.lock)
    f

let is_running t = with_lock t (fun () -> t.running)

(* --- output path ------------------------------------------------- *)

(* Flush as much pending output as the socket accepts right now.
   Returns [`Done] when the buffer drained, [`Blocked] when the socket
   would block, [`Closed] on a write error (peer gone). *)
let flush_out conn =
  let rec go () =
    if conn.wpos >= conn.wlen then begin
      conn.wpos <- 0;
      conn.wlen <- 0;
      conn.wdeadline <- 0.0;
      `Done
    end
    else
      match Unix.write conn.fd conn.wbuf conn.wpos (conn.wlen - conn.wpos) with
      | 0 -> `Closed
      | n ->
          conn.wpos <- conn.wpos + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Blocked
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> `Closed
  in
  go ()

let ensure_out_capacity conn extra =
  let need = conn.wlen + extra in
  if Bytes.length conn.wbuf < need then begin
    let cap = max need (2 * Bytes.length conn.wbuf) in
    let fresh = Bytes.create cap in
    Bytes.blit conn.wbuf 0 fresh 0 conn.wlen;
    conn.wbuf <- fresh
  end

(* Queue one framed response (header layout as in {!Frame}). *)
let queue_reply conn ~trace_id payload =
  let len = String.length payload in
  ensure_out_capacity conn (Frame.header_bytes + len);
  Bytes.set_int32_be conn.wbuf conn.wlen (Int32.of_int len);
  Bytes.set_int64_be conn.wbuf (conn.wlen + 4) trace_id;
  Bytes.blit_string payload 0 conn.wbuf (conn.wlen + Frame.header_bytes) len;
  conn.wlen <- conn.wlen + Frame.header_bytes + len;
  Obs.Registry.inc ~by:(Frame.header_bytes + len) obs_frame_bytes_out

(* --- connection lifecycle ---------------------------------------- *)

let close_conn t conn =
  Evloop.remove t.evloop conn.fd;
  Hashtbl.remove t.conns (Evloop.fd_int conn.fd);
  with_lock t (fun () -> t.connections_active <- t.connections_active - 1);
  Obs.Registry.gauge_add obs_connections_active (-1);
  (match conn.session.on_close () with () -> () | exception _ -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* --- request path ------------------------------------------------ *)

let handle_request t conn ~trace_id payload =
  Obs.Registry.inc ~by:(Frame.header_bytes + String.length payload) obs_frame_bytes_in;
  let started = Unix.gettimeofday () in
  let op, reply =
    match Protocol.decode_request payload with
    | request ->
        let op = Protocol.request_name request in
        let reply =
          (* the frame's trace id becomes the loop's ambient trace, so
             handler-side spans and the slow-query log join the
             client's trace *)
          Obs.Trace.with_ambient trace_id (fun () ->
              Obs.Trace.with_span ~kind:Obs.Span.Server ("serve:" ^ op) (fun () ->
                  match conn.session.on_request request with
                  | response -> response
                  | exception exn ->
                      Protocol.Error_msg ("handler: " ^ Printexc.to_string exn)))
        in
        (op, reply)
    | exception Wire.Decode_error msg ->
        ("undecodable", Protocol.Error_msg ("codec: " ^ msg))
  in
  Obs.Registry.inc
    (Obs.Registry.counter ~labels:[ ("op", op) ] "ssdb_server_requests_total");
  Obs.Histogram.observe
    (Obs.Registry.histogram ~labels:[ ("op", op) ] "ssdb_server_request_seconds")
    (Unix.gettimeofday () -. started);
  (match reply with
  | Protocol.Error_msg _ -> Obs.Registry.inc obs_request_errors
  | _ -> ());
  with_lock t (fun () -> t.requests_handled <- t.requests_handled + 1);
  queue_reply conn ~trace_id (Protocol.encode_response reply)

let max_frame_len = 1 lsl 28

(* Consume every complete frame currently buffered, stopping early the
   moment a reply is queued but unflushed: one outstanding response per
   connection, exactly like the threaded server's read-handle-write
   cycle, so a pipelining client cannot balloon the output buffer. *)
let rec process_frames t conn =
  if conn.wlen = 0 && conn.rlen >= Frame.header_bytes then begin
    let len = Int32.to_int (Bytes.get_int32_be conn.rbuf 0) in
    if len < 0 || len > max_frame_len then `Protocol_error
    else if conn.rlen < Frame.header_bytes + len then `Need_more
    else begin
      let trace_id = Bytes.get_int64_be conn.rbuf 4 in
      let payload = Bytes.sub_string conn.rbuf Frame.header_bytes len in
      let consumed = Frame.header_bytes + len in
      Bytes.blit conn.rbuf consumed conn.rbuf 0 (conn.rlen - consumed);
      conn.rlen <- conn.rlen - consumed;
      handle_request t conn ~trace_id payload;
      (* flush opportunistically: almost always completes, keeping the
         fast path free of poll round trips *)
      match flush_out conn with
      | `Done -> process_frames t conn
      | `Blocked ->
          conn.wdeadline <-
            (match t.send_timeout with
            | Some s -> Unix.gettimeofday () +. s
            | None -> 0.0);
          `Need_more
      | `Closed -> `Protocol_error
    end
  end
  else `Need_more

let update_interest t conn =
  (* read only while no response is pending (per-connection
     backpressure); write only while output is queued *)
  if Evloop.mem t.evloop conn.fd then
    Evloop.modify t.evloop conn.fd ~read:(conn.wlen = 0) ~write:(conn.wlen > 0)

let ensure_in_capacity conn =
  let cap = Bytes.length conn.rbuf in
  if conn.rlen = cap then begin
    let fresh = Bytes.create (2 * cap) in
    Bytes.blit conn.rbuf 0 fresh 0 conn.rlen;
    conn.rbuf <- fresh
  end

let on_readable t conn =
  let closed = ref false in
  let progress = ref true in
  (* the [conn.wlen = 0] guard mirrors the one-outstanding-request
     discipline on the input side: once a reply is blocked we stop
     pulling socket data, so a fast pipelining client backs up in the
     kernel buffer instead of ballooning [rbuf] *)
  while !progress && not !closed && conn.wlen = 0 do
    progress := false;
    ensure_in_capacity conn;
    (match
       Unix.read conn.fd conn.rbuf conn.rlen (Bytes.length conn.rbuf - conn.rlen)
     with
    | 0 -> closed := true
    | n ->
        conn.rlen <- conn.rlen + n;
        progress := true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> progress := true
    | exception Unix.Unix_error _ -> closed := true);
    if not !closed then
      match process_frames t conn with
      | `Need_more -> ()
      | `Protocol_error -> closed := true
  done;
  if !closed then close_conn t conn else update_interest t conn

let on_writable t conn =
  match flush_out conn with
  | `Done ->
      (* the response went out; resume reading and drain any frames
         that piled up behind the backpressure gate *)
      (match process_frames t conn with
      | `Need_more -> update_interest t conn
      | `Protocol_error -> close_conn t conn)
  | `Blocked -> ()
  | `Closed -> close_conn t conn

(* --- accept path ------------------------------------------------- *)

type accept_state = {
  mutable consecutive_failures : int; [@domain_confined "evloop"]
  mutable paused_until : float; [@domain_confined "evloop"]  (* 0. = accepting *)
}

let register_conn t fd session =
  Unix.set_nonblock fd;
  let conn =
    {
      fd;
      session;
      rbuf = Bytes.create 4096;
      rlen = 0;
      wbuf = Bytes.create 4096;
      wpos = 0;
      wlen = 0;
      wdeadline = 0.0;
    }
  in
  Hashtbl.replace t.conns (Evloop.fd_int fd) conn;
  Evloop.add t.evloop fd ~read:true ~write:false;
  with_lock t (fun () ->
      t.connections_accepted <- t.connections_accepted + 1;
      t.connections_active <- t.connections_active + 1);
  Obs.Registry.inc obs_connections_accepted;
  Obs.Registry.gauge_add obs_connections_active 1;
  Obs.Events.debug "server accept path=%s" t.socket_path

let on_accept t astate =
  let burst = ref true in
  while !burst do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        astate.consecutive_failures <- 0;
        register_conn t fd (t.make_session ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        burst := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ when not (is_running t) -> burst := false
    | exception Unix.Unix_error _ ->
        (* e.g. EMFILE: pause the accept path instead of spinning at
           100% CPU, and keep serving the connections we already have *)
        with_lock t (fun () -> t.accept_errors <- t.accept_errors + 1);
        astate.consecutive_failures <- astate.consecutive_failures + 1;
        astate.paused_until <-
          Unix.gettimeofday ()
          +. backoff_delay ~consecutive_failures:astate.consecutive_failures;
        Evloop.remove t.evloop t.listen_fd;
        burst := false
  done

(* --- the loop ---------------------------------------------------- *)

(* Earliest of the pending write deadlines and the accept-backoff
   resume time, as a poll timeout in ms; 500 ms idle tick otherwise. *)
let loop_timeout_ms t astate =
  let now = Unix.gettimeofday () in
  let horizon = now +. 0.5 in
  let horizon = if astate.paused_until > now then Float.min horizon astate.paused_until else horizon in
  let horizon =
    Hashtbl.fold
      (fun _ conn acc ->
        if conn.wdeadline > 0.0 then Float.min acc conn.wdeadline else acc)
      t.conns horizon
  in
  max 0 (int_of_float (Float.ceil ((horizon -. now) *. 1000.0)))

let sweep_write_deadlines t =
  let now = Unix.gettimeofday () in
  let expired =
    Hashtbl.fold
      (fun _ conn acc ->
        if conn.wdeadline > 0.0 && now > conn.wdeadline then conn :: acc else acc)
      t.conns []
  in
  (* a client that stopped reading past the send timeout is dropped,
     like the threaded server's Frame.Timeout path *)
  List.iter (fun conn -> close_conn t conn) expired

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

(* Graceful drain: stop accepting, shut down the read side of every
   live connection (clients see EOF after in-flight responses), keep
   polling only to flush pending output, then close everything --
   running each session's on_close exactly once. *)
let drain t =
  Evloop.remove t.evloop t.listen_fd;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* the wake byte [stop] wrote has done its job; deregister the pipe
     so the flush loop below actually blocks in poll instead of
     busy-spinning on a permanently-readable descriptor *)
  drain_wake t;
  Evloop.remove t.evloop t.wake_r;
  let pending = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      (try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
      if conn.wlen > conn.wpos then pending := conn :: !pending
      else Evloop.remove t.evloop conn.fd)
    t.conns;
  List.iter (fun conn -> Evloop.modify t.evloop conn.fd ~read:false ~write:true) !pending;
  let deadline =
    Unix.gettimeofday () +. Option.value t.send_timeout ~default:5.0
  in
  let flush_pending () =
    pending :=
      List.filter
        (fun conn ->
          match flush_out conn with
          | `Done ->
              Evloop.remove t.evloop conn.fd;
              false
          | `Blocked -> true
          | `Closed ->
              Evloop.remove t.evloop conn.fd;
              false)
        !pending
  in
  flush_pending ();
  while !pending <> [] && Unix.gettimeofday () < deadline do
    let timeout_ms =
      max 1 (int_of_float ((deadline -. Unix.gettimeofday ()) *. 1000.0))
    in
    ignore
      (Evloop.wait t.evloop ~timeout_ms
         ~f:(fun _fd ~readable:_ ~writable:_ ~error:_ -> ()));
    flush_pending ()
  done;
  let all = Hashtbl.fold (fun _ conn acc -> conn :: acc) t.conns [] in
  List.iter (fun conn -> close_conn t conn) all

(* The loop body: everything reachable from here runs on the loop
   domain.  The [@@runs_on] seed is what lets the race pass prove the
   conn table and buffers are evloop-confined. *)
let run_loop t =
  let astate = { consecutive_failures = 0; paused_until = 0.0 } in
  while is_running t do
    (* resume a paused accept path once its backoff elapsed *)
    if astate.paused_until > 0.0 && Unix.gettimeofday () >= astate.paused_until
    then begin
      astate.paused_until <- 0.0;
      if not (Evloop.mem t.evloop t.listen_fd) then
        Evloop.add t.evloop t.listen_fd ~read:true ~write:false
    end;
    let timeout_ms = loop_timeout_ms t astate in
    ignore
      (Evloop.wait t.evloop ~timeout_ms ~f:(fun fd ~readable ~writable ~error ->
           if fd = t.wake_r then drain_wake t
           else if fd = t.listen_fd then on_accept t astate
           else
             match Hashtbl.find_opt t.conns (Evloop.fd_int fd) with
             | None -> ()
             | Some conn ->
                 if error then close_conn t conn
                 else begin
                   if writable then on_writable t conn;
                   (* the write path may have closed it *)
                   if readable && Evloop.mem t.evloop conn.fd then
                     on_readable t conn
                 end));
    sweep_write_deadlines t
  done;
  drain t
[@@runs_on "evloop"]

(* --- public surface ---------------------------------------------- *)

let start_sessions ?send_timeout ~path ~session () =
  (* the loop writes with raw Unix.write; without this a standalone
     server dies of SIGPIPE on the first write to a vanished client
     (in-process tests mask it because the client's Frame.send installs
     the same process-wide ignore) *)
  Frame.ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 1024;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  let t =
    {
      socket_path = path;
      listen_fd;
      send_timeout;
      make_session = session;
      evloop = Evloop.create ();
      conns = Hashtbl.create 64;
      wake_r;
      wake_w;
      lock = Mutex.create ();
      running = true;
      connections_accepted = 0;
      connections_active = 0;
      requests_handled = 0;
      accept_errors = 0;
      loop_domain = ref None;
    }
  in
  Evloop.add t.evloop t.listen_fd ~read:true ~write:false;
  Evloop.add t.evloop t.wake_r ~read:true ~write:false;
  (* the loop gets its own domain (not a thread: ssdb_lint bans
     Thread.create in lib/rpc) -- handlers, share evaluation
     included, run inline on it *)
  t.loop_domain := Some (Domain.spawn (fun () -> run_loop t));
  t

let start ~path ~handler =
  start_sessions ~path
    ~session:(fun () -> { on_request = handler; on_close = ignore })
    ()

let path t = t.socket_path

let stats t =
  with_lock t (fun () ->
      {
        connections_accepted = t.connections_accepted;
        connections_active = t.connections_active;
        requests_handled = t.requests_handled;
        accept_errors = t.accept_errors;
      })

let stop t =
  let was_running =
    with_lock t (fun () ->
        let was = t.running in
        t.running <- false;
        was)
  in
  if was_running then begin
    Obs.Events.info "server drain path=%s active=%d" t.socket_path
      (stats t).connections_active;
    (try ignore (Unix.write t.wake_w (Bytes.make 1 '\000') 0 1)
     with Unix.Unix_error _ -> ());
    (match !(t.loop_domain) with
    | None -> ()
    | Some d ->
        Domain.join d;
        t.loop_domain := None);
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())
  end
