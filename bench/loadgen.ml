(* Open-loop load generator for the event-loop server.

   The server runs in a forked child (its own process, its own
   descriptor table — so generator + server together can hold ~2 fds
   per session under the usual 1024-style rlimits only if raised;
   each side pays one fd per session).  The parent multiplexes every
   session over one {!Secshare_rpc.Evloop} poll set, fires requests
   on an open-loop schedule (arrival times are fixed up front; a slow
   server does not slow the arrival process, it grows the measured
   latency), and checks every response byte-for-byte against a golden
   encoding computed locally from the same database.

   Latency is measured from the *scheduled* send time, so queueing
   delay behind a saturated server is part of the number — the
   open-loop discipline that makes p99 honest.  Quantiles come from
   {!Secshare_obs.Histogram}, the same log-bucketed histogram the
   server's /metrics exposes. *)

module DB = Secshare_core.Database
module Server_filter = Secshare_core.Server_filter
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Protocol = Secshare_rpc.Protocol
module Frame = Secshare_rpc.Frame
module Evloop = Secshare_rpc.Evloop
module Histogram = Secshare_obs.Histogram

type result = {
  sessions : int;  (** sessions actually connected *)
  requested_sessions : int;
  target_rate : float;  (** requests/second across all sessions *)
  duration : float;
  sent : int;
  received : int;
  send_errors : int;
  golden_mismatches : int;
  achieved_rate : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
}

type sess = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable inflight : bool;
  mutable due_at : float;  (** scheduled time of the next arrival *)
  mutable sched_at : float;  (** scheduled time of the in-flight request *)
}

(* A stable, cursor-free request: evaluate a handful of shares at one
   point.  Its response depends only on the table contents, so one
   golden encoding checks every session's every reply. *)
let pick_request table =
  let root = match Node_table.root table with
    | Some row -> row
    | None -> failwith "loadgen: empty node table"
  in
  let child_pres =
    List.map (fun (r : Page.row) -> r.Page.pre)
      (Node_table.children table ~parent:root.Page.pre)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  Protocol.Eval_batch { pres = root.Page.pre :: take 15 child_pres; point = 5 }

let sigterm_flag = ref false

(* Child: serve the (pre-fork copy of the) database until SIGTERM.
   The parent built the database before forking, so both processes
   hold bit-identical tables without any serialization. *)
let serve_child db ~path =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> sigterm_flag := true));
  let server = DB.serve db ~path in
  while not !sigterm_flag do
    Unix.sleepf 0.05
  done;
  Secshare_rpc.Server.stop server;
  (* not [exit]: the child must not run the parent's at_exit hooks *)
  Unix._exit 0

let connect_sessions ~path ~requested =
  let sessions = ref [] in
  let count = ref 0 in
  let retries = ref 0 in
  (try
     while !count < requested do
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       match Unix.connect fd (Unix.ADDR_UNIX path) with
       | () ->
           Unix.set_nonblock fd;
           sessions :=
             {
               fd;
               rbuf = Bytes.create 512;
               rlen = 0;
               inflight = false;
               due_at = 0.0;
               sched_at = 0.0;
             }
             :: !sessions;
           incr count
       | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
           (* accept backlog momentarily full: give the server loop a
              breath and retry this slot, up to a patience budget *)
           Unix.close fd;
           incr retries;
           if !retries > 2000 then raise Exit;
           Unix.sleepf 0.005
       | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
           (* descriptor budget exhausted: run with what we got *)
           Unix.close fd;
           raise Exit
       | exception e ->
           Unix.close fd;
           raise e
     done
   with Exit -> ());
  Array.of_list (List.rev !sessions)

exception Mismatch

let run ?(sessions = 10_000) ?(rate = 4000.0) ?(duration = 10.0) db () =
  let table = DB.table db in
  let ring = DB.ring db in
  let request = pick_request table in
  let payload = Protocol.encode_request request in
  (* golden: the same filter logic the server runs, computed locally *)
  let golden =
    let filter = Server_filter.create ring table in
    let reply = Server_filter.handler filter request in
    Server_filter.close filter;
    Protocol.encode_response reply
  in
  (match Protocol.decode_response golden with
  | Protocol.Values _ -> ()
  | _ -> failwith "loadgen: golden response is not Values");
  let dir = Filename.temp_file "ssdb_loadgen" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "loadgen.sock" in
  (* the child gets a fresh descriptor table: 10k generator sockets
     here, 10k accepted sockets there, neither side near the rlimit.
     Flush first or the child inherits (and later flushes) a copy of
     whatever the parent had buffered. *)
  flush Stdlib.stdout;
  flush Stdlib.stderr;
  let child = Unix.fork () in
  if child = 0 then serve_child db ~path
  else begin
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        let pool = connect_sessions ~path ~requested:sessions in
        let n = Array.length pool in
        if n = 0 then failwith "loadgen: no sessions connected";
        let interval = float_of_int n /. rate in
        let t0 = Unix.gettimeofday () in
        Array.iteri
          (fun i s -> s.due_at <- t0 +. (float_of_int i /. rate))
          pool;
        let t_end = t0 +. duration in
        let hist = Histogram.create () in
        let evloop = Evloop.create () in
        let by_fd = Hashtbl.create (2 * n) in
        Array.iter
          (fun s ->
            Hashtbl.replace by_fd (Evloop.fd_int s.fd) s;
            Evloop.add evloop s.fd ~read:true ~write:false)
          pool;
        let sent = ref 0 in
        let received = ref 0 in
        let send_errors = ref 0 in
        let mismatches = ref 0 in
        let frame = Bytes.create (Frame.header_bytes + String.length payload) in
        Bytes.set_int32_be frame 0 (Int32.of_int (String.length payload));
        Bytes.set_int64_be frame 4 0L;
        Bytes.blit_string payload 0 frame Frame.header_bytes
          (String.length payload);
        let send_to s ~sched =
          s.sched_at <- sched;
          s.inflight <- true;
          s.due_at <- s.due_at +. interval;
          (* requests are two orders of magnitude below the socket
             buffer: a short or blocked write means the session's peer
             is gone or wedged — count it and retire the session *)
          match Unix.write s.fd frame 0 (Bytes.length frame) with
          | n when n = Bytes.length frame -> incr sent
          | _ | (exception Unix.Unix_error _) ->
              incr send_errors;
              s.inflight <- false;
              s.due_at <- infinity
        in
        let on_reply s =
          let now = Unix.gettimeofday () in
          Histogram.observe hist (now -. s.sched_at);
          incr received;
          s.inflight <- false
        in
        let handle_readable s =
          let closed = ref false in
          (try
             let continue = ref true in
             while !continue do
               if Bytes.length s.rbuf - s.rlen < 512 then begin
                 let fresh = Bytes.create (2 * Bytes.length s.rbuf) in
                 Bytes.blit s.rbuf 0 fresh 0 s.rlen;
                 s.rbuf <- fresh
               end;
               match
                 Unix.read s.fd s.rbuf s.rlen (Bytes.length s.rbuf - s.rlen)
               with
               | 0 ->
                   closed := true;
                   continue := false
               | got ->
                   s.rlen <- s.rlen + got;
                   let rec frames () =
                     if s.rlen >= Frame.header_bytes then begin
                       let len = Int32.to_int (Bytes.get_int32_be s.rbuf 0) in
                       if s.rlen >= Frame.header_bytes + len then begin
                         let body =
                           Bytes.sub_string s.rbuf Frame.header_bytes len
                         in
                         let consumed = Frame.header_bytes + len in
                         Bytes.blit s.rbuf consumed s.rbuf 0 (s.rlen - consumed);
                         s.rlen <- s.rlen - consumed;
                         if not (String.equal body golden) then begin
                           incr mismatches;
                           raise Mismatch
                         end;
                         on_reply s;
                         frames ()
                       end
                     end
                   in
                   frames ()
               | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                 ->
                   continue := false
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | exception Unix.Unix_error _ ->
                   closed := true;
                   continue := false
             done
           with Mismatch -> closed := true);
          if !closed then begin
            Evloop.remove evloop s.fd;
            Hashtbl.remove by_fd (Evloop.fd_int s.fd);
            (try Unix.close s.fd with Unix.Unix_error _ -> ());
            s.due_at <- infinity;
            s.inflight <- false
          end
        in
        let pump_due now limit =
          (* fire every session whose arrival time has come; a session
             still waiting on its reply keeps its scheduled time so the
             queueing delay lands in the histogram *)
          Array.iter
            (fun s ->
              if (not s.inflight) && s.due_at <= now && s.due_at <= limit then
                send_to s ~sched:s.due_at)
            pool
        in
        (* poll timeout tracks the next scheduled arrival, so the
           arrival process keeps its schedule instead of quantizing to
           a fixed tick (which would masquerade as server latency) *)
        let next_due_ms now =
          let next =
            Array.fold_left
              (fun acc s ->
                if (not s.inflight) && s.due_at < acc then s.due_at else acc)
              infinity pool
          in
          if next = infinity then 20
          else max 0 (min 20 (int_of_float (Float.ceil ((next -. now) *. 1000.0))))
        in
        while Unix.gettimeofday () < t_end do
          let now = Unix.gettimeofday () in
          pump_due now t_end;
          ignore
            (Evloop.wait evloop ~timeout_ms:(next_due_ms (Unix.gettimeofday ()))
               ~f:(fun fd ~readable ~writable:_ ~error ->
                 match Hashtbl.find_opt by_fd (Evloop.fd_int fd) with
                 | None -> ()
                 | Some s ->
                     if error then handle_readable s
                     else if readable then handle_readable s))
        done;
        (* drain stragglers: whatever was in flight when the window
           closed still counts (scheduled-time latency) *)
        let drain_deadline = Unix.gettimeofday () +. 5.0 in
        let inflight_left () =
          Array.exists (fun s -> s.inflight) pool
        in
        while inflight_left () && Unix.gettimeofday () < drain_deadline do
          ignore
            (Evloop.wait evloop ~timeout_ms:50
               ~f:(fun fd ~readable ~writable:_ ~error ->
                 match Hashtbl.find_opt by_fd (Evloop.fd_int fd) with
                 | None -> ()
                 | Some s ->
                     if error || readable then handle_readable s))
        done;
        Array.iter
          (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
          pool;
        let wall = Unix.gettimeofday () -. t0 in
        {
          sessions = n;
          requested_sessions = sessions;
          target_rate = rate;
          duration = wall;
          sent = !sent;
          received = !received;
          send_errors = !send_errors;
          golden_mismatches = !mismatches;
          achieved_rate = (if wall > 0.0 then float_of_int !received /. wall else 0.0);
          p50_ms = Histogram.p50 hist *. 1000.0;
          p99_ms = Histogram.p99 hist *. 1000.0;
          max_ms = Histogram.max_value hist *. 1000.0;
        })
  end
