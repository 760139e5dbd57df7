(* Regression: a standalone server process must survive writing to a
   client that disconnected with its reply pending.

   The event loop writes with raw [Unix.write]; if nothing ignores
   SIGPIPE the first such write kills the whole process.  In-process
   tests mask that bug because the test client's own [Frame.send]
   installs the process-wide ignore — so the server here runs in a
   forked child with SIGPIPE at its lethal default disposition.

   This is its own executable (not a test_rpc case) because OCaml 5
   forbids [Unix.fork] once any domain has been spawned: the fork must
   happen before the first [Server.start] in the process.  Exit code 0
   = pass, 1 = fail. *)

module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Server = Secshare_rpc.Server
module Frame = Secshare_rpc.Frame

let handler : Protocol.request -> Protocol.response = function
  | Protocol.Eval_batch { pres; point } ->
      (* long enough for the client to close its socket before the
         reply write happens *)
      Unix.sleepf 0.3;
      Protocol.Values (List.map (fun pre -> pre + point) pres)
  | _ -> Protocol.Pong

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let () =
  let path = Filename.temp_file "ssdb-fork" ".sock" in
  Sys.remove path;
  let ready_r, ready_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* child: the standalone server.  Belt and braces: make sure
         SIGPIPE really is at default before the server starts, so the
         test fails if [Server.start_sessions] stops installing the
         ignore itself *)
      Unix.close ready_r;
      (try Sys.set_signal Sys.sigpipe Sys.Signal_default
       with Invalid_argument _ -> ());
      let _server = Server.start ~path ~handler in
      ignore (Unix.write ready_w (Bytes.make 1 '\000') 0 1);
      Unix.close ready_w;
      while true do
        Unix.sleepf 0.05
      done
  | child ->
      Unix.close ready_w;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Unix.read ready_r (Bytes.create 1) 0 1);
          Unix.close ready_r;
          (* first client: send a request whose reply takes 0.3s, then
             vanish before it arrives *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          Frame.send fd
            (Protocol.encode_request (Protocol.Eval_batch { pres = [ 1 ]; point = 1 }));
          Unix.close fd;
          (* give the server time to attempt the doomed write *)
          Unix.sleepf 0.6;
          (match Unix.waitpid [ Unix.WNOHANG ] child with
          | 0, _ -> ()
          | _, Unix.WSIGNALED n -> fail "server process died mid-write: signal %d" n
          | _, Unix.WEXITED n -> fail "server process died mid-write: exit %d" n
          | _, Unix.WSTOPPED n -> fail "server process stopped by signal %d" n);
          (* and it must still serve: a fresh client gets a reply *)
          (match Transport.socket path with
          | Error e -> fail "reconnect after disconnect mid-write: %s" e
          | Ok t ->
              (match
                 Transport.call t (Protocol.Eval_batch { pres = [ 40 ]; point = 2 })
               with
              | Protocol.Values [ 42 ] -> ()
              | r ->
                  fail "server broken after disconnect: %s"
                    (Format.asprintf "%a" Protocol.pp_response r));
              Transport.close t);
          print_endline "server survived disconnect mid-write")
