(* The front end the ssdb_* binaries share: one definition of each
   common flag, the numeric column's path, a database's manifest, and
   the one serve loop of ssdb_server and ssdb_router. *)

open Cmdliner
module Obs = Secshare_obs
module Node_table = Secshare_store.Node_table
module Server = Secshare_rpc.Server
module Manifest = Secshare_shard.Manifest
module Ring = Secshare_poly.Ring

(* Exit codes: 124 (cmdliner's) when the command line itself is wrong,
   1 when a run fails on a file, a socket or a document, so a script
   can tell a mistyped flag from a dead server. *)

(* A command-line error: cmdliner prints it and exits 124. *)
let usage_err fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

(* A runtime failure: "<binary>: <message>" on stderr, exit 1. *)
let err fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "%s: %s\n%!"
        (Filename.remove_extension (Filename.basename Sys.executable_name))
        m;
      `Ok 1)
    fmt

(* --- files --- *)

let db_path =
  Arg.(
    value & opt string "secshare.db"
    & info [ "db" ] ~docv:"FILE" ~doc:"Database file written by ssdb_encode.")

let map_path ~doc =
  Arg.(value & opt string "secshare.map" & info [ "map" ] ~docv:"FILE" ~doc)

let seed_path ~doc =
  Arg.(value & opt string "secshare.seed" & info [ "seed" ] ~docv:"FILE" ~doc)

let durable ~doc = Arg.(value & flag & info [ "durable" ] ~doc)

let trace_log ~spans =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-log" ] ~docv:"FILE"
        ~doc:(Printf.sprintf "Append every finished %s to FILE as JSON lines." spans))

let nums_path db_path = db_path ^ ".nums"

(* The numeric share column next to [db_path]; [Ok None] when there is
   none.  Callers decide whether an unreadable one is fatal. *)
let open_numbers ?durable db_path =
  let path = nums_path db_path in
  if not (Sys.file_exists path) then Ok None
  else Result.map Option.some (Node_table.open_file ?durable path)

(* The manifest ssdb_encode writes next to every database, and the
   field it names; without an admissible one nothing else opens. *)
let load_manifest db_path =
  let path = Manifest.manifest_path db_path in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no manifest %s: re-encode the document with ssdb_encode" path)
  else
    Result.bind (Manifest.load path) (fun m ->
        match Ring.checked ~p:m.Manifest.p ~e:m.Manifest.e with
        | Ok ring -> Ok (m, ring)
        | Error msg -> Error (Printf.sprintf "manifest %s: %s" path msg))

(* --- connections --- *)

let max_retries ~default ~doc =
  Arg.(value & opt int default & info [ "max-retries" ] ~docv:"N" ~doc)

let max_cursors =
  Arg.(
    value & opt int 1024
    & info [ "max-cursors" ] ~docv:"N"
        ~doc:"Cap on concurrently open scan cursors (LRU eviction past it).")

(* --- the serve loop --- *)

type listener = {
  socket : string;
  send_timeout : float;
  metrics_port : int;
  log_level : string;
  trace_log : string option;
}

(* The flags of a serving binary: its socket's default, whose spans
   [--trace-log] records, and what its /healthz checks beyond the
   drain. *)
let listener ~socket ~spans ~healthz =
  let socket =
    Arg.(
      value & opt string socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")
  in
  let send_timeout =
    Arg.(
      value & opt float 0.0
      & info [ "send-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Disconnect a client whose response has been stuck part-written in the \
             connection's output buffer for this long (a reader that stopped \
             reading).  0 (the default) never disconnects on write stalls.")
  in
  let metrics_port =
    Arg.(
      value & opt int (-1)
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            (Printf.sprintf
               "Serve Prometheus text exposition on http://127.0.0.1:PORT/metrics and \
                a drain-aware health check on /healthz%s.  0 binds an ephemeral port \
                (printed at startup); negative (the default) disables the endpoint."
               healthz))
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Stderr event-log level: $(b,error), $(b,info) or $(b,debug).")
  in
  Term.(
    const (fun socket send_timeout metrics_port log_level trace_log ->
        { socket; send_timeout; metrics_port; log_level; trace_log })
    $ socket $ send_timeout $ metrics_port $ log_level $ trace_log ~spans)

type service = {
  connection :
    unit ->
    (Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response) * (unit -> unit);
      (** one connection's handler and close hook *)
  healthy : unit -> bool;  (** the binary's own /healthz rule *)
  announce : string -> unit;  (** startup lines, once the given socket listens *)
  shutdown : Server.stats -> string;
      (** release the service after the drain; returns the final report *)
}

(* Set up the event log, open the service with [start] (a refusal
   leaves no trace log and no socket behind), open the trace log, then
   serve it on the listener's socket (and /metrics + /healthz) until
   SIGINT or SIGTERM, drain, and print the service's final report. *)
let serve l ~start =
  match Obs.Events.level_of_string l.log_level with
  | Result.Error m -> usage_err "%s" m
  | Result.Ok level -> (
      Obs.Events.set_level level;
      match start () with
      | Result.Error m -> err "%s" m
      | Result.Ok service ->
          Obs.Trace.set_log_file l.trace_log;
          let draining = ref false in
          let started = Unix.gettimeofday () in
          Obs.Registry.gauge_fn ~help:"Seconds since this server started."
            "ssdb_server_uptime_seconds" (fun () -> Unix.gettimeofday () -. started);
          Obs.Registry.gauge_fn
            ~help:"1 while the server is draining connections, else 0."
            "ssdb_server_draining"
            (fun () -> if !draining then 1.0 else 0.0);
          let http =
            if l.metrics_port < 0 then None
            else
              match
                Obs.Metrics_http.start ~port:l.metrics_port
                  ~healthy:(fun () -> (not !draining) && service.healthy ())
                  ()
              with
              | http ->
                  Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
                    (Obs.Metrics_http.port http);
                  Some http
              | exception Unix.Unix_error (errno, _, _) ->
                  Printf.eprintf "metrics port %d: %s\n%!" l.metrics_port
                    (Unix.error_message errno);
                  None
          in
          let send_timeout = if l.send_timeout > 0.0 then Some l.send_timeout else None in
          let server =
            Server.start_sessions ?send_timeout ~path:l.socket
              ~session:(fun () ->
                let on_request, on_close = service.connection () in
                { Server.on_request; on_close })
              ()
          in
          service.announce l.socket;
          let stop = ref false in
          Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
          Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
          while not !stop do
            Unix.sleepf 0.2
          done;
          (* flip /healthz to 503 before the drain so load balancers
             stop routing here while in-flight requests finish *)
          draining := true;
          Server.stop server;
          let report = service.shutdown (Server.stats server) in
          (* the metrics endpoint outlives the RPC drain so a final
             scrape can observe the drained state *)
          Option.iter Obs.Metrics_http.stop http;
          Obs.Trace.set_log_file None;
          print_string report;
          `Ok 0)
