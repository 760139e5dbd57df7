(* CLI: serve a database file over a Unix-domain socket — the "big
   server" of figure 3.  The server holds only public material: shares
   and pre/post/parent numbers.

   Observability surface: [--metrics-port] serves Prometheus text
   exposition on GET /metrics and a drain-aware GET /healthz;
   [--slow-query-ms] logs one structured line per slow query lifetime;
   [--log-level] picks how chatty the stderr event log is;
   [--trace-log] appends every finished server-side span as JSONL. *)

open Cmdliner
module Obs = Secshare_obs
module Node_table = Secshare_store.Node_table
module Manifest = Secshare_shard.Manifest
module Server_filter = Secshare_core.Server_filter

let open_service db_path durable cursor_ttl max_cursors slow_query_ms () =
  let ( let* ) = Result.bind in
  let* m, ring = Cli.load_manifest db_path in
  let* table =
    Result.map_error (( ^ ) "database: ") (Node_table.open_file ~durable db_path)
  in
  (match Node_table.recovery_stats table with
  | None -> ()
  | Some r ->
      Obs.Events.info
        "wal recovery: %d page images and %d rows replayed (%d log records, %d torn \
         bytes discarded)"
        r.Node_table.redo_pages r.Node_table.redo_rows r.Node_table.wal_records
        r.Node_table.discarded_bytes;
      Printf.printf
        "recovered %s: %d page images, %d rows replayed from the write-ahead log\n%!"
        db_path r.Node_table.redo_pages r.Node_table.redo_rows);
  let cursor_ttl = if cursor_ttl > 0.0 then Some cursor_ttl else None in
  let slow_query_ms = if slow_query_ms > 0.0 then Some slow_query_ms else None in
  (* the numeric share column lives next to the polynomial table;
     without it sum()/avg() queries fail server-side with a clear
     message, count() still works *)
  let numbers =
    match Cli.open_numbers ~durable db_path with
    | Ok None -> None
    | Ok (Some t) ->
        Printf.printf "numeric column %s (%d rows)\n%!" (Cli.nums_path db_path)
          (Node_table.row_count t);
        Some t
    | Error msg ->
        Printf.eprintf "ignoring %s: %s\n%!" (Cli.nums_path db_path) msg;
        None
  in
  let filter =
    Server_filter.create ?cursor_ttl ~max_cursors ?slow_query_ms
      ~manifest:(Manifest.to_info m) ?numbers ring table
  in
  Ok
    {
      Cli.connection = (fun () -> Server_filter.connection filter);
      healthy = (fun () -> true);
      announce =
        (fun socket ->
          let rows = Node_table.row_count table in
          Obs.Events.info "serving db=%s rows=%d socket=%s" db_path rows socket;
          Printf.printf "serving %s (%d rows, field %d^%d, shard %d of %d) on %s\n%!"
            db_path rows m.Manifest.p m.Manifest.e m.Manifest.shard_id m.Manifest.shards
            socket);
      shutdown =
        (fun srv ->
          let cur = Server_filter.cursor_stats filter in
          Server_filter.close filter;
          Node_table.close table;
          Option.iter Node_table.close numbers;
          Printf.sprintf
            "server stopped: %d connections, %d requests, %d accept errors; cursors: %d \
             open, %d evicted (%d by ttl)\n"
            srv.Secshare_rpc.Server.connections_accepted
            srv.Secshare_rpc.Server.requests_handled srv.Secshare_rpc.Server.accept_errors
            cur.Server_filter.open_cursors cur.Server_filter.evicted_cursors
            cur.Server_filter.expired_cursors);
    }

let run db_path durable cursor_ttl max_cursors slow_query_ms listener =
  Cli.serve listener
    ~start:(open_service db_path durable cursor_ttl max_cursors slow_query_ms)

let durable_arg =
  Cli.durable
    ~doc:
      "Keep the database's write-ahead log attached after opening (crash recovery \
       runs either way; this keeps future writes crash-safe too)."

let cursor_ttl_arg =
  Arg.(
    value & opt float 300.0
    & info [ "cursor-ttl" ] ~docv:"SECONDS"
        ~doc:"Evict scan cursors idle longer than this; 0 disables the TTL.")

let slow_query_ms_arg =
  Arg.(
    value & opt float 0.0
    & info [ "slow-query-ms" ] ~docv:"MS"
        ~doc:
          "Log one structured line per query lifetime that took at least MS \
           milliseconds (trace id, opcode mix, batch/row/byte counts, duration — \
           never query content).  0 disables the slow-query log.")

let cmd =
  let doc = "serve an encrypted share database over a Unix-domain socket" in
  Cmd.v (Cmd.info "ssdb_server" ~doc)
    Term.(
      ret
        (const run $ Cli.db_path $ durable_arg $ cursor_ttl_arg
       $ Cli.max_cursors $ slow_query_ms_arg
       $ Cli.listener ~socket:"/tmp/secshare.sock" ~spans:"server-side span"
           ~healthz:""))

let () = exit (Cmd.eval' cmd)
