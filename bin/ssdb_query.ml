(* CLI: run queries against an encoded database — either a local
   database file or a remote server over a Unix-domain socket. *)

open Cmdliner

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Metrics = Secshare_core.Metrics
module Obs = Secshare_obs
module Ring = Secshare_poly.Ring
module Manifest = Secshare_shard.Manifest

let err = Cli.err

let report ~explain ~trace query result =
  let r : DB.query_result = result in
  Printf.printf "query: %s\n" query;
  if trace then Printf.printf "trace: %s\n" (Obs.Span.trace_id_to_hex r.DB.trace_id);
  (match r.DB.value with
  | QC.Nodes nodes ->
      Printf.printf "matches (%d): %s\n" (List.length nodes)
        (String.concat ", "
           (List.map
              (fun (m : Secshare_rpc.Protocol.node_meta) ->
                string_of_int m.Secshare_rpc.Protocol.pre)
              nodes))
  | QC.Count n -> Printf.printf "count: %d\n" n
  | QC.Sum v -> Printf.printf "sum: %s\n" (Secshare_core.Qnum.to_string v)
  | QC.Avg v -> Printf.printf "avg: %s\n" (Secshare_core.Qnum.to_string v));
  Printf.printf
    "time: %.3f s | evaluations: %d | equality tests: %d | reconstructions: %d | rpc: %d calls, %d bytes\n"
    r.DB.seconds r.DB.metrics.Metrics.evaluations r.DB.metrics.Metrics.equality_tests
    r.DB.metrics.Metrics.reconstructions r.DB.rpc_calls r.DB.rpc_bytes;
  if explain then begin
    Printf.printf "plan: %s\n"
      (String.concat " -> "
         (List.map (fun (s : Metrics.op_stats) -> s.Metrics.op_name) r.DB.operators));
    Format.printf "%a@." Metrics.pp_op_table r.DB.operators
  end

let run db_path socket_path map_path seed_path engine_name strictness_name timeout
    max_retries explain trace trace_log queries =
  let engine =
    match engine_name with
    | "simple" -> Ok DB.Simple
    | "advanced" -> Ok DB.Advanced
    | other -> Error ("unknown engine " ^ other)
  in
  let strictness =
    match strictness_name with
    | "strict" | "equality" -> Ok QC.Strict
    | "nonstrict" | "containment" -> Ok QC.Non_strict
    | other -> Error ("unknown strictness " ^ other)
  in
  match (engine, strictness) with
  | Error m, _ | _, Error m -> Cli.usage_err "%s" m
  | Ok engine, Ok strictness -> (
      (* the field is the one the map's q header names *)
      let field m = Ring.of_order (Secshare_core.Mapping.field_order m) in
      match Secshare_core.Mapping.load map_path with
      | Error m -> err "map: %s" m
      | Ok mapping -> (
          match (field mapping, Secshare_prg.Seed.load seed_path) with
          | Error m, _ -> err "map: %s" m
          | _, Error m -> err "seed: %s" m
          | Ok ring, Ok seed -> (
              Obs.Trace.set_log_file trace_log;
              let client = { DB.default_client_config with timeout; max_retries } in
              let p = ring.Ring.characteristic and e = ring.Ring.degree in
              let with_db db =
                Fun.protect
                  ~finally:(fun () -> DB.close db)
                  (fun () ->
                    let failures = ref 0 in
                    List.iter
                      (fun q ->
                        match DB.query ~engine ~strictness db q with
                        | Ok result -> report ~explain ~trace q result
                        | Error m ->
                            incr failures;
                            Printf.eprintf "query %s failed: %s\n%!" q m)
                      queries;
                    `Ok (if !failures > 0 then 1 else 0))
              in
              match socket_path with
              | Some path -> (
                  match DB.connect ~client ~p ~e ~mapping ~seed ~path () with
                  | Error m -> err "connect: %s" m
                  | Ok db -> with_db db)
              | None -> (
                  let ( let* ) = Result.bind in
                  let opened =
                    (* the check a server's handshake gets, on the
                       manifest next to the database *)
                    let* m, _ = Cli.load_manifest db_path in
                    let path = Manifest.manifest_path db_path in
                    let* () =
                      DB.check_manifest ring (Manifest.to_info m)
                      |> Result.map_error (Printf.sprintf "manifest %s: %s" path)
                    in
                    let* table =
                      Result.map_error (( ^ ) "database: ")
                        (Secshare_store.Node_table.open_file db_path)
                    in
                    let* numbers =
                      Result.map_error (( ^ ) "numeric column: ")
                        (Cli.open_numbers db_path)
                    in
                    DB.of_parts ~client ~mapping ~seed ~table ?numbers ()
                  in
                  match opened with Error m -> err "%s" m | Ok db -> with_db db))))

let socket_path =
  Arg.(
    value & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET" ~doc:"Query a remote ssdb_server instead.")

let engine_arg =
  Arg.(
    value & opt string "advanced"
    & info [ "engine" ] ~docv:"NAME" ~doc:"Query engine: simple or advanced.")

let strictness_arg =
  Arg.(
    value & opt string "strict"
    & info [ "test" ] ~docv:"NAME"
        ~doc:"Matching test: strict (equality) or nonstrict (containment).")

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-RPC deadline for remote queries (with --connect).")

let max_retries_arg =
  Cli.max_retries ~default:0
    ~doc:
      "Retry failed idempotent RPCs up to N times with exponential backoff, \
       reconnecting a dead socket (with --connect)."

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the executed plan and a per-operator table (rows in/out, batches, \
           evaluation pairs, RPC calls/bytes, cumulative wall time) after each query.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print each query's trace id (hex).  The same id rides every RPC frame the \
           query sends, so a server started with --trace-log records its spans under \
           it.")

let queries =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"QUERY"
        ~doc:
          "XPath queries: location paths ($(b,/site//item)) or aggregates over one \
           ($(b,count(//item)), $(b,sum(//price)), $(b,avg(//price))).")

let cmd =
  let doc = "query an encrypted share database" in
  Cmd.v (Cmd.info "ssdb_query" ~doc)
    Term.(
      ret
        (const run $ Cli.db_path $ socket_path
        $ Cli.map_path ~doc:"Map file."
        $ Cli.seed_path ~doc:"Seed file."
        $ engine_arg $ strictness_arg $ timeout_arg $ max_retries_arg
        $ explain_arg $ trace_arg
        $ Cli.trace_log ~spans:"client-side span (query, operators, RPCs)"
        $ queries))

let () = exit (Cmd.eval' cmd)
