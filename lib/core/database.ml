module Ring = Secshare_poly.Ring
module Node_table = Secshare_store.Node_table
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Ast = Secshare_xpath.Ast
module Obs = Secshare_obs

type rpc_mode = Per_node | Batched | Fused

type client_config = {
  rpc_mode : rpc_mode;
  share_cache : int;
  timeout : float option;
  max_retries : int;
  cursor_ttl : float option;
  max_cursors : int;
  slow_query_ms : float option;
}

let default_client_config =
  {
    rpc_mode = Fused;
    share_cache = 4096;
    timeout = None;
    max_retries = 0;
    cursor_ttl = None;
    max_cursors = 1024;
    slow_query_ms = None;
  }

type config = {
  p : int;
  e : int;
  trie : Secshare_trie.Expand.mode option;
  seed : Secshare_prg.Seed.t option;
  mapping : [ `From_document | `From_dtd of Secshare_xml.Dtd.t | `Explicit of Mapping.t ];
  page_size : int;
  client : client_config;
}

let default_config =
  {
    p = 83;
    e = 1;
    trie = None;
    seed = None;
    mapping = `From_document;
    page_size = 8192;
    client = default_client_config;
  }

(* Process-wide client-side query families: each query's
   [Metrics.total] of its operator rows is added after it finishes. *)
let obs_client_queries =
  Obs.Registry.counter ~help:"Queries executed by this process's clients."
    "ssdb_client_queries_total"

let obs_query_seconds =
  Obs.Registry.histogram ~help:"End-to-end query latency in seconds."
    "ssdb_client_query_seconds"

let obs_evaluations =
  Obs.Registry.counter ~help:"Containment evaluation pairs (figure 5's quantity)."
    "ssdb_client_evaluations_total"

let obs_equality_tests =
  Obs.Registry.counter ~help:"Equality tests performed."
    "ssdb_client_equality_tests_total"

let obs_reconstructions =
  Obs.Registry.counter ~help:"Full polynomial reconstructions for equality tests."
    "ssdb_client_reconstructions_total"

let obs_nodes_examined =
  Obs.Registry.counter ~help:"Candidate nodes inspected."
    "ssdb_client_nodes_examined_total"

let obs_degenerate_divisions =
  Obs.Registry.counter ~help:"Equality tests aborted on a zero child product."
    "ssdb_client_degenerate_divisions_total"

(* Field-exhaustive on purpose, like [Metrics.add]: a new counter that
   is not mirrored here fails to compile. *)
let mirror_query_metrics
    {
      Metrics.evaluations;
      equality_tests;
      reconstructions;
      nodes_examined;
      degenerate_divisions;
    } =
  Obs.Registry.inc ~by:evaluations obs_evaluations;
  Obs.Registry.inc ~by:equality_tests obs_equality_tests;
  Obs.Registry.inc ~by:reconstructions obs_reconstructions;
  Obs.Registry.inc ~by:nodes_examined obs_nodes_examined;
  Obs.Registry.inc ~by:degenerate_divisions obs_degenerate_divisions

type engine = Simple | Advanced

(* The server half a handle owns when it is local (in-process
   transport or a bundle opened from disk).  A remote handle
   ([connect]) has none: its server lives across the socket. *)
type local = {
  table : Node_table.t;
  numbers : Node_table.t option;  (** numeric share column (aggregation) *)
  server : Server_filter.t;
  encode_stats : Encode.stats;
}

type t = {
  ring : Ring.t;
  map : Mapping.t;
  seed : Secshare_prg.Seed.t;
  filter : Client_filter.t;
  fused : bool;  (** lower with the first sieve point inside each scan *)
  local : local option;
}

type query_result = {
  value : Query_common.value;
  metrics : Metrics.t;
  operators : Metrics.op_stats list;
  rpc_calls : int;
  rpc_bytes : int;
  seconds : float;
  trace_id : int64;
}

let result_nodes r =
  match r.value with Query_common.Nodes nodes -> nodes | _ -> []

let local_exn t what =
  match t.local with
  | Some l -> l
  | None ->
      invalid_arg
        (Printf.sprintf "Database.%s: remote handle (no local server half)" what)

let build_mapping config ~q tree =
  let base =
    match config.mapping with
    | `Explicit m -> Ok m
    | `From_dtd dtd -> Mapping.of_dtd ~q dtd
    | `From_document -> Mapping.of_tree ~q tree
  in
  match (base, config.trie) with
  | (Error _ as e), _ -> e
  | (Ok _ as ok), None -> ok
  | Ok m, Some _ -> Mapping.with_trie_alphabet m

(* The client half of every handle.  [rpc_mode] splits into the two
   places that act on it: the lowering fuses scans ([fused]) and the
   filter batches [Eval_batch] rounds ([batch_eval]). *)
let client_handle ~(client : client_config) ~ring ~map ~seed ~local transport =
  let filter =
    Client_filter.create ring ~seed ~batch_eval:(client.rpc_mode <> Per_node)
      ~share_cache:client.share_cache transport
  in
  { ring; map; seed; filter; fused = client.rpc_mode = Fused; local }

(* Assemble the in-process client/server pair every local constructor
   ends in: one server filter over the table, a local transport, and a
   caching client filter on top. *)
let assemble_local ~(client : client_config) ~ring ~map ~seed ~table ?numbers
    ~encode_stats () =
  let server =
    Server_filter.create ?cursor_ttl:client.cursor_ttl ~max_cursors:client.max_cursors
      ?slow_query_ms:client.slow_query_ms ?numbers ring table
  in
  client_handle ~client ~ring ~map ~seed
    ~local:(Some { table; numbers; server; encode_stats })
    (Transport.local ~handler:(Server_filter.handler server))

let create_tree ?(config = default_config) tree =
  match Ring.checked ~p:config.p ~e:config.e with
  | Error _ as e -> e
  | Ok ring -> (
      match build_mapping config ~q:ring.Ring.order tree with
      | Error _ as e -> e
      | Ok map -> (
          let seed =
            match config.seed with Some s -> Ok s | None -> Secshare_prg.Seed.generate ()
          in
          match seed with
          | Error _ as e -> e
          | Ok seed -> (
              let table = Node_table.create ~page_size:config.page_size () in
              let numbers = Node_table.create ~page_size:config.page_size () in
              match
                Encode.encode_tree ring ~mapping:map ~seed ~table ~numbers
                  ?trie:config.trie tree
              with
              | Error e -> Error (Encode.error_to_string e)
              | Ok encode_stats ->
                  Ok
                    (assemble_local ~client:config.client ~ring ~map ~seed ~table
                       ~numbers ~encode_stats ()))))

let zero_encode_stats =
  {
    Encode.nodes = 0;
    elements = 0;
    trie_nodes = 0;
    numeric_nodes = 0;
    max_depth = 0;
    duration_seconds = 0.0;
  }

(* The client's field is the one its map's [q] header names. *)
let ring_of_map map =
  Result.map_error (fun m -> "map: " ^ m) (Ring.of_order (Mapping.field_order map))

let of_parts ?(client = default_client_config) ~mapping:map ~seed ~table ?numbers () =
  match ring_of_map map with
  | Error _ as err ->
      Node_table.close table;
      Option.iter Node_table.close numbers;
      err
  | Ok ring ->
      Ok
        (assemble_local ~client ~ring ~map ~seed ~table ?numbers
           ~encode_stats:zero_encode_stats ())

let create ?config xml =
  match Secshare_xml.Tree.of_string xml with
  | Error msg -> Error ("XML parse error: " ^ msg)
  | Ok tree -> create_tree ?config tree

let create_file ?config path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> create ?config contents
  | exception Sys_error msg -> Error msg

let query_ast ?(engine = Advanced) ?(strictness = Query_common.Strict) ?agg t ast =
  (* one trace per query: the ambient id flows into every operator
     span and rides the frame header of every RPC the query makes *)
  let trace_id = Obs.Trace.genid () in
  let t0 = Unix.gettimeofday () in
  let outcome, operators =
    Obs.Trace.with_ambient trace_id (fun () ->
        Obs.Trace.with_span ~kind:Obs.Span.Client "query" (fun () ->
            (* a name with no map entry cannot occur in the document:
               answer the empty-set value without a single RPC, as
               plaintext XPath would *)
            if List.exists (fun n -> Mapping.value t.map n = None) (Ast.name_tests ast)
            then (Ok (Query_common.empty_value agg), [])
            else
              let lower =
                match engine with
                | Simple -> Simple_query.lower
                | Advanced -> Advanced_query.lower
              in
              match lower ?agg ~fused:t.fused ~mapping:t.map ~strictness ast with
              | plan -> Operator.run t.filter plan
              | exception Query_common.Query_error msg -> (Error msg, [])))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  (* the operator rows are the only counters: the query's totals are
     their sums, and a failed query's work counts too *)
  let metrics = Metrics.total operators in
  mirror_query_metrics metrics;
  Result.map
    (fun value ->
      let sum field = List.fold_left (fun acc s -> acc + field s) 0 operators in
      Obs.Registry.inc obs_client_queries;
      Obs.Histogram.observe obs_query_seconds seconds;
      {
        value;
        operators;
        metrics;
        rpc_calls = sum (fun s -> s.Metrics.rpc_calls);
        rpc_bytes = sum (fun s -> s.Metrics.rpc_bytes);
        seconds;
        trace_id;
      })
    outcome

(* Client-side aggregate admission: a [sum]/[avg] is refused before any
   RPC unless the path ends in a plain tag name whose every occurrence
   the encoder proved to be a numeric leaf.  An *unmapped* final name
   is fine — the engine short-circuits it to the empty-set value, the
   same semantics plaintext XPath gives a name the document cannot
   contain. *)
let validate_agg map func (q : Ast.query) =
  match func with
  | Ast.Count -> Ok ()
  | Ast.Sum | Ast.Avg -> (
      match List.rev q.Ast.path with
      | { Ast.test = Ast.Name _; contains = Some _; _ } :: _ ->
          Error
            (Printf.sprintf
               "%s() cannot aggregate over a contains() predicate step"
               (Ast.func_to_string func))
      | { Ast.test = Ast.Name name; _ } :: _ ->
          if Mapping.value map name = None then Ok ()
          else if Mapping.aggregatable_scale map name = None then
            Error
              (Printf.sprintf
                 "tag %S is not aggregatable (not every occurrence is a numeric leaf)"
                 name)
          else Ok ()
      | _ ->
          Error
            (Printf.sprintf "%s() needs a path ending in a tag name"
               (Ast.func_to_string func)))

let rewrite_parsed (q : Ast.query) =
  match Ast.rewrite_contains q.Ast.path with
  | rewritten -> Ok { q with Ast.path = rewritten }
  | exception Invalid_argument msg -> Error msg

let query ?engine ?strictness t q =
  match Secshare_xpath.Parser.parse_query q with
  | Error msg -> Error ("query parse error: " ^ msg)
  | Ok parsed -> (
      let admitted =
        match parsed.Ast.func with
        | None -> Ok ()
        | Some func -> validate_agg t.map func parsed
      in
      match admitted with
      | Error _ as e -> e
      | Ok () -> (
          match rewrite_parsed parsed with
          | Error _ as e -> e
          | Ok { Ast.func; path } -> query_ast ?engine ?strictness ?agg:func t path))

let accuracy ?engine t q =
  match query ?engine ~strictness:Query_common.Strict t q with
  | Error _ as e -> e
  | Ok strict -> (
      match query ?engine ~strictness:Query_common.Non_strict t q with
      | Error _ as e -> e
      | Ok loose ->
          let e_size = List.length (result_nodes strict)
          and c_size = List.length (result_nodes loose) in
          if c_size = 0 then Ok 1.0
          else Ok (float_of_int e_size /. float_of_int c_size))

type storage_stats = {
  rows : int;
  data_bytes : int;
  index_bytes : int;
  encode_stats : Encode.stats;
}

let storage_stats t =
  let local = local_exn t "storage_stats" in
  {
    rows = Node_table.row_count local.table;
    data_bytes = Node_table.data_bytes local.table;
    index_bytes = Node_table.index_bytes local.table;
    encode_stats = local.encode_stats;
  }

let mapping t = t.map
let ring t = t.ring
let seed t = t.seed
let client_filter t = t.filter
let table t = (local_exn t "table").table
let numbers_table t = (local_exn t "numbers_table").numbers
let is_remote t = t.local = None
let rpc_counters t = Client_filter.rpc_counters t.filter
let share_cache_stats t = Client_filter.share_cache_stats t.filter

let serve ?send_timeout t ~path =
  let local = local_exn t "serve" in
  (* session-scoped handlers so a dropped connection takes its open
     cursors with it *)
  Secshare_rpc.Server.start_sessions ?send_timeout ~path
    ~session:(fun () ->
      let on_request, on_close = Server_filter.connection local.server in
      { Secshare_rpc.Server.on_request; on_close })
    ()

let open_cursors t = Server_filter.open_cursors (local_exn t "open_cursors").server
let cursor_stats t = Server_filter.cursor_stats (local_exn t "cursor_stats").server
let sweep_cursors t = Server_filter.sweep_cursors (local_exn t "sweep_cursors").server

(* The caller's (p, e), admitted and held to the map's [q] header: a
   map of another field would fail every query inside the kernel. *)
let checked_ring ~p ~e map =
  match Ring.checked ~p ~e with
  | Ok ring when ring.Ring.order <> Mapping.field_order map ->
      Error
        (Printf.sprintf "field %d^%d = %d differs from the map's q = %d" p e
           ring.Ring.order (Mapping.field_order map))
  | checked -> checked

(* Whether a server with manifest [m] can answer this client alone.  A
   server of another field would fail mid-query and be blamed for it;
   one shard of a t > 1 deployment holds a Shamir share only its router
   can recombine, so every test would read "no match".  A router
   (shard 0) and a 1-of-1 server pass. *)
let check_manifest (ring : Ring.t) (m : Protocol.manifest_info) =
  if m.Protocol.p <> ring.Ring.characteristic || m.Protocol.e <> ring.Ring.degree then
    Error
      (Printf.sprintf "field %d^%d differs from the map's q = %d" m.Protocol.p
         m.Protocol.e ring.Ring.order)
  else if m.Protocol.shard_id >= 1 && m.Protocol.threshold > 1 then
    Error
      (Printf.sprintf
         "shard %d of a %d-of-%d deployment cannot answer alone: query its router"
         m.Protocol.shard_id m.Protocol.threshold m.Protocol.shards)
  else Ok ()

(* One [Manifest] handshake per connection, before the first query. *)
let check_server ring transport =
  match Transport.call transport Protocol.Manifest with
  | Protocol.Manifest_data m ->
      Result.map_error (fun msg -> "server: " ^ msg) (check_manifest ring m)
  | Protocol.Error_msg msg -> Error ("manifest handshake: " ^ msg)
  | response ->
      Error
        (Format.asprintf "manifest handshake: unexpected %a" Protocol.pp_response response)

(* A remote handle over [transport] once the server passes
   [check_server]; otherwise the transport is closed. *)
let remote_handle ~client ~ring ~mapping ~seed transport =
  match check_server ring transport with
  | Error _ as err ->
      Transport.close transport;
      err
  | Ok () -> Ok (client_handle ~client ~ring ~map:mapping ~seed ~local:None transport)

let of_transport ?(client = default_client_config) ~p ~e ~mapping ~seed transport =
  match checked_ring ~p ~e mapping with
  | Error _ as err ->
      Transport.close transport;
      err
  | Ok ring -> remote_handle ~client ~ring ~mapping ~seed transport

let connect ?(client = default_client_config) ~p ~e ~mapping ~seed ~path () =
  let policy =
    {
      Transport.default_policy with
      Transport.call_timeout = client.timeout;
      max_retries = client.max_retries;
    }
  in
  (* validate before the socket opens, so a bad (p, e) leaks nothing *)
  match checked_ring ~p ~e mapping with
  | Error _ as err -> err
  | Ok ring -> (
      match Transport.socket ~policy path with
      | Error msg -> Error ("connect: " ^ msg)
      | Ok transport -> remote_handle ~client ~ring ~mapping ~seed transport)

let close t =
  Client_filter.close t.filter;
  match t.local with
  | None -> ()
  | Some local ->
      Server_filter.close local.server;
      Node_table.close local.table;
      Option.iter Node_table.close local.numbers

(* --- bundles: a complete database persisted to a directory --- *)

let save_bundle ?durable ?checkpoint_every t ~dir =
  let local = local_exn t "save_bundle" in
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    (* copy the rows into a fresh page file *)
    let file_table =
      Node_table.create_file ?durable ?checkpoint_every (Filename.concat dir "shares.db")
    in
    Node_table.iter local.table ~f:(Node_table.insert file_table);
    Node_table.close file_table;
    Option.iter
      (fun numbers ->
        let file_nums =
          Node_table.create_file ?durable ?checkpoint_every
            (Filename.concat dir "nums.db")
        in
        Node_table.iter numbers ~f:(Node_table.insert file_nums);
        Node_table.close file_nums)
      local.numbers;
    Mapping.save (Filename.concat dir "client.map") t.map;
    Secshare_prg.Seed.save (Filename.concat dir "client.seed") t.seed
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | exception Sys_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* The map's field is checked before any table opens. *)
let open_bundle ?(client = default_client_config) ?durable ?checkpoint_every ~dir () =
  let ( let* ) = Result.bind in
  let path = Filename.concat dir in
  let* map = Result.map_error (( ^ ) "map: ") (Mapping.load (path "client.map")) in
  let* ring = ring_of_map map in
  let* seed =
    Result.map_error (( ^ ) "seed: ") (Secshare_prg.Seed.load (path "client.seed"))
  in
  let open_table name = Node_table.open_file ?durable ?checkpoint_every (path name) in
  let* table = Result.map_error (( ^ ) "shares: ") (open_table "shares.db") in
  let* numbers =
    if not (Sys.file_exists (path "nums.db")) then Ok None
    else
      match open_table "nums.db" with
      | Ok numbers -> Ok (Some numbers)
      | Error msg ->
          Node_table.close table;
          Error ("nums: " ^ msg)
  in
  Ok
    (assemble_local ~client ~ring ~map ~seed ~table ?numbers
       ~encode_stats:zero_encode_stats ())
