(* The streaming operator pipeline: golden results for the paper's
   §5.3 queries, engine/config agreement (fused, unfused, per-node),
   pinned counters that agree across deployments, property tests
   against the plaintext reference, plan lowering shapes, cursor
   teardown, and the --explain counters. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Plan = Secshare_core.Plan
module Operator = Secshare_core.Operator
module Client_filter = Secshare_core.Client_filter
module Server_filter = Secshare_core.Server_filter
module Metrics = Secshare_core.Metrics
module Reference = Secshare_core.Reference
module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Generate = Secshare_xmark.Generate
module Node_table = Secshare_store.Node_table
module Split = Secshare_shard.Split
module Manifest = Secshare_shard.Manifest
module Router = Secshare_shard.Router
module Parser = Secshare_xpath.Parser
module Ast = Secshare_xpath.Ast

let check = Alcotest.check

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let pres = Test_support.pres_of_metas
let parse = Parser.parse_exn

let xmark_doc = lazy (Generate.generate_bytes ~seed:20050905L ~target_bytes:30_000 ())
let xmark_db = lazy (Test_support.db_of_tree (Lazy.force xmark_doc))

let client_with rpc_mode = { DB.default_client_config with rpc_mode }

let db_with rpc_mode tree =
  let config =
    {
      DB.default_config with
      seed = Some Test_support.test_seed;
      client = client_with rpc_mode;
    }
  in
  match DB.create_tree ~config tree with
  | Ok db -> db
  | Error msg -> failwith ("db_with: " ^ msg)

let query_pres db ~engine ~strictness q =
  DB.result_nodes (Test_support.must_query ~engine ~strictness db q) |> pres

(* --- golden results for the five queries of table 2 (§5.3/§6.3) --- *)

(* Captured from the pre-pipeline engines on this exact document and
   seed; the streaming rewrite must reproduce them bit for bit. *)
let golden =
  [
    ("/site//europe/item", QC.Strict, [ 92; 113 ]);
    ("/site//europe/item", QC.Non_strict, [ 3; 31; 64; 91; 92; 113; 139; 170 ]);
    ("/site//europe//item", QC.Strict, [ 92; 113 ]);
    ( "/site//europe//item",
      QC.Non_strict,
      [ 3; 4; 16; 31; 32; 48; 64; 65; 76; 91; 92; 113; 139; 140; 160; 170; 171; 187 ] );
    ("/site/*/person//city", QC.Strict, [ 226; 246; 261; 278; 293; 319; 328 ]);
    ( "/site/*/person//city",
      QC.Non_strict,
      [ 224; 226; 244; 246; 259; 261; 276; 278; 291; 293; 317; 319; 326; 328 ] );
    ("/*/*/open_auction/bidder/date", QC.Strict, [ 337; 342; 347; 352; 370; 391; 410; 415 ]);
    ( "/*/*/open_auction/bidder/date",
      QC.Non_strict,
      [ 337; 342; 347; 352; 370; 391; 410; 415 ] );
    ("//bidder/date", QC.Strict, [ 337; 342; 347; 352; 370; 391; 410; 415 ]);
    ( "//bidder/date",
      QC.Non_strict,
      [
        2; 332; 333; 336; 337; 341; 342; 346; 347; 351; 352; 367; 369; 370; 388; 390;
        391; 406; 409; 410; 414; 415; 437;
      ] );
  ]

let test_golden_results () =
  let db = Lazy.force xmark_db in
  List.iter
    (fun (q, strictness, expected) ->
      List.iter
        (fun (name, engine) ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%s (%s)" q name)
            expected
            (query_pres db ~engine ~strictness q))
        [ ("simple", DB.Simple); ("advanced", DB.Advanced) ])
    golden

(* --- the three protocol configurations agree; fused halves the trips --- *)

let test_config_agreement () =
  let doc = Lazy.force xmark_doc in
  let fused = db_with DB.Fused doc in
  let batched = db_with DB.Batched doc in
  let per_node = db_with DB.Per_node doc in
  List.iter
    (fun (q, strictness, expected) ->
      List.iter
        (fun (_, engine) ->
          let rf = Test_support.must_query ~engine ~strictness fused q in
          let rb = Test_support.must_query ~engine ~strictness batched q in
          let rn = Test_support.must_query ~engine ~strictness per_node q in
          check Alcotest.(list int) (q ^ " fused") expected (pres (DB.result_nodes rf));
          check Alcotest.(list int) (q ^ " batched") expected (pres (DB.result_nodes rb));
          check Alcotest.(list int) (q ^ " per-node") expected (pres (DB.result_nodes rn)))
        [ ("simple", DB.Simple); ("advanced", DB.Advanced) ])
    golden;
  (* the acceptance bar for the fused protocol on the §5.3 chain
     queries: both modes send the same scans, and the simple engine's
     fused plan absorbs every one of the batched plan's [Eval_batch]
     rounds into them *)
  let eval_rounds (r : DB.query_result) =
    List.fold_left
      (fun acc (s : Metrics.op_stats) ->
        if String.starts_with ~prefix:"filter-containment" s.Metrics.op_name then
          acc + s.Metrics.rpc_calls
        else acc)
      0 r.DB.operators
  in
  List.iter
    (fun q ->
      List.iter
        (fun (name, engine) ->
          let rf = Test_support.must_query ~engine ~strictness:QC.Non_strict fused q in
          let rb = Test_support.must_query ~engine ~strictness:QC.Non_strict batched q in
          check Alcotest.(list int)
            (q ^ " fused = batched (" ^ name ^ ")")
            (pres (DB.result_nodes rb)) (pres (DB.result_nodes rf));
          (* the simple engine saves every evaluation round trip; the
             advanced engine spends most trips on look-ahead
             Eval_batch rounds that fusion cannot absorb, so it only
             has to win *)
          let bar =
            rf.DB.rpc_calls < rb.DB.rpc_calls
            && (engine = DB.Advanced
               || rf.DB.rpc_calls = rb.DB.rpc_calls - eval_rounds rb)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s): fused calls (%d) beat batched (%d)" q name
               rf.DB.rpc_calls rb.DB.rpc_calls)
            true bar)
        [ ("simple", DB.Simple); ("advanced", DB.Advanced) ])
    [
      "/site/regions";
      "/site/regions/europe/item";
      "/site/regions/europe/item/description/parlist";
      "/site/regions/europe/item/description/parlist/listitem/text/keyword";
    ]

(* --- counters: pinned, and independent of the deployment --- *)

(* The paper's counters and the query's RPC totals, one line per
   golden query, strictness and engine. *)
let counter_lines db =
  List.concat_map
    (fun (q, strictness, _) ->
      List.map
        (fun engine ->
          let r = Test_support.must_query ~engine ~strictness db q in
          let m = r.DB.metrics in
          Printf.sprintf "%s %s %s: evals=%d eqs=%d recons=%d examined=%d degenerate=%d \
                          calls=%d bytes=%d"
            q
            (if engine = DB.Simple then "simple" else "advanced")
            (if strictness = QC.Strict then "strict" else "non-strict")
            m.Metrics.evaluations m.Metrics.equality_tests m.Metrics.reconstructions
            m.Metrics.nodes_examined m.Metrics.degenerate_divisions r.DB.rpc_calls
            r.DB.rpc_bytes)
        [ DB.Simple; DB.Advanced ])
    golden

(* Digest of the in-process [counter_lines] of every client
   configuration, in [Test_support.rpc_modes] order.  A mismatch means some
   count moved; the failing run prints the lines it digested. *)
let pinned_counters_digest = "5f783f33ce986bd9171013e63ac372e4"

(* The same database behind a 2-of-3 Shamir router over in-process
   shard servers. *)
let routed_transport db =
  let ring = DB.ring db in
  let tables = Array.init 3 (fun _ -> Node_table.create ()) in
  let manifests =
    Split.split_table ring ~threshold:2 ~shards:3
      ~dealer_seed:(Secshare_prg.Seed.of_passphrase "counter-dealer")
      ~source:(DB.table db) ~sinks:tables
  in
  let shards =
    List.init 3 (fun i ->
        Transport.local
          ~handler:
            (Server_filter.handler
               (Server_filter.create ~manifest:(Manifest.to_info manifests.(i)) ring
                  tables.(i))))
  in
  match Router.of_transports ring shards with
  | Ok router -> (router, Transport.local ~handler:(Router.handler router))
  | Error e -> failwith ("router: " ^ e)

let test_counters_pinned_across_deployments () =
  let doc = Lazy.force xmark_doc in
  let served = Lazy.force xmark_db in
  let path = Filename.temp_file "ssdb-counters" ".sock" in
  Sys.remove path;
  let server = DB.serve served ~path in
  let router, routed = routed_transport served in
  let mapping = DB.mapping served and seed = DB.seed served in
  let must = function Ok db -> db | Error e -> failwith e in
  let counter_lines_closing db =
    Fun.protect ~finally:(fun () -> DB.close db) (fun () -> counter_lines db)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      Secshare_rpc.Server.stop server)
    (fun () ->
      let in_process =
        List.concat_map
          (fun (name, rpc_mode) ->
            let client = client_with rpc_mode in
            let local = counter_lines_closing (db_with rpc_mode doc) in
            let socket =
              counter_lines_closing
                (must (DB.connect ~client ~p:83 ~e:1 ~mapping ~seed ~path ()))
            in
            let through_router =
              counter_lines_closing
                (must (DB.of_transport ~client ~p:83 ~e:1 ~mapping ~seed routed))
            in
            check Alcotest.(list string) (name ^ ": socket = in-process") local socket;
            check Alcotest.(list string)
              (name ^ ": 2-of-3 router = in-process")
              local through_router;
            local)
          Test_support.rpc_modes
      in
      let digest = Digest.to_hex (Digest.string (String.concat "\n" in_process)) in
      if digest <> pinned_counters_digest then
        List.iter prerr_endline in_process;
      check Alcotest.string "in-process counters match the pinned digest"
        pinned_counters_digest digest)

(* --- lowering shapes --- *)

let test_plan_shapes () =
  let db = Lazy.force xmark_db in
  let mapping = DB.mapping db in
  let chain = parse "/site/regions/europe" in
  let fused_plan =
    Secshare_core.Simple_query.lower ~fused:true ~mapping ~strictness:QC.Non_strict chain
  in
  let unfused_plan =
    Secshare_core.Simple_query.lower ~fused:false ~mapping ~strictness:QC.Non_strict chain
  in
  (* fused: every name test rides in its scan, no separate filters *)
  Alcotest.(check bool)
    "fused chain plan has no containment filters" true
    (List.for_all
       (function Plan.Filter_containment _ -> false | _ -> true)
       fused_plan);
  Alcotest.(check bool)
    "fused chain plan evals inside every scan" true
    (List.for_all
       (function Plan.Scan { eval; _ } -> eval <> None | _ -> true)
       fused_plan);
  (* unfused: scans are bare, each step filters separately *)
  Alcotest.(check bool)
    "unfused chain plan has bare scans" true
    (List.for_all
       (function Plan.Scan { eval; _ } -> eval = None | _ -> true)
       unfused_plan);
  check Alcotest.int "unfused chain plan has one filter per step" 3
    (List.length
       (List.filter (function Plan.Filter_containment _ -> true | _ -> false) unfused_plan));
  (* the advanced engine turns // into a pruned walk carrying the
     look-ahead points of the remaining query *)
  let adv =
    Secshare_core.Advanced_query.lower ~fused:true ~mapping ~strictness:QC.Strict
      (parse "//bidder/date")
  in
  (match
     List.find_opt (function Plan.Pruned_scan _ -> true | _ -> false) adv
   with
  | Some (Plan.Pruned_scan { eval; prune; include_self }) ->
      Alcotest.(check bool) "first // includes self" true include_self;
      check
        Alcotest.(option int)
        "fused: the own point rides in the walk's scans"
        (Secshare_core.Mapping.value mapping "bidder")
        eval;
      check Alcotest.int "eval + prune carry own + look-ahead points" 2
        (List.length (Option.to_list eval @ prune))
  | _ -> Alcotest.fail "advanced // plan lost its pruned scan");
  (* unfused, the walk's scans are bare and every point prunes *)
  (match
     Secshare_core.Advanced_query.lower ~fused:false ~mapping ~strictness:QC.Strict
       (parse "//bidder/date")
     |> List.find_opt (function Plan.Pruned_scan _ -> true | _ -> false)
   with
  | Some (Plan.Pruned_scan { eval; prune; _ }) ->
      check Alcotest.(option int) "unfused walk has no eval" None eval;
      check Alcotest.int "unfused prune carries every point" 2 (List.length prune)
  | _ -> Alcotest.fail "unfused advanced // plan lost its pruned scan");
  (* strict mode never fuses the simple engine's test into the scan:
     the equality test has no containment sieve to ride on *)
  let strict_plan =
    Secshare_core.Simple_query.lower ~fused:true ~mapping ~strictness:QC.Strict chain
  in
  Alcotest.(check bool)
    "strict simple plan keeps bare scans + equality filters" true
    (List.for_all
       (function
         | Plan.Scan { eval; _ } -> eval = None
         | Plan.Filter_equality _ | Plan.Dedup -> true
         | _ -> false)
       strict_plan)

(* --- property: pipeline engines agree with the reference on //-free
       queries over random documents --- *)

let gen_child_query : Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_range 1 4 in
  let step_gen =
    let* test =
      oneof
        [
          map (fun n -> Ast.Name n) (oneofl Test_support.small_tags);
          return Ast.Any;
        ]
    in
    return { Ast.axis = Ast.Child; test; contains = None }
  in
  list_repeat len step_gen

let gen_tree_and_query =
  QCheck2.Gen.pair Test_support.gen_tree gen_child_query

let prop_child_queries_match_reference (tree, query) =
  let fused = db_with DB.Fused tree in
  let unfused = db_with DB.Batched tree in
  let expected_strict = Reference.run tree query in
  let expected_loose = Reference.run ~semantics:Reference.Containment tree query in
  let run db engine strictness =
    match DB.query_ast ~engine ~strictness db query with
    | Ok r -> pres (DB.result_nodes r)
    | Error msg -> failwith msg
  in
  List.for_all
    (fun db ->
      run db DB.Simple QC.Strict = expected_strict
      && run db DB.Advanced QC.Strict = expected_strict
      && run db DB.Simple QC.Non_strict = expected_loose
      && run db DB.Advanced QC.Non_strict = expected_loose)
    [ fused; unfused ]

(* --- cursor teardown --- *)

(* A database's parts rewired through a client filter with tiny
   batches, so multi-batch scans (and therefore server cursors) appear
   even on small documents. *)
let small_batch_parts ?(wrap = fun h -> h) () =
  let db = Lazy.force xmark_db in
  let server = Server_filter.create (DB.ring db) (DB.table db) in
  let transport =
    Transport.local ~handler:(wrap (Server_filter.handler server))
  in
  let filter =
    Client_filter.create (DB.ring db) ~seed:Test_support.test_seed ~scan_batch:2 transport
  in
  (server, filter)

let descendants_plan =
  [
    Plan.Scan { axis = Plan.Root_scan; eval = None };
    Plan.Scan { axis = Plan.Descendant_scan { include_self = false }; eval = None };
  ]

let transport_marks (c : Transport.counters) =
  (c.Transport.calls, c.Transport.bytes_sent + c.Transport.bytes_received)

(* Every round trip the transport counted since [before] is attributed
   to exactly one operator. *)
let check_rpc_attribution label counters ~before:(calls0, bytes0) ops =
  let calls, bytes = transport_marks counters in
  let sum field = List.fold_left (fun acc s -> acc + field s) 0 ops in
  check Alcotest.int (label ^ ": rpc calls attributed") (calls - calls0)
    (sum (fun s -> s.Metrics.rpc_calls));
  check Alcotest.int (label ^ ": rpc bytes attributed") (bytes - bytes0)
    (sum (fun s -> s.Metrics.rpc_bytes))

let test_abandoned_pipeline_closes_cursors () =
  let server, filter = small_batch_parts () in
  let counters = Client_filter.rpc_counters filter in
  let before = transport_marks counters in
  let ops = Operator.build filter descendants_plan in
  let sink = List.nth ops (List.length ops - 1) in
  (* pull one batch and walk away: the scan is mid-stream *)
  (match Operator.next sink with
  | Some batch ->
      Alcotest.(check bool) "first batch nonempty" true (Array.length batch > 0)
  | None -> Alcotest.fail "expected a first batch");
  Alcotest.(check bool)
    "scan holds a cursor mid-stream" true
    (Server_filter.open_cursors server > 0);
  List.iter Operator.close ops;
  check Alcotest.int "close releases the cursor" 0 (Server_filter.open_cursors server);
  (* the close-time Cursor_close included *)
  check_rpc_attribution "abandoned" counters ~before (List.map Operator.stats ops)

let test_failing_query_closes_cursors () =
  (* evaluations fail, navigation works: the containment filter dies
     while the descendant scan's cursor is mid-stream *)
  let wrap handler = function
    | Protocol.Eval_batch _ -> Protocol.Error_msg "boom"
    | req -> handler req
  in
  let server, filter = small_batch_parts ~wrap () in
  let plan = descendants_plan @ [ Plan.Filter_containment { points = [ 1 ] } ] in
  (match Operator.run filter plan with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "expected the filter to fail");
  check Alcotest.int "failure tears the cursor down" 0 (Server_filter.open_cursors server)

(* --- the --explain counters --- *)

let explain_queries =
  [ "/site"; "/site/regions/europe/item"; "/site//europe/item"; "//bidder/date";
    "/site/*"; "//date/.." ]

let test_operator_stats () =
  let db = Lazy.force xmark_db in
  List.iter
    (fun q ->
      List.iter
        (fun (engine, strictness) ->
          let counters = DB.rpc_counters db in
          let before = transport_marks counters in
          let r = Test_support.must_query ~engine ~strictness db q in
          Alcotest.(check bool) (q ^ " has operators") true (r.DB.operators <> []);
          let first = List.hd r.DB.operators in
          Alcotest.(check bool)
            (q ^ " starts at a root scan")
            true
            (String.length first.Metrics.op_name >= 9
            && String.sub first.Metrics.op_name 0 9 = "scan-root");
          check_rpc_attribution q counters ~before r.DB.operators;
          (* the sink's output is the (deduplicated) result *)
          let sink = List.nth r.DB.operators (List.length r.DB.operators - 1) in
          check Alcotest.int (q ^ " sink rows = result size")
            (List.length (DB.result_nodes r))
            sink.Metrics.rows_out)
        [
          (DB.Simple, QC.Non_strict);
          (DB.Simple, QC.Strict);
          (DB.Advanced, QC.Non_strict);
          (DB.Advanced, QC.Strict);
        ])
    explain_queries

let () =
  Alcotest.run "pipeline"
    [
      ( "golden",
        [
          Alcotest.test_case "paper queries, both engines" `Quick test_golden_results;
          Alcotest.test_case "fused/batched/per-node agree" `Quick test_config_agreement;
        ] );
      ( "counters",
        [
          Alcotest.test_case "pinned, in-process = socket = 2-of-3 router" `Quick
            test_counters_pinned_across_deployments;
        ] );
      ("lowering", [ Alcotest.test_case "plan shapes" `Quick test_plan_shapes ]);
      ( "reference",
        [
          qtest "child-only queries match the plaintext reference" gen_tree_and_query
            prop_child_queries_match_reference;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "abandoned pipeline closes cursors" `Quick
            test_abandoned_pipeline_closes_cursors;
          Alcotest.test_case "failing query closes cursors" `Quick
            test_failing_query_closes_cursors;
        ] );
      ("explain", [ Alcotest.test_case "operator counters" `Quick test_operator_stats ]);
    ]
