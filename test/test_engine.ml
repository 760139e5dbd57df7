module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Reference = Secshare_core.Reference
module Metrics = Secshare_core.Metrics
module Ast = Secshare_xpath.Ast
module Parser = Secshare_xpath.Parser
module Tree = Secshare_xml.Tree

let check = Alcotest.check
let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let pres = Test_support.pres_of_metas

let query_pres db ~engine ~strictness q =
  DB.result_nodes (Test_support.must_query ~engine ~strictness db q) |> pres

(* --- reference evaluator sanity --- *)

let doc_small =
  match
    Tree.of_string
      "<site><people><person><name/><address><city/></address></person><person><name/></person></people><regions><europe><item><name/></item></europe></regions></site>"
  with
  | Ok t -> t
  | Error e -> failwith e

let parse q = Parser.parse_exn q

let test_reference_basics () =
  check Alcotest.(list int) "/site" [ 1 ] (Reference.run doc_small (parse "/site"));
  check Alcotest.(list int) "//person" [ 3; 7 ] (Reference.run doc_small (parse "//person"));
  check Alcotest.(list int) "//city" [ 6 ] (Reference.run doc_small (parse "//city"));
  check Alcotest.(list int) "/site/people/person/name" [ 4; 8 ]
    (Reference.run doc_small (parse "/site/people/person/name"));
  check Alcotest.(list int) "* step" [ 2; 9 ] (Reference.run doc_small (parse "/site/*"));
  check Alcotest.(list int) "parent step" [ 3 ]
    (Reference.run doc_small (parse "//city/../.."));
  check Alcotest.(list int) "no match" [] (Reference.run doc_small (parse "/nothing"));
  check Alcotest.(list int) "//name" [ 4; 8; 12 ] (Reference.run doc_small (parse "//name"))

let test_reference_containment_semantics () =
  (* containment: nodes whose subtree contains the name *)
  check Alcotest.(list int) "/site loose" [ 1 ]
    (Reference.run ~semantics:Reference.Containment doc_small (parse "/site"));
  check Alcotest.(list int) "//city loose: everything on the path"
    [ 1; 2; 3; 5; 6 ]
    (Reference.run ~semantics:Reference.Containment doc_small (parse "//city"))

let test_pre_of_path () =
  check Alcotest.(option int) "root" (Some 1) (Reference.pre_of_path doc_small []);
  check Alcotest.(option int) "people" (Some 2) (Reference.pre_of_path doc_small [ 0 ]);
  check Alcotest.(option int) "city" (Some 6) (Reference.pre_of_path doc_small [ 0; 0; 1; 0 ]);
  check Alcotest.(option int) "oob" None (Reference.pre_of_path doc_small [ 9 ])

(* --- engines vs reference on the small doc, all four configurations --- *)

let engines = [ ("simple", DB.Simple); ("advanced", DB.Advanced) ]

let small_queries =
  [
    "/site";
    "//person";
    "/site/people/person";
    "/site/people/person/name";
    "/site/*/person";
    "//city";
    "/site//city";
    "//city/..";
    "/site/*";
    "/nothing";
    "//absent";
    "/site/people//name";
  ]

let test_engines_match_reference_small () =
  let db = Test_support.db_of_tree doc_small in
  List.iter
    (fun q ->
      let ast = parse q in
      let exact = Reference.run doc_small ast in
      let loose = Reference.run ~semantics:Reference.Containment doc_small ast in
      List.iter
        (fun (ename, engine) ->
          check Alcotest.(list int)
            (Printf.sprintf "%s strict %s" ename q)
            exact
            (query_pres db ~engine ~strictness:QC.Strict q);
          check Alcotest.(list int)
            (Printf.sprintf "%s non-strict %s" ename q)
            loose
            (query_pres db ~engine ~strictness:QC.Non_strict q))
        engines)
    small_queries

(* --- random documents, random queries, engines vs reference --- *)

let gen_case = QCheck2.Gen.pair Test_support.gen_tree Test_support.gen_query

(* The paper's F_83 runs the byte-table kernels; F_257 (no tables) and
   the extension field GF(3^4) check the other share-arithmetic branch
   and non-prime encodings against the plaintext reference too. *)
let engine_reference_suite =
  List.concat_map
    (fun ((field, p, e, count), (ename, engine)) ->
      let ename = field ^ ename in
      [
        qtest ?count
          (Printf.sprintf "%s strict = reference exact" ename)
          gen_case
          (fun (tree, query) ->
            let db = Test_support.db_of_tree ~p ~e tree in
            let expected = Reference.run tree query in
            let got =
              pres
                (DB.result_nodes
                   (Test_support.must_query ~engine ~strictness:QC.Strict db
                      (Ast.to_string query)))
            in
            got = expected);
        qtest ?count
          (Printf.sprintf "%s non-strict = reference containment" ename)
          gen_case
          (fun (tree, query) ->
            let db = Test_support.db_of_tree ~p ~e tree in
            let expected = Reference.run ~semantics:Reference.Containment tree query in
            let got =
              pres
                (DB.result_nodes
                   (Test_support.must_query ~engine ~strictness:QC.Non_strict db
                      (Ast.to_string query)))
            in
            got = expected);
      ])
    (List.concat_map
       (fun field -> List.map (fun engine -> (field, engine)) engines)
       [
         ("", 83, 1, None);
         ("F_257 ", 257, 1, Some 20);
         ("F_81 ", 3, 4, Some 20);
         ("F_131 ", 131, 1, Some 20);
       ])

let cross_engine_suite =
  [
    qtest "strict result is a subset of non-strict" gen_case (fun (tree, query) ->
        let db = Test_support.db_of_tree tree in
        let q = Ast.to_string query in
        List.for_all
          (fun (_, engine) ->
            let strict = query_pres db ~engine ~strictness:QC.Strict q in
            let loose = query_pres db ~engine ~strictness:QC.Non_strict q in
            List.for_all (fun p -> List.mem p loose) strict)
          engines);
    qtest "simple and advanced agree" gen_case (fun (tree, query) ->
        let db = Test_support.db_of_tree tree in
        let q = Ast.to_string query in
        List.for_all
          (fun strictness ->
            query_pres db ~engine:DB.Simple ~strictness q
            = query_pres db ~engine:DB.Advanced ~strictness q)
          [ QC.Strict; QC.Non_strict ]);
  ]

(* --- extension fields: the whole pipeline over F_{3^4} --- *)

let test_engine_extension_field () =
  let db = Test_support.db_of_tree ~p:3 ~e:4 doc_small in
  List.iter
    (fun q ->
      check Alcotest.(list int) ("F_81 " ^ q)
        (Reference.run doc_small (parse q))
        (query_pres db ~engine:DB.Advanced ~strictness:QC.Strict q))
    [ "/site"; "//person"; "//city"; "/site/*/person" ]

(* --- small field F_5 from figure 1 --- *)

let test_engine_fig1_field () =
  let tree = Result.get_ok (Tree.of_string "<a><b><c/></b><c><a/><b/></c></a>") in
  let db = Test_support.db_of_tree ~p:5 tree in
  check Alcotest.(list int) "//a strict" [ 1; 5 ]
    (query_pres db ~engine:DB.Simple ~strictness:QC.Strict "//a");
  check Alcotest.(list int) "//a non-strict" [ 1; 4; 5 ]
    (query_pres db ~engine:DB.Simple ~strictness:QC.Non_strict "//a")

(* Four names at p = 5 fill the map: no nonzero point is spare, so the
   children of the root multiply to the zero element and the root's tag
   cannot be recovered.  Strict matching refuses with a typed error
   naming the node instead of guessing "not equal" (which answered
   {2}); containment never divides and still answers. *)
let test_engine_full_map_refuses () =
  let tree = Result.get_ok (Tree.of_string "<a><a/><b/><c/><d/></a>") in
  let db = Test_support.db_of_tree ~p:5 tree in
  List.iter
    (fun (name, engine) ->
      match DB.query ~engine ~strictness:QC.Strict db "//a" with
      | Ok r ->
          Alcotest.failf "%s strict //a answered %s" name
            (String.concat "," (List.map string_of_int (pres (DB.result_nodes r))))
      | Error msg ->
          check Alcotest.string (name ^ ": typed error naming the root")
            "filter: equality test at pre 1: the children's product is zero (the map \
             leaves no spare point)"
            msg)
    engines;
  check Alcotest.(list int) "//a non-strict" [ 1; 2 ]
    (query_pres db ~engine:DB.Simple ~strictness:QC.Non_strict "//a")

(* --- metrics --- *)

let test_metrics_counting () =
  let db = Test_support.db_of_tree doc_small in
  let r = Test_support.must_query ~engine:DB.Simple ~strictness:QC.Non_strict db "/site" in
  (* one candidate (the root), one containment evaluation *)
  check Alcotest.int "evaluations" 1 r.DB.metrics.Metrics.evaluations;
  check Alcotest.int "no reconstructions" 0 r.DB.metrics.Metrics.reconstructions;
  let r = Test_support.must_query ~engine:DB.Simple ~strictness:QC.Strict db "/site" in
  check Alcotest.int "strict does equality tests" 1 r.DB.metrics.Metrics.equality_tests;
  (* root + its 2 children reconstructed *)
  check Alcotest.int "reconstructions" 3 r.DB.metrics.Metrics.reconstructions;
  check Alcotest.bool "rpc calls counted" true (r.DB.rpc_calls > 0);
  check Alcotest.bool "rpc bytes counted" true (r.DB.rpc_bytes > 0)

let test_advanced_prunes () =
  (* a query whose names never co-occur: the advanced engine must stop
     at the root while the simple engine scans descendants *)
  let tree =
    Result.get_ok
      (Tree.of_string
         "<site><a><b/><b/><b/></a><c><d/><d/></c></site>")
  in
  let db = Test_support.db_of_tree tree in
  let simple = Test_support.must_query ~engine:DB.Simple ~strictness:QC.Non_strict db "//b/d" in
  let advanced =
    Test_support.must_query ~engine:DB.Advanced ~strictness:QC.Non_strict db "//b/d"
  in
  (* containment semantics: only c (pre 6) has a d inside *)
  check Alcotest.(list int) "containment result" [ 6 ] (pres (DB.result_nodes simple));
  check Alcotest.(list int) "containment result (advanced)" [ 6 ] (pres (DB.result_nodes advanced));
  (* strict: no d is a child of a b anywhere *)
  check Alcotest.(list int) "strict result empty" []
    (pres (DB.result_nodes (Test_support.must_query ~engine:DB.Advanced ~strictness:QC.Strict db "//b/d")));
  check Alcotest.bool "advanced evaluates fewer nodes" true
    (advanced.DB.metrics.Metrics.evaluations < simple.DB.metrics.Metrics.evaluations)

(* --- accuracy (figure 7 mechanics) --- *)

let test_accuracy () =
  let db = Test_support.db_of_tree doc_small in
  (* absolute query without //: containment = equality -> 100% *)
  (match DB.accuracy db "/site/people/person/name" with
  | Ok a -> check (Alcotest.float 0.0001) "absolute query" 1.0 a
  | Error e -> Alcotest.fail e);
  (* //city: containment result has the whole root path -> 1/5 *)
  match DB.accuracy db "//city" with
  | Ok a -> check (Alcotest.float 0.0001) "descendant query" 0.2 a
  | Error e -> Alcotest.fail e

(* --- trie-backed contains() queries --- *)

let test_contains_query () =
  let tree =
    Result.get_ok
      (Tree.of_string
         "<people><person><name>Joan Johnson</name></person><person><name>Bob Smith</name></person></people>")
  in
  let db = Test_support.db_of_tree ~trie:Secshare_trie.Expand.Compressed tree in
  let joan = Test_support.must_query ~strictness:QC.Strict db "//name[contains(text(), \"joan\")]" in
  (* pre numbers follow the trie-expanded document; check via names *)
  check Alcotest.int "one name matches joan" 1 (List.length (DB.result_nodes joan));
  let jo = Test_support.must_query ~strictness:QC.Strict db "//name[contains(text(), \"jo\")]" in
  check Alcotest.int "prefix jo matches joan+johnson's name" 1 (List.length (DB.result_nodes jo));
  let smith = Test_support.must_query ~strictness:QC.Strict db "//name[contains(text(), \"smith\")]" in
  check Alcotest.int "smith matches the other name" 1 (List.length (DB.result_nodes smith));
  check Alcotest.bool "different nodes" true (pres (DB.result_nodes smith) <> pres (DB.result_nodes joan));
  let nobody = Test_support.must_query ~strictness:QC.Strict db "//name[contains(text(), \"zzz\")]" in
  check Alcotest.int "no match" 0 (List.length (DB.result_nodes nobody))

let test_contains_uncompressed () =
  let tree = Result.get_ok (Tree.of_string "<d><t>ab ab cd</t></d>") in
  let db = Test_support.db_of_tree ~trie:Secshare_trie.Expand.Uncompressed tree in
  let hits = Test_support.must_query ~strictness:QC.Strict db "//t[contains(text(), \"ab\")]" in
  (* uncompressed: each of the two "ab" occurrences is its own chain *)
  check Alcotest.int "both chains found" 2 (List.length (DB.result_nodes hits))

(* --- the nextNode() pipeline: server-side cursor accounting --- *)

(* [doc_small] encoded over F_83 behind a bare server filter. *)
let small_server () =
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let mapping = Result.get_ok (Secshare_core.Mapping.of_tree ~q:83 doc_small) in
  let table = Secshare_store.Node_table.create () in
  (match
     Secshare_core.Encode.encode_tree ring ~mapping ~seed:Test_support.test_seed ~table
       doc_small
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Secshare_core.Encode.error_to_string e));
  (ring, Secshare_core.Server_filter.create ring table)

let test_cursor_accounting () =
  let ring, server = small_server () in
  let transport =
    Secshare_rpc.Transport.local ~handler:(Secshare_core.Server_filter.handler server)
  in
  let filter =
    Secshare_core.Client_filter.create ring ~seed:Test_support.test_seed transport
  in
  let root = Option.get (Secshare_core.Client_filter.root filter) in
  let open Secshare_rpc.Protocol in
  let subtree = Pre_ranges [ (root.pre + 1, root.post) ] in
  (* tiny batches force several Scan_next round trips *)
  let visited = ref 0 in
  let rec drain = function
    | None -> ()
    | Some cursor ->
        let rows, next =
          Secshare_core.Client_filter.scan_next filter ~cursor ~max_items:2
        in
        visited := !visited + List.length rows;
        drain next
  in
  let rows, cursor =
    Secshare_core.Client_filter.scan_eval filter ~target:subtree ~points:[] ~max_items:2
  in
  visited := List.length rows;
  check Alcotest.bool "the first batch leaves a cursor" true (cursor <> None);
  drain cursor;
  check Alcotest.int "all descendants streamed" 11 !visited;
  check Alcotest.int "drained cursors are freed" 0
    (Secshare_core.Server_filter.open_cursors server);
  (* an abandoned cursor stays open until closed explicitly *)
  (match
     Secshare_rpc.Transport.call transport
       (Scan_eval { target = subtree; points = []; max_items = 2 })
   with
  | Scan_batch { cursor = Some id; _ } ->
      check Alcotest.int "abandoned cursor counted" 1
        (Secshare_core.Server_filter.open_cursors server);
      (match Secshare_rpc.Transport.call transport (Cursor_close id) with
      | Pong -> ()
      | r -> Alcotest.failf "close: %s" (Format.asprintf "%a" pp_response r));
      check Alcotest.int "closed cursor freed" 0
        (Secshare_core.Server_filter.open_cursors server)
  | r -> Alcotest.failf "scan_eval: %s" (Format.asprintf "%a" pp_response r));
  (* unknown cursors are an error, not a crash *)
  match Secshare_rpc.Transport.call transport (Scan_next { cursor = 999; max_items = 5 }) with
  | Error_msg _ -> ()
  | r -> Alcotest.failf "unknown cursor: %s" (Format.asprintf "%a" pp_response r)

(* A point that is 0 in the field (written 0 or q) is rejected when the
   request is read: the same error whether or not any row would have
   been evaluated, and no cursor is left behind. *)
let test_zero_point_rejected () =
  let _, server = small_server () in
  let open Secshare_rpc.Protocol in
  let zero_point =
    Printexc.to_string
      (Invalid_argument "Cyclic.eval: evaluation at 0 is not preserved by reduction")
  in
  let subtree = Pre_ranges [ (2, 12) ] in
  (match
     Secshare_core.Server_filter.handler server
       (Scan_eval { target = subtree; points = [ 5 ]; max_items = 20 })
   with
  | Scan_batch { rows = _ :: _; cursor = None } -> ()
  | r -> Alcotest.failf "nonzero scan: %s" (Format.asprintf "%a" pp_response r));
  List.iter
    (fun zero ->
      List.iter
        (fun (what, request) ->
          let label = Printf.sprintf "%s at point %d" what zero in
          match Secshare_core.Server_filter.handler server request with
          | Error_msg msg -> check Alcotest.string label zero_point msg
          | r -> Alcotest.failf "%s answered %s" label (Format.asprintf "%a" pp_response r))
        [
          ("empty Eval_batch", Eval_batch { pres = []; point = zero });
          ("Eval_batch", Eval_batch { pres = [ 1; 2; 3 ]; point = zero });
          ( "Scan_eval over no rows",
            Scan_eval { target = Pre_ranges []; points = [ zero ]; max_items = 2 } );
          ( "Scan_eval over rows",
            Scan_eval { target = subtree; points = [ 5; zero ]; max_items = 2 } );
        ])
    [ 0; 83 ];
  check Alcotest.int "no cursor opened" 0 (Secshare_core.Server_filter.open_cursors server)

(* --- corrupted share detection --- *)

let test_corrupt_share_surfaces () =
  (* a share whose decoded coefficient is out of range must produce a
     server-side error, not a wrong answer *)
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let table = Secshare_store.Node_table.create () in
  Secshare_store.Node_table.insert table
    {
      Secshare_store.Page.pre = 1;
      post = 1;
      parent = 0;
      share = Bytes.make (Secshare_poly.Codec.byte_length ~q:83 ~n:82) '\xFF';
    };
  let server = Secshare_core.Server_filter.create ring table in
  match
    Secshare_core.Server_filter.handler server
      (Secshare_rpc.Protocol.Eval_batch { pres = [ 1 ]; point = 5 })
  with
  | Secshare_rpc.Protocol.Error_msg _ -> ()
  | r ->
      Alcotest.failf "corrupt share answered: %s"
        (Format.asprintf "%a" Secshare_rpc.Protocol.pp_response r)

(* --- error handling --- *)

let test_query_errors () =
  let db = Test_support.db_of_tree doc_small in
  (match DB.query db "not a query" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed query accepted");
  (* an unmapped name short-circuits in the driver, on either engine,
     for node and aggregate queries alike: the empty-set value, no RPC,
     no operators *)
  List.iter
    (fun (engine, engine_name) ->
      List.iter
        (fun (q, expect_empty) ->
          let label = Printf.sprintf "%s %s" engine_name q in
          match DB.query ~engine db q with
          | Error e -> Alcotest.failf "%s: %s" label e
          | Ok r ->
              check Alcotest.bool (label ^ ": empty-set value") true (expect_empty r.DB.value);
              check Alcotest.int (label ^ ": no RPC") 0 r.DB.rpc_calls;
              check Alcotest.int (label ^ ": no operators") 0 (List.length r.DB.operators))
        [
          ("/unmapped_tag_name", function QC.Nodes [] -> true | _ -> false);
          ("count(/unmapped_tag_name)", function QC.Count 0 -> true | _ -> false);
        ])
    [ (DB.Simple, "simple"); (DB.Advanced, "advanced") ]

let test_create_errors () =
  (match DB.create "<broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad xml accepted");
  (match DB.create ~config:{ DB.default_config with p = 6 } "<a/>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "composite p accepted");
  match DB.create ~config:{ DB.default_config with p = 2 } "<a><b/><c/></a>" with
  | Error _ -> () (* 3 names cannot map into F_2 *)
  | Ok _ -> Alcotest.fail "overflowing map accepted"

let () =
  Alcotest.run "engine"
    [
      ( "reference",
        [
          Alcotest.test_case "basics" `Quick test_reference_basics;
          Alcotest.test_case "containment semantics" `Quick test_reference_containment_semantics;
          Alcotest.test_case "pre_of_path" `Quick test_pre_of_path;
        ] );
      ( "engines vs reference",
        Alcotest.test_case "small document, all configs" `Quick
          test_engines_match_reference_small
        :: engine_reference_suite
        @ cross_engine_suite );
      ( "fields",
        [
          Alcotest.test_case "extension field F_81" `Slow test_engine_extension_field;
          Alcotest.test_case "figure 1 field F_5" `Quick test_engine_fig1_field;
          Alcotest.test_case "full map at F_5 refuses strict" `Quick
            test_engine_full_map_refuses;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counting" `Quick test_metrics_counting;
          Alcotest.test_case "advanced prunes dead branches" `Quick test_advanced_prunes;
        ] );
      ("accuracy", [ Alcotest.test_case "E/C quotient" `Quick test_accuracy ]);
      ( "trie queries",
        [
          Alcotest.test_case "contains() compressed" `Quick test_contains_query;
          Alcotest.test_case "contains() uncompressed" `Quick test_contains_uncompressed;
        ] );
      ( "server filter",
        [
          Alcotest.test_case "cursor accounting" `Quick test_cursor_accounting;
          Alcotest.test_case "corrupt shares surface" `Quick test_corrupt_share_surfaces;
          Alcotest.test_case "zero point rejected" `Quick test_zero_point_rejected;
        ] );
      ( "errors",
        [
          Alcotest.test_case "query errors" `Quick test_query_errors;
          Alcotest.test_case "create errors" `Quick test_create_errors;
        ] );
    ]
