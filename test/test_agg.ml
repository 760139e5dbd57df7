(* Oblivious aggregation (count/sum/avg over additive numeric shares):
   the F_M field kernel, encoder flagging, engine-vs-plaintext golden
   equality, the constant-size reply claim, bundle persistence of the
   numeric column, client-side admission, and T-of-N recombination
   through the shard router — including a mid-query shard kill. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Qnum = Secshare_core.Qnum
module Numeric = Secshare_core.Numeric
module Mapping = Secshare_core.Mapping
module Reference = Secshare_core.Reference
module Server_filter = Secshare_core.Server_filter
module Manifest = Secshare_shard.Manifest
module Split = Secshare_shard.Split
module Router = Secshare_shard.Router
module Node_table = Secshare_store.Node_table
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Ring = Secshare_poly.Ring
module Seed = Secshare_prg.Seed
module Tree = Secshare_xml.Tree
module Ast = Secshare_xpath.Ast

let check = Alcotest.check

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let value_eq a b =
  match (a, b) with
  | QC.Count a, QC.Count b -> a = b
  | QC.Sum a, QC.Sum b | QC.Avg a, QC.Avg b -> Qnum.equal a b
  | QC.Nodes a, QC.Nodes b -> a = b
  | _ -> false

let value_str = function
  | QC.Nodes ns -> Printf.sprintf "nodes(%d)" (List.length ns)
  | QC.Count n -> Printf.sprintf "count %d" n
  | QC.Sum v -> "sum " ^ Qnum.to_string v
  | QC.Avg v -> "avg " ^ Qnum.to_string v

(* --- the numeric field kernel --- *)

let m = Numeric.modulus

let test_numeric_field () =
  (* mul against the naive oracle where the product fits an int *)
  let small = QCheck2.Gen.(pair (int_range 0 0x3FFFFFFF) (int_range 0 0x3FFFFFFF)) in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:500 ~name:"mul = naive product mod M" small
       (fun (a, b) -> Numeric.mul a b = a * b mod m));
  let elt = QCheck2.Gen.int_range 0 (m - 1) in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"a * inv a = 1"
       (QCheck2.Gen.int_range 1 (m - 1))
       (fun a -> Numeric.mul a (Numeric.inv a) = 1));
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"add/sub inverse" (QCheck2.Gen.pair elt elt)
       (fun (a, b) -> Numeric.sub (Numeric.add a b) b = a));
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"centered lift roundtrip"
       (QCheck2.Gen.int_range (-Numeric.max_magnitude) Numeric.max_magnitude)
       (fun v -> Numeric.lift (Numeric.normalize v) = v));
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"to_bytes/of_bytes roundtrip" elt (fun v ->
         Numeric.of_bytes (Numeric.to_bytes v) = v))

let test_parse_decimal () =
  let p = Numeric.parse_decimal in
  check Alcotest.(option int) "integer" (Some 1200) (p ~scale:2 "12");
  check Alcotest.(option int) "fraction" (Some 350) (p ~scale:2 "3.50");
  check Alcotest.(option int) "short fraction" (Some 350) (p ~scale:2 "3.5");
  check Alcotest.(option int) "negative" (Some (-7)) (p ~scale:2 "-0.07");
  check Alcotest.(option int) "whitespace" (Some 100) (p ~scale:2 " 1 ");
  check Alcotest.(option int) "scale 0" (Some 42) (p ~scale:0 "42");
  check Alcotest.(option int) "too many digits" None (p ~scale:2 "1.234");
  check Alcotest.(option int) "not a number" None (p ~scale:2 "12a");
  check Alcotest.(option int) "empty" None (p ~scale:2 "");
  check Alcotest.(option int) "lone dot" None (p ~scale:2 ".");
  check Alcotest.(option int) "overflow" None
    (p ~scale:0 (string_of_int Numeric.max_magnitude ^ "0"))

let test_blind_domains () =
  let seed = Test_support.test_seed in
  check Alcotest.int "blind is deterministic"
    (Numeric.blind ~seed ~pre:7) (Numeric.blind ~seed ~pre:7);
  check Alcotest.bool "blind varies with pre" true
    (Numeric.blind ~seed ~pre:7 <> Numeric.blind ~seed ~pre:8);
  let dealer = (Numeric.dealer_draws ~seed ~pre:7 ~count:1).(0) in
  check Alcotest.bool "dealer draws are domain-separated from blinds" true
    (dealer <> Numeric.blind ~seed ~pre:7)

let test_shamir_numeric () =
  let gen =
    QCheck2.Gen.(pair (int_range 0 (m - 1)) (int_range 2 5))
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:100 ~name:"any t of n recombine the value" gen
       (fun (value, threshold) ->
         let shards = threshold + 2 in
         let draws =
           Numeric.dealer_draws ~seed:Test_support.test_seed ~pre:1
             ~count:(threshold - 1)
         in
         let next = ref 0 in
         let gen () =
           let v = draws.(!next mod Array.length draws) in
           incr next;
           v
         in
         let xs = List.init shards (fun i -> i + 1) in
         let shares = Numeric.Shamir.share () ~threshold ~gen ~xs value in
         let indexed = List.combine xs shares in
         (* every contiguous window of size [threshold], plus a
            scattered subset *)
         let subsets =
           List.init (shards - threshold + 1) (fun k ->
               List.filteri (fun i _ -> i >= k && i < k + threshold) indexed)
           @ [ List.filteri (fun i _ -> i mod 2 = 0) indexed |> fun l ->
               List.filteri (fun i _ -> i < threshold) l ]
         in
         List.for_all
           (fun subset ->
             let sub_xs = List.map fst subset in
             if List.length sub_xs < threshold then true
             else
               let lambdas = Numeric.Shamir.lambdas_at_zero () ~xs:sub_xs in
               Numeric.Shamir.combine () ~lambdas (List.map snd subset) = value)
           subsets))

(* --- documents with numeric leaves --- *)

let price_string v =
  let sign = if v < 0 then "-" else "" in
  Printf.sprintf "%s%d.%02d" sign (abs v / 100) (abs v mod 100)

(* A small random document whose [price] elements are always numeric
   leaves (so the encoder flags the tag) and whose [name] elements
   never are. *)
let gen_numeric_tree : Tree.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let price =
    let* v = int_range (-999_999) 999_999 in
    return (Tree.element "price" [ Tree.text (price_string v) ])
  in
  let name = return (Tree.element "name" [ Tree.text "joan" ]) in
  let item =
    let* with_price = frequency [ (4, return true); (1, return false) ] in
    let* with_name = bool in
    let children =
      (if with_price then [ price ] else []) @ if with_name then [ name ] else []
    in
    let* children = flatten_l children in
    return (Tree.element "item" children)
  in
  let region =
    let* items = list_size (int_range 0 5) item in
    return (Tree.element "region" items)
  in
  let* regions = list_size (int_range 1 4) region in
  let* loose_items = list_size (int_range 0 3) item in
  return (Tree.element "site" (regions @ loose_items))

let price_query = [ Ast.step Ast.Descendant (Ast.Name "price") ]

let agg_funcs = [ Ast.Count; Ast.Sum; Ast.Avg ]
let engines = [ ("simple", DB.Simple); ("advanced", DB.Advanced) ]

let agg_query_string func =
  Printf.sprintf "%s(//price)" (Ast.func_to_string func)

(* --- encoder flagging --- *)

let test_encoder_flags () =
  let tree =
    Tree.element "site"
      [
        Tree.element "price" [ Tree.text "3.50" ];
        Tree.element "price" [ Tree.text "-1" ];
        Tree.element "name" [ Tree.text "joan" ];
        (* mixed: one numeric-looking leaf, one with element children *)
        Tree.element "mixed" [ Tree.text "7" ];
        Tree.element "mixed" [ Tree.element "name" [] ];
      ]
  in
  let db = Test_support.db_of_tree tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let map = DB.mapping db in
      check Alcotest.(option int) "price flagged at the default scale"
        (Some Numeric.default_scale)
        (Mapping.aggregatable_scale map "price");
      check Alcotest.(option int) "name not flagged" None
        (Mapping.aggregatable_scale map "name");
      check Alcotest.(option int) "mixed not flagged" None
        (Mapping.aggregatable_scale map "mixed");
      check Alcotest.(option int) "site not flagged" None
        (Mapping.aggregatable_scale map "site");
      (* the flags survive the map file format *)
      match Mapping.of_file_string (Mapping.to_file_string map) with
      | Error e -> Alcotest.fail e
      | Ok reloaded ->
          check Alcotest.bool "flags survive save/load" true
            (Mapping.equal map reloaded))

(* --- golden equality vs the plaintext oracle --- *)

let test_agg_matches_reference =
  qtest "count/sum/avg = plaintext reference (both engines)" gen_numeric_tree
    (fun tree ->
      let db = Test_support.db_of_tree tree in
      Fun.protect
        ~finally:(fun () -> DB.close db)
        (fun () ->
          List.for_all
            (fun func ->
              let expected = Reference.run_agg ~func tree price_query in
              List.for_all
                (fun (ename, engine) ->
                  match DB.query ~engine db (agg_query_string func) with
                  | Error e -> failwith (ename ^ ": " ^ e)
                  | Ok r ->
                      if not (value_eq r.DB.value expected) then
                        QCheck2.Test.fail_reportf "%s %s: got %s, want %s" ename
                          (Ast.func_to_string func) (value_str r.DB.value)
                          (value_str expected)
                      else true)
                engines)
            agg_funcs))

let test_agg_fixed () =
  let tree =
    Tree.element "site"
      [
        Tree.element "item" [ Tree.element "price" [ Tree.text "3.50" ] ];
        Tree.element "item" [ Tree.element "price" [ Tree.text "1.25" ] ];
        Tree.element "item" [ Tree.element "price" [ Tree.text "-0.75" ] ];
      ]
  in
  let db = Test_support.db_of_tree tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let got q =
        match DB.query db q with
        | Ok r -> r.DB.value
        | Error e -> Alcotest.failf "%s: %s" q e
      in
      check Alcotest.bool "count" true (value_eq (got "count(//price)") (QC.Count 3));
      check Alcotest.string "sum renders as a decimal" "4"
        (match got "sum(//price)" with QC.Sum v -> Qnum.to_string v | _ -> "?");
      check Alcotest.string "fractional sum keeps its decimals" "4.65"
        (match
           (let tree2 =
              Tree.element "s"
                [
                  Tree.element "price" [ Tree.text "3.50" ];
                  Tree.element "price" [ Tree.text "1.15" ];
                ]
            in
            let db2 = Test_support.db_of_tree tree2 in
            Fun.protect
              ~finally:(fun () -> DB.close db2)
              (fun () -> DB.query db2 "sum(//price)"))
         with
        | Ok { DB.value = QC.Sum v; _ } -> Qnum.to_string v
        | _ -> "?");
      check Alcotest.bool "avg = 4/3"
        true
        (value_eq (got "avg(//price)") (QC.Avg (Qnum.make 400 300)));
      (* an unmapped tag aggregates to the empty-set value, like
         plaintext XPath over a document that cannot contain it *)
      check Alcotest.bool "sum over unmapped tag is zero" true
        (value_eq (got "sum(//nosuchtag)") (QC.Sum Qnum.zero));
      check Alcotest.bool "avg over empty set is zero" true
        (value_eq (got "avg(//nosuchtag)") (QC.Avg Qnum.zero)))

(* --- the constant-size reply --- *)

let test_constant_reply_bytes () =
  (* the Agg_partial reply is the same length whatever the selectivity
     or magnitude of the partial sum *)
  let len count sum =
    String.length (Protocol.encode_response (Protocol.Agg_partial { count; sum }))
  in
  let base = len 0 0 in
  List.iter
    (fun (count, sum) ->
      check Alcotest.int
        (Printf.sprintf "reply bytes at count=%d" count)
        base (len count sum))
    [ (1, 1); (1000, m - 1); (0xFFFFFF, 123_456_789_012) ];
  (* end to end: the whole-query byte delta between a 1-row and a
     many-row document is due to the pipeline (pres lists in the
     request), never the aggregate reply — measure the reply frame
     directly through a counting transport *)
  let tree n =
    Tree.element "site"
      (List.init n (fun i ->
           Tree.element "price" [ Tree.text (string_of_int (i + 1)) ]))
  in
  let reply_bytes n =
    let db = Test_support.db_of_tree (tree n) in
    Fun.protect
      ~finally:(fun () -> DB.close db)
      (fun () ->
        let numbers =
          match DB.numbers_table db with
          | Some t -> t
          | None -> Alcotest.fail "no numeric column"
        in
        let filter =
          Server_filter.create ~numbers (DB.ring db) (DB.table db)
        in
        let handler = Server_filter.handler filter in
        let pres = List.init n (fun i -> i + 2) in
        match handler (Protocol.Agg_eval { pres }) with
        | Protocol.Agg_partial _ as reply ->
            String.length (Protocol.encode_response reply)
        | r -> Alcotest.failf "agg_eval: %a" Protocol.pp_response r)
  in
  check Alcotest.int "1 row and 200 rows reply in the same bytes"
    (reply_bytes 1) (reply_bytes 200)

(* --- bundle persistence --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let test_bundle_roundtrip () =
  let tree =
    Tree.element "site"
      [
        Tree.element "price" [ Tree.text "10.00" ];
        Tree.element "price" [ Tree.text "2.50" ];
      ]
  in
  let dir = Filename.temp_file "ssdb-agg-bundle" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let db = Test_support.db_of_tree tree in
      let expected =
        match DB.query db "sum(//price)" with
        | Ok r -> r.DB.value
        | Error e -> Alcotest.fail e
      in
      (match DB.save_bundle db ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      DB.close db;
      check Alcotest.bool "bundle carries nums.db" true
        (Sys.file_exists (Filename.concat dir "nums.db"));
      match DB.open_bundle ~dir () with
      | Error e -> Alcotest.fail e
      | Ok reopened ->
          Fun.protect
            ~finally:(fun () -> DB.close reopened)
            (fun () ->
              match DB.query reopened "sum(//price)" with
              | Error e -> Alcotest.fail e
              | Ok r ->
                  check Alcotest.bool "sum survives the bundle roundtrip" true
                    (value_eq r.DB.value expected);
                  check Alcotest.bool "and equals 12.50" true
                    (value_eq r.DB.value (QC.Sum (Qnum.make 1250 100)))))

(* --- client-side admission --- *)

let test_non_aggregatable_rejected_client_side () =
  let tree =
    Tree.element "site"
      [
        Tree.element "mixed" [ Tree.text "7" ];
        Tree.element "mixed" [ Tree.element "name" [] ];
      ]
  in
  let db = Test_support.db_of_tree tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let calls0 = (DB.rpc_counters db).Transport.calls in
      (match DB.query db "sum(//mixed)" with
      | Ok _ -> Alcotest.fail "sum over a non-aggregatable tag succeeded"
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "clear admission error (got %S)" e)
            true
            (contains ~sub:"not aggregatable" e));
      check Alcotest.int "refused with zero RPCs" calls0
        (DB.rpc_counters db).Transport.calls;
      (* count() never needs the numeric column, so it still works *)
      match DB.query db "count(//mixed)" with
      | Ok r -> check Alcotest.bool "count works" true (value_eq r.DB.value (QC.Count 2))
      | Error e -> Alcotest.fail e)

(* --- T-of-N shard recombination --- *)

let ring = Ring.of_prime ~p:83

type fault = Healthy | Transport_down

type deployment = {
  db : DB.t;
  switches : fault ref array;
  router : Router.t;
  calls : int ref;  (** router-handler calls, for the mid-query kill *)
  kill_after : int option ref;
}

let make_deployment ?(threshold = 2) ?(shards = 3) tree =
  let db = Test_support.db_of_tree tree in
  let tables = Array.init shards (fun _ -> Node_table.create ()) in
  let num_tables = Array.init shards (fun _ -> Node_table.create ()) in
  let dealer_seed = Seed.generate () in
  let manifests =
    Split.split_table ring ~threshold ~shards ~dealer_seed ~source:(DB.table db)
      ~sinks:tables
  in
  let numbers =
    match DB.numbers_table db with
    | Some t -> t
    | None -> failwith "no numeric column"
  in
  Split.split_numbers ~threshold ~shards ~dealer_seed ~source:numbers
    ~sinks:num_tables;
  let switches = Array.init shards (fun _ -> ref Healthy) in
  let wrap switch handler request =
    match !switch with
    | Healthy -> handler request
    | Transport_down -> Protocol.Error_msg "injected: transport down"
  in
  let transports =
    List.init shards (fun i ->
        let filter =
          Server_filter.create ~manifest:(Manifest.to_info manifests.(i))
            ~numbers:num_tables.(i) ring tables.(i)
        in
        Transport.local ~handler:(wrap switches.(i) (Server_filter.handler filter)))
  in
  match Router.of_transports ring transports with
  | Error e -> failwith ("router: " ^ e)
  | Ok router ->
      { db; switches; router; calls = ref 0; kill_after = ref None }

let teardown d =
  Router.close d.router;
  DB.close d.db

let client_of d =
  let handler request =
    incr d.calls;
    (match !(d.kill_after) with
    | Some n when !(d.calls) > n ->
        d.kill_after := None;
        d.switches.(0) := Transport_down
    | _ -> ());
    Router.handler d.router request
  in
  match
    DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping d.db) ~seed:(DB.seed d.db)
      (Transport.local ~handler)
  with
  | Ok c -> c
  | Error e -> failwith e

let routed_tree =
  Tree.element "site"
    (List.init 24 (fun i ->
         Tree.element "item"
           [ Tree.element "price" [ Tree.text (price_string ((i * 137) - 500)) ] ]))

let check_routed_golden ?(note = "") d client =
  List.iter
    (fun func ->
      let q = agg_query_string func in
      let local =
        match DB.query d.db q with Ok r -> r.DB.value | Error e -> Alcotest.fail e
      in
      match DB.query client q with
      | Error e -> Alcotest.failf "%s%s routed: %s" note q e
      | Ok routed ->
          if not (value_eq local routed.DB.value) then
            Alcotest.failf "%s%s: routed %s, local %s" note q
              (value_str routed.DB.value) (value_str local))
    agg_funcs

let test_router_agg_golden () =
  let d = make_deployment routed_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let client = client_of d in
      Fun.protect ~finally:(fun () -> DB.close client) (fun () ->
          check_routed_golden d client))

let test_router_agg_every_pair () =
  (* every 2-of-3 subset: kill each shard in turn before the query *)
  List.iter
    (fun dead ->
      let d = make_deployment routed_tree in
      Fun.protect
        ~finally:(fun () -> teardown d)
        (fun () ->
          d.switches.(dead) := Transport_down;
          let client = client_of d in
          Fun.protect
            ~finally:(fun () -> DB.close client)
            (fun () ->
              check_routed_golden
                ~note:(Printf.sprintf "shard %d down: " (dead + 1))
                d client)))
    [ 0; 1; 2 ]

let test_router_agg_mid_query_kill () =
  let d = make_deployment routed_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let local =
        match DB.query d.db "sum(//price)" with
        | Ok r -> r.DB.value
        | Error e -> Alcotest.fail e
      in
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          (* let the pipeline start against all 3 shards, then kill
             shard 1 partway: the scan fails over AND the final
             Agg_eval recombines from the surviving pair *)
          d.kill_after := Some 2;
          match DB.query client "sum(//price)" with
          | Error e -> Alcotest.failf "mid-query kill: %s" e
          | Ok routed ->
              check Alcotest.bool "sum survives a mid-query shard kill" true
                (value_eq local routed.DB.value);
              check Alcotest.int "the dead shard was noticed" 2
                (Router.live_shards d.router)))

let () =
  Alcotest.run "agg"
    [
      ( "numeric",
        [
          Alcotest.test_case "field arithmetic" `Quick test_numeric_field;
          Alcotest.test_case "parse_decimal" `Quick test_parse_decimal;
          Alcotest.test_case "blind determinism and domains" `Quick
            test_blind_domains;
          Alcotest.test_case "shamir shard/recombine" `Quick test_shamir_numeric;
        ] );
      ( "encode",
        [ Alcotest.test_case "strict tag flagging" `Quick test_encoder_flags ] );
      ( "golden",
        [
          Alcotest.test_case "fixed document" `Quick test_agg_fixed;
          test_agg_matches_reference;
        ] );
      ( "oblivious",
        [
          Alcotest.test_case "constant reply bytes" `Quick
            test_constant_reply_bytes;
        ] );
      ( "bundle",
        [ Alcotest.test_case "nums.db roundtrip" `Quick test_bundle_roundtrip ] );
      ( "admission",
        [
          Alcotest.test_case "non-aggregatable fails client-side" `Quick
            test_non_aggregatable_rejected_client_side;
        ] );
      ( "router",
        [
          Alcotest.test_case "t-of-n recombination" `Quick test_router_agg_golden;
          Alcotest.test_case "every 2-of-3 subset" `Quick
            test_router_agg_every_pair;
          Alcotest.test_case "mid-query shard kill" `Quick
            test_router_agg_mid_query_kill;
        ] );
    ]
