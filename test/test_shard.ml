(* The sharded serving subsystem (lib/shard): manifest format, the
   offline dealer split, and the router — golden-equality against the
   single server, threshold degradation with shards killed before and
   mid-query, and error discipline (application errors propagate,
   transport deaths fail over). *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Share = Secshare_core.Share
module Server_filter = Secshare_core.Server_filter
module Manifest = Secshare_shard.Manifest
module Split = Secshare_shard.Split
module Router = Secshare_shard.Router
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Ring = Secshare_poly.Ring
module Seed = Secshare_prg.Seed
module Registry = Secshare_obs.Registry
module Server = Secshare_rpc.Server
module Trace = Secshare_obs.Trace
module Span = Secshare_obs.Span

let check = Alcotest.check

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ring = Ring.of_prime ~p:83
let pres = Test_support.pres_of_metas

(* --- manifest --- *)

let m0 =
  {
    Manifest.shard_id = 1;
    shards = 3;
    threshold = 2;
    p = 83;
    e = 1;
    rows = 100;
  }

let test_manifest_roundtrip () =
  let path = Filename.temp_file "ssdb-shard" ".manifest" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Manifest.save path m0;
      match Manifest.load path with
      | Error e -> Alcotest.fail e
      | Ok m -> check Alcotest.bool "identical after the roundtrip" true (m = m0));
  match Manifest.load (path ^ ".does-not-exist") with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* Manifests written by earlier encoders carry a [bounds] line; it is
   ignored like any unknown key, so their shard files still serve. *)
let test_manifest_legacy_bounds () =
  let path = Filename.temp_file "ssdb-shard" ".manifest" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            "# secshare shard manifest\n\
             shard_id = 1\n\
             shards = 3\n\
             threshold = 2\n\
             p = 83\n\
             e = 1\n\
             rows = 100\n\
             bounds = 1,10,20\n");
      match Manifest.load path with
      | Error e -> Alcotest.fail e
      | Ok m -> check Alcotest.bool "the bounds line is ignored" true (m = m0))

let test_manifest_validate () =
  let bad name m =
    match Manifest.validate m with
    | Ok () -> Alcotest.failf "validate accepted %s" name
    | Error _ -> ()
  in
  check Alcotest.bool "m0 is valid" true (Manifest.validate m0 = Ok ());
  bad "threshold 0" { m0 with Manifest.threshold = 0 };
  bad "threshold > shards" { m0 with Manifest.threshold = 4 };
  bad "shard_id out of range" { m0 with Manifest.shard_id = 9 };
  bad "negative rows" { m0 with Manifest.rows = -1 }

let test_manifest_group () =
  let group = List.init 3 (fun i -> { m0 with Manifest.shard_id = i + 1 }) in
  (match Manifest.group_consistent group with
  | Error e -> Alcotest.fail e
  | Ok summary ->
      check Alcotest.int "summary is the router's view" 0 summary.Manifest.shard_id;
      check Alcotest.int "geometry preserved" 2 summary.Manifest.threshold);
  let bad name group =
    match Manifest.group_consistent group with
    | Ok _ -> Alcotest.failf "group_consistent accepted %s" name
    | Error _ -> ()
  in
  bad "duplicate shard ids" [ m0; m0; { m0 with Manifest.shard_id = 3 } ];
  bad "diverging rows"
    [
      m0;
      { m0 with Manifest.shard_id = 2; rows = 99 };
      { m0 with Manifest.shard_id = 3 };
    ];
  bad "empty group" []

let test_wire_roundtrip () =
  let m = Manifest.of_info (Manifest.to_info m0) in
  check Alcotest.bool "to_info/of_info roundtrip" true (m = m0)

(* --- an in-process threshold deployment ---

   Each shard is a real [Server_filter] over its own share table,
   reached through a [Transport.local] wrapped in a fault switch so
   tests can kill a shard's transport (every call fails, including the
   router's Ping probe), make it misbehave at the application level
   (calls fail but Ping still answers), or make it lie (it answers
   with a reply of the right kind but the wrong content). *)

type fault =
  | Healthy
  | Transport_down
  | App_failing
  | Short_share  (** every share cut to 10 bytes *)
  | Bad_coefficient  (** every share's first coefficient set to 127 >= 83 *)
  | Missing_value  (** every scan row one value short *)
  | Extra_value  (** every scan row one value long *)
  | Dropped_row  (** the first row of every scan batch left out *)
  | Values_kind  (** every [Values] reply swapped for a [Pong] *)
  | Value_past_q  (** every [Values] reply's first value set to 83 = q *)
  | Short_values  (** every [Values] reply one value short *)

type deployment = {
  db : DB.t;  (** the single-server reference (local handle) *)
  tables : Node_table.t array;
  filters : Server_filter.t array;
  switches : fault ref array;
  seen : int ref array;  (** requests each member's wrapper received *)
  router : Router.t;
}

let lie fault response =
  let share b =
    match fault with
    | Short_share -> Bytes.sub b 0 10
    | _ ->
        let b = Bytes.copy b in
        Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lor 0x7f);
        b
  in
  let reshape rows f = List.map (fun (meta, values) -> (meta, f values)) rows in
  match (fault, response) with
  | (Short_share | Bad_coefficient), Protocol.Shares_data bs ->
      Protocol.Shares_data (List.map share bs)
  | Missing_value, Protocol.Scan_batch { rows; cursor } ->
      Protocol.Scan_batch
        { rows = reshape rows (function _ :: rest -> rest | [] -> []); cursor }
  | Extra_value, Protocol.Scan_batch { rows; cursor } ->
      Protocol.Scan_batch { rows = reshape rows (fun values -> 0 :: values); cursor }
  | Dropped_row, Protocol.Scan_batch { rows = _ :: rows; cursor } ->
      Protocol.Scan_batch { rows; cursor }
  | Values_kind, Protocol.Values _ -> Protocol.Pong
  | Value_past_q, Protocol.Values (_ :: vs) -> Protocol.Values (83 :: vs)
  | Short_values, Protocol.Values (_ :: vs) -> Protocol.Values vs
  | _, response -> response

let wrap ~seen switch handler request =
  incr seen;
  match (!switch, request) with
  | Healthy, _ -> handler request
  | Transport_down, _ -> Protocol.Error_msg "injected: transport down"
  | App_failing, Protocol.Ping -> handler request
  | App_failing, _ -> Protocol.Error_msg "injected application error"
  | fault, _ -> lie fault (handler request)

let make_deployment ?(ring = ring) ?(threshold = 2) ?(shards = 3) ?max_cursors tree =
  let db = Test_support.db_of_tree ~p:ring.Ring.characteristic ~e:ring.Ring.degree tree in
  let tables = Array.init shards (fun _ -> Node_table.create ()) in
  let manifests =
    Split.split_table ring ~threshold ~shards ~dealer_seed:(Test_support.fresh_seed ())
      ~source:(DB.table db) ~sinks:tables
  in
  let switches = Array.init shards (fun _ -> ref Healthy) in
  let seen = Array.init shards (fun _ -> ref 0) in
  let filters =
    Array.init shards (fun i ->
        Server_filter.create ~manifest:(Manifest.to_info manifests.(i)) ring tables.(i))
  in
  let transports =
    List.init shards (fun i ->
        Transport.local
          ~handler:(wrap ~seen:seen.(i) switches.(i) (Server_filter.handler filters.(i))))
  in
  match Router.of_transports ring ?max_cursors transports with
  | Error e -> failwith ("router: " ^ e)
  | Ok router -> { db; tables; filters; switches; seen; router }

let teardown d =
  Router.close d.router;
  DB.close d.db

let client_of ?client d =
  let ring = DB.ring d.db in
  match
    DB.of_transport ?client ~p:ring.Ring.characteristic ~e:ring.Ring.degree
      ~mapping:(DB.mapping d.db) ~seed:(DB.seed d.db)
      (Transport.local ~handler:(Router.handler d.router))
  with
  | Ok c -> c
  | Error e -> failwith e

let xmark_tree = Secshare_xmark.Generate.generate ~factor:0.5 ()

let golden_queries =
  [ "/site"; "/site/regions/europe/item"; "//bidder/date"; "/site/*/person//city" ]

let modes =
  [ (DB.Simple, QC.Non_strict); (DB.Advanced, QC.Non_strict); (DB.Advanced, QC.Strict) ]

let check_golden ?(note = "") d client =
  List.iter
    (fun q ->
      List.iter
        (fun (engine, strictness) ->
          let local = Test_support.must_query ~engine ~strictness d.db q in
          match DB.query ~engine ~strictness client q with
          | Error e -> Alcotest.failf "%s%s routed: %s" note q e
          | Ok routed ->
              check Alcotest.(list int) (note ^ q) (pres (DB.result_nodes local))
                (pres (DB.result_nodes routed)))
        modes)
    golden_queries

(* --- the dealer split --- *)

let test_split_reconstructs () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let checked = ref 0 in
      Node_table.iter (DB.table d.db) ~f:(fun row ->
          List.iter
            (fun xs ->
              let shares =
                List.map
                  (fun i ->
                    match Node_table.find_by_pre d.tables.(i - 1) row.Page.pre with
                    | Some r -> r.Page.share
                    | None -> Alcotest.failf "shard %d misses pre" i)
                  xs
              in
              let got =
                Share.reconstruct_packed ring
                  ~lambdas:(Secshare_poly.Shamir.lambdas_at_zero ring ~xs)
                  shares
              in
              if not (Bytes.equal got row.Page.share) then
                Alcotest.failf "reconstruction differs for a row (subset %s)"
                  (String.concat "," (List.map string_of_int xs));
              incr checked)
            [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ]; [ 3; 1 ] ]);
      check Alcotest.bool "checked every row against every 2-subset" true
        (!checked = 4 * Node_table.row_count (DB.table d.db)))

let test_split_metadata_and_masking () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let source = DB.table d.db in
      let n = Node_table.row_count source in
      Array.iter
        (fun t ->
          check Alcotest.int "every shard holds every row" n (Node_table.row_count t))
        d.tables;
      let shard1_differs = ref false and shards_differ = ref false in
      Node_table.iter source ~f:(fun row ->
          match
            ( Node_table.find_by_pre d.tables.(0) row.Page.pre,
              Node_table.find_by_pre d.tables.(1) row.Page.pre )
          with
          | Some s1, Some s2 ->
              check Alcotest.int "post preserved" row.Page.post s1.Page.post;
              check Alcotest.int "parent preserved" row.Page.parent s1.Page.parent;
              if not (Bytes.equal s1.Page.share row.Page.share) then
                shard1_differs := true;
              if not (Bytes.equal s1.Page.share s2.Page.share) then
                shards_differ := true
          | _ -> Alcotest.fail "shard misses a row");
      check Alcotest.bool "shard shares are masked (≠ server share)" true
        !shard1_differs;
      check Alcotest.bool "shards hold distinct shares" true !shards_differ)

(* A fixed document with numeric leaves, so both dealer paths have
   rows to share. *)
let dealer_db =
  lazy
    (match
       Secshare_xml.Tree.of_string
         "<site><item><price>12.50</price><name>lamp</name><qty>3</qty></item>\
          <item><price>-0.07</price><name>desk</name><qty>10</qty></item>\
          <item><price>999</price><name>chair</name><qty>0</qty></item></site>"
     with
    | Ok tree -> Test_support.db_of_tree tree
    | Error e -> failwith e)

let numbers_of db =
  match DB.numbers_table db with Some t -> t | None -> failwith "no numeric column"

(* MD5 of every shard table the dealer writes, pinned so a refactor of
   the sharing code cannot change a single stored byte: ((threshold,
   shards), (polynomial tables, numeric tables)). *)
let pinned_dealer_digests =
  [
    ((2, 3), ("6d0b769db4f3bb9e349022ed6ac9605e", "d85e7435237c7cc882be84e0c3aa61dd"));
    ((3, 4), ("5f30db05b6a55712b791a6956c3d2f86", "41b6669810f44c754d45c39925be8f8f"));
  ]

let test_dealer_digests () =
  let db = Lazy.force dealer_db in
  List.iter
    (fun ((threshold, shards), (want_poly, want_num)) ->
      let dealer_seed =
        Seed.of_passphrase (Printf.sprintf "dealer-%d-of-%d" threshold shards)
      in
      let poly = Array.init shards (fun _ -> Node_table.create ()) in
      let num = Array.init shards (fun _ -> Node_table.create ()) in
      ignore
        (Split.split_table ring ~threshold ~shards ~dealer_seed ~source:(DB.table db)
           ~sinks:poly
          : Manifest.t array);
      Split.split_numbers ~threshold ~shards ~dealer_seed ~source:(numbers_of db)
        ~sinks:num;
      let label = Printf.sprintf "%d-of-%d" threshold shards in
      check Alcotest.string (label ^ " polynomial shards") want_poly (Test_support.digest_tables poly);
      check Alcotest.string (label ^ " numeric shards") want_num (Test_support.digest_tables num))
    pinned_dealer_digests

(* Both dealers reject a geometry no group could recombine, before
   writing anything — also when the source table is empty. *)
let test_split_rejects_bad_geometry () =
  let db = Lazy.force dealer_db in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (threshold, shards) ->
      List.iter
        (fun (what, source, numbers) ->
          let name = Printf.sprintf "%s %d-of-%d" what threshold shards in
          let sinks = Array.init shards (fun _ -> Node_table.create ()) in
          raises (name ^ " split_table") (fun () ->
              ignore
                (Split.split_table ring ~threshold ~shards
                   ~dealer_seed:(Test_support.fresh_seed ()) ~source ~sinks
                  : Manifest.t array));
          raises (name ^ " split_numbers") (fun () ->
              Split.split_numbers ~threshold ~shards
                ~dealer_seed:(Test_support.fresh_seed ()) ~source:numbers ~sinks);
          Array.iter
            (fun t -> check Alcotest.int (name ^ ": nothing written") 0 (Node_table.row_count t))
            sinks)
        [
          ("document", DB.table db, numbers_of db);
          ("empty", Node_table.create (), Node_table.create ());
        ])
    [ (4, 3); (0, 3); (2, 0) ]

(* --- router golden equality --- *)

let test_router_golden ?ring () =
  let d = make_deployment ?ring xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      List.iter
        (* each cost model drives the router through a different
           request mix *)
        (fun (name, rpc_mode) ->
          let client = client_of ~client:{ DB.default_client_config with rpc_mode } d in
          Fun.protect
            ~finally:(fun () -> DB.close client)
            (fun () ->
              check_golden ~note:(name ^ " client: ") d client;
              check Alcotest.int (name ^ ": no cursor leaks") 0
                (Router.open_cursors d.router)))
        Test_support.rpc_modes)

(* A parent step is one point-free scan of one-pre windows per batch,
   which the router forwards unchanged.  Both shapes must answer like
   [Reference] in every client cost model, with fewer round trips than
   rows. *)
let test_parent_steps_match_reference () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      List.iter
        (fun (name, rpc_mode) ->
          let client = { DB.default_client_config with rpc_mode } in
          let direct =
            match
              DB.of_parts ~client ~mapping:(DB.mapping d.db) ~seed:(DB.seed d.db)
                ~table:(DB.table d.db) ()
            with
            | Ok db -> db
            | Error e -> failwith e
          in
          let routed = client_of ~client d in
          List.iter
            (fun (shape, db) ->
              List.iter
                (fun q ->
                  let ast = Secshare_xpath.Parser.parse_exn q in
                  List.iter
                    (fun (engine, strictness) ->
                      let semantics =
                        if strictness = QC.Strict then Secshare_core.Reference.Exact
                        else Secshare_core.Reference.Containment
                      in
                      let note = Printf.sprintf "%s %s %s" name shape q in
                      let r = Test_support.must_query ~engine ~strictness db q in
                      check Alcotest.(list int) note
                        (Secshare_core.Reference.run ~semantics xmark_tree ast)
                        (pres (DB.result_nodes r));
                      List.iter
                        (fun (op : Secshare_core.Metrics.op_stats) ->
                          if op.Secshare_core.Metrics.op_name = "parent" then
                            check Alcotest.bool (note ^ ": fewer calls than rows") true
                              (op.Secshare_core.Metrics.rpc_calls
                              < op.Secshare_core.Metrics.rows_in))
                        r.DB.operators)
                    modes)
                [ "//date/.."; "//city/../.." ])
            [ ("direct", direct); ("2-of-3 router", routed) ];
          DB.close routed;
          DB.close direct)
        Test_support.rpc_modes)

let test_router_single_shard () =
  (* a 1-of-1 "deployment" over a plain unsharded server: the filter
     answers the handshake with its default trivial manifest *)
  let db = Test_support.db_of_tree xmark_tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let filter = Server_filter.create ring (DB.table db) in
      let transport = Transport.local ~handler:(Server_filter.handler filter) in
      match Router.of_transports ring [ transport ] with
      | Error e -> Alcotest.fail e
      | Ok router ->
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              check Alcotest.int "threshold 1" 1 (Router.threshold router);
              let client =
                Result.get_ok
                  (DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db)
                     ~seed:(DB.seed db)
                     (Transport.local ~handler:(Router.handler router)))
              in
              Fun.protect
                ~finally:(fun () -> DB.close client)
                (fun () ->
                  List.iter
                    (fun q ->
                      let local = Test_support.must_query db q in
                      match DB.query client q with
                      | Error e -> Alcotest.failf "%s: %s" q e
                      | Ok routed ->
                          check Alcotest.(list int) q (pres (DB.result_nodes local))
                            (pres (DB.result_nodes routed)))
                    golden_queries)))

let test_router_qcheck =
  qtest "routed = local on random documents and queries"
    (QCheck2.Gen.pair Test_support.gen_tree Test_support.gen_query)
    (fun (tree, q) ->
      let d = make_deployment tree in
      Fun.protect
        ~finally:(fun () -> teardown d)
        (fun () ->
          let client = client_of d in
          Fun.protect
            ~finally:(fun () -> DB.close client)
            (fun () ->
              match (DB.query_ast d.db q, DB.query_ast client q) with
              | Ok local, Ok routed -> pres (DB.result_nodes local) = pres (DB.result_nodes routed)
              | Error e, _ | _, Error e -> failwith e)))

(* --- threshold degradation --- *)

let test_kill_one_before_query () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(1) := Transport_down;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          check_golden ~note:"shard 2 down: " d client;
          check Alcotest.int "the dead shard was noticed" 2
            (Router.live_shards d.router)))

let test_kill_shard_hook () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      (* shard 1 is in the serving group, so the group is rebuilt *)
      Router.kill_shard d.router 1;
      check Alcotest.int "marked dead" 2 (Router.live_shards d.router);
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () -> check_golden ~note:"shard 1 marked dead: " d client))

let test_below_threshold_fails_cleanly () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(0) := Transport_down;
      d.switches.(2) := Transport_down;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          match DB.query client "//bidder/date" with
          | Ok _ -> Alcotest.fail "answered below the threshold"
          | Error e ->
              check Alcotest.bool
                (Printf.sprintf "clean unavailable error (got %S)" e)
                true
                (Test_support.contains ~sub:"unavailable" e)))

let test_app_error_propagates () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(0) := App_failing;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          match DB.query client "//bidder/date" with
          | Ok _ -> Alcotest.fail "a failing shard answered"
          | Error e ->
              check Alcotest.bool
                (Printf.sprintf "error propagated verbatim (got %S)" e)
                true
                (Test_support.contains ~sub:"injected application error" e);
              check Alcotest.int "the shard is still considered live" 3
                (Router.live_shards d.router)))

(* --- fused scans: splitting exactness and mid-scan failover --- *)

(* Every row left behind [cursor], drained with [Scan_next]. *)
let drain handler ~max_items cursor =
  let rec go acc = function
    | None -> List.concat (List.rev acc)
    | Some c -> (
        match handler (Protocol.Scan_next { cursor = c; max_items }) with
        | Protocol.Scan_batch { rows; cursor } -> go (rows :: acc) cursor
        | r -> Alcotest.failf "scan_next: %a" Protocol.pp_response r)
  in
  go [] cursor

let scan_all ?(after_first = fun () -> ()) handler ~points ~max_items target =
  match handler (Protocol.Scan_eval { target; points; max_items }) with
  | Protocol.Scan_batch { rows; cursor } ->
      after_first ();
      rows @ drain handler ~max_items cursor
  | r -> Alcotest.failf "scan_eval: %a" Protocol.pp_response r

let points = [ 5; 17; 42 ]

let test_bounded_target_equivalence () =
  let db = Test_support.db_of_tree xmark_tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let filter = Server_filter.create ring (DB.table db) in
      let h = Server_filter.handler filter in
      let rows = Node_table.row_count (DB.table db) in
      let full =
        scan_all h ~points ~max_items:7 (Protocol.Pre_ranges [ (1, rows + 1) ])
      in
      check Alcotest.bool "the scan saw the whole table" true
        (List.length full = rows);
      let mid = 1 + (rows / 3) in
      let split =
        scan_all h ~points ~max_items:7
          (Protocol.Bounded_pre_ranges
             [ (1, mid, rows + 1); (mid, max_int, rows + 1) ])
      in
      check Alcotest.bool "splitting at a pre boundary is exact" true
        (full = split))

(* Both scan shapes: with points (the fused step) and point-free (the
   unfused descendant step, whose containment test follows separately). *)
let test_mid_scan_failover () =
  List.iter
    (fun points ->
      let what = Printf.sprintf " (%d points)" (List.length points) in
      let d = make_deployment xmark_tree in
      Fun.protect
        ~finally:(fun () -> teardown d)
        (fun () ->
          let rows = Node_table.row_count (DB.table d.db) in
          let reference =
            let filter = Server_filter.create ring (DB.table d.db) in
            scan_all (Server_filter.handler filter) ~points ~max_items:5
              (Protocol.Pre_ranges [ (1, rows + 1) ])
          in
          check Alcotest.bool ("reference drains the table" ^ what) true
            (List.length reference = rows);
          (* kill shard 1's transport after the first batch so the scan
             must fail over mid-stream *)
          let routed =
            scan_all (Router.handler d.router)
              ~after_first:(fun () -> d.switches.(0) := Transport_down)
              ~points ~max_items:5
              (Protocol.Pre_ranges [ (1, rows + 1) ])
          in
          check Alcotest.bool
            ("identical rows and evaluations across the failover" ^ what)
            true (reference = routed);
          check Alcotest.int ("the dead shard was noticed" ^ what) 2
            (Router.live_shards d.router);
          check Alcotest.int ("no cursor leaks" ^ what) 0 (Router.open_cursors d.router)))
    [ points; [] ]

(* --- lying members ---

   Shard 1 is in the serving group (shards 1 and 2), which serves every
   request. *)

let router_call d request =
  match Router.handler d.router request with
  | response -> response
  | exception e ->
      Alcotest.failf "the router raised %s on %a" (Printexc.to_string e)
        Protocol.pp_request request

let expect_router_error ~what ?naming d request =
  match router_call d request with
  | Protocol.Error_msg msg ->
      check Alcotest.bool
        (Printf.sprintf "%s: a typed router error (got %S)" what msg)
        true
        (String.length msg > 8 && String.sub msg 0 8 = "router: ");
      Option.iter
        (fun sub ->
          check Alcotest.bool (Printf.sprintf "%s: %S names %s" what msg sub) true
            (Test_support.contains ~sub msg))
        naming
  | r -> Alcotest.failf "%s: expected an error, got %a" what Protocol.pp_response r

let check_no_open_cursors ~what d =
  check Alcotest.int (what ^ ": router cursors") 0 (Router.open_cursors d.router);
  Array.iteri
    (fun i f ->
      check Alcotest.int
        (Printf.sprintf "%s: shard %d cursors" what (i + 1))
        0 (Server_filter.open_cursors f))
    d.filters

let test_lying_shares () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let root = (Option.get (Node_table.root (DB.table d.db))).Page.pre in
      List.iter
        (fun (fault, name) ->
          d.switches.(0) := fault;
          expect_router_error ~what:(name ^ " share") ~naming:"shard 1" d
            (Protocol.Shares [ root ]);
          expect_router_error ~what:(name ^ " shares") ~naming:"shard 1" d
            (Protocol.Shares [ root; root + 1; root + 2 ]);
          d.switches.(0) := Healthy)
        [ (Short_share, "short"); (Bad_coefficient, "coefficient >= q") ];
      check Alcotest.int "a lying shard is not a dead one" 3
        (Router.live_shards d.router))

(* Each lie about a batch of evaluations names the member, whose
   transport stays up. *)
let test_lying_evaluations () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let root = (Option.get (Node_table.root (DB.table d.db))).Page.pre in
      List.iter
        (fun (fault, name) ->
          d.switches.(0) := fault;
          expect_router_error ~what:name ~naming:"shard 1" d
            (Protocol.Eval_batch { pres = [ root; root + 1; root + 2 ]; point = 5 });
          d.switches.(0) := Healthy)
        [
          (Values_kind, "a reply of the wrong kind");
          (Value_past_q, "a value >= q");
          (Short_values, "one value too few");
        ];
      check Alcotest.int "a lying shard is not a dead one" 3
        (Router.live_shards d.router))

(* Each scan lie, both from the first batch ([Scan_eval]) and from a
   later one ([Scan_next]): a typed error, then no cursor left open
   anywhere. *)
let test_lying_scans () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let rows = Node_table.row_count (DB.table d.db) in
      let target = Protocol.Pre_ranges [ (1, rows + 1) ] in
      List.iter
        (fun (fault, name) ->
          let what = name ^ " from the first batch" in
          d.switches.(0) := fault;
          expect_router_error ~what d
            (Protocol.Scan_eval { target; points; max_items = 5 });
          d.switches.(0) := Healthy;
          check_no_open_cursors ~what d;
          let what = name ^ " mid-scan" in
          (match router_call d (Protocol.Scan_eval { target; points; max_items = 5 }) with
          | Protocol.Scan_batch { cursor = Some cursor; _ } ->
              d.switches.(0) := fault;
              expect_router_error ~what d (Protocol.Scan_next { cursor; max_items = 5 });
              d.switches.(0) := Healthy
          | r ->
              Alcotest.failf "%s: expected a cursor, got %a" what Protocol.pp_response r);
          check_no_open_cursors ~what d)
        [
          (Missing_value, "a row one value short");
          (Extra_value, "a row one value long");
          (Dropped_row, "a dropped row");
        ];
      check Alcotest.int "a lying shard is not a dead one" 3
        (Router.live_shards d.router))

(* Every request a member received — the failing request, the router's
   Ping probe, the scan and the Cursor_close of the abandoned scan — is
   in its ssdb_router_shard_calls_total child. *)
let test_shard_calls_counted () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let counters =
        Array.init 3 (fun i ->
            Registry.counter ~labels:[ ("shard", string_of_int (i + 1)) ]
              "ssdb_router_shard_calls_total")
      in
      let counted () = Array.map Registry.counter_value counters in
      let seen () = Array.map ( ! ) d.seen in
      let counted0 = counted () and seen0 = seen () in
      let root = (Option.get (Node_table.root (DB.table d.db))).Page.pre in
      d.switches.(0) := App_failing;
      (match router_call d (Protocol.Shares [ root ]) with
      | Protocol.Error_msg _ -> ()
      | r -> Alcotest.failf "a failing shard answered: %a" Protocol.pp_response r);
      d.switches.(0) := Healthy;
      (match
         router_call d
           (Protocol.Scan_eval
              { target = Protocol.Pre_ranges [ (1, 1_000_000) ]; points; max_items = 2 })
       with
      | Protocol.Scan_batch { cursor = Some cursor; _ } ->
          ignore (router_call d (Protocol.Cursor_close cursor) : Protocol.response)
      | r -> Alcotest.failf "expected a cursor: %a" Protocol.pp_response r);
      let counted = counted () and seen = seen () in
      check Alcotest.int "shard 1 saw share, probe, scan and close" 4
        (seen.(0) - seen0.(0));
      Array.iteri
        (fun i _ ->
          check Alcotest.int
            (Printf.sprintf "shard %d: counted = received" (i + 1))
            (seen.(i) - seen0.(i))
            (counted.(i) - counted0.(i)))
        counters)

let test_connection_scoped_cursors () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let on_request, on_close = Router.connection d.router in
      (match
         on_request
           (Protocol.Scan_eval
              {
                target = Protocol.Pre_ranges [ (1, 1_000_000) ];
                points;
                max_items = 2;
              })
       with
      | Protocol.Scan_batch { cursor = Some _; _ } -> ()
      | r -> Alcotest.failf "expected a cursor: %a" Protocol.pp_response r);
      check Alcotest.int "one open cursor" 1 (Router.open_cursors d.router);
      on_close ();
      check Alcotest.int "closed with the connection" 0
        (Router.open_cursors d.router))

let test_sessions_own_their_cursors () =
  (* router cursor ids are sequential too: a second session naming the
     first one's cursor gets the unknown-cursor reply, cannot close it,
     and the owner still drains every row *)
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let rows = Node_table.row_count (DB.table d.db) in
      let target = Protocol.Pre_ranges [ (1, rows + 1) ] in
      let reference =
        let filter = Server_filter.create ring (DB.table d.db) in
        scan_all (Server_filter.handler filter) ~points ~max_items:5 target
      in
      let a, close_a = Router.connection d.router in
      let b, close_b = Router.connection d.router in
      let first, cursor =
        match a (Protocol.Scan_eval { target; points; max_items = 5 }) with
        | Protocol.Scan_batch { rows; cursor = Some c } -> (rows, c)
        | r -> Alcotest.failf "expected a cursor: %a" Protocol.pp_response r
      in
      let reply = Alcotest.testable Protocol.pp_response ( = ) in
      let unknown id = Protocol.Error_msg (Printf.sprintf "unknown cursor %d" id) in
      check reply "another session's cursor reads as unknown" (unknown cursor)
        (b (Protocol.Scan_next { cursor; max_items = 5 }));
      check reply "as does an id never issued" (unknown (cursor + 1000))
        (b (Protocol.Scan_next { cursor = cursor + 1000; max_items = 5 }));
      check reply "closing it is a silent no-op" Protocol.Pong
        (b (Protocol.Cursor_close cursor));
      close_b ();
      check Alcotest.int "the owner's cursor survives" 1 (Router.open_cursors d.router);
      check Alcotest.bool "the owner reads every row" true
        (first @ drain a ~max_items:5 (Some cursor) = reference);
      close_a ();
      check Alcotest.int "no cursor leaks" 0 (Router.open_cursors d.router))

(* Past the cap the least recently used router cursor goes, and its
   member cursors are closed with it. *)
let test_router_cap_evicts_lru () =
  let d = make_deployment ~max_cursors:2 xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let target = Protocol.Pre_ranges [ (1, 1_000_000) ] in
      let open_scan () =
        match router_call d (Protocol.Scan_eval { target; points; max_items = 2 }) with
        | Protocol.Scan_batch { cursor = Some c; _ } -> c
        | r -> Alcotest.failf "expected a cursor: %a" Protocol.pp_response r
      in
      let first = open_scan () in
      let survivors = [ open_scan (); open_scan () ] in
      check Alcotest.int "router cap respected" 2 (Router.open_cursors d.router);
      check
        (Alcotest.testable Protocol.pp_response ( = ))
        "the LRU cursor reads as unknown"
        (Protocol.Error_msg (Printf.sprintf "unknown cursor %d" first))
        (router_call d (Protocol.Scan_next { cursor = first; max_items = 5 }));
      check Alcotest.int "members hold only the survivors' cursors"
        (2 * Router.threshold d.router)
        (Array.fold_left (fun acc f -> acc + Server_filter.open_cursors f) 0 d.filters);
      List.iter
        (fun c -> ignore (drain (Router.handler d.router) ~max_items:1000 (Some c)))
        survivors;
      check_no_open_cursors ~what:"survivors drained" d)

(* Client -> router -> shards, every hop a socket: each request a
   server handled joined the client's trace.  The client's own calls
   reach the router; the router's member calls (counted by
   ssdb_router_shard_calls_total) reach the shards. *)
let test_routed_trace_over_sockets () =
  let tree =
    match
      Secshare_xml.Tree.of_string
        "<site><regions><europe><item><name>lamp</name></item>\
         <item><name>desk</name></item></europe></regions></site>"
    with
    | Ok tree -> tree
    | Error e -> failwith e
  in
  let d = make_deployment tree in
  let sock () =
    let path = Filename.temp_file "ssdb-shard" ".sock" in
    Sys.remove path;
    path
  in
  let serve path (on_request, on_close) =
    Server.start_sessions ~path ~session:(fun () -> { Server.on_request; on_close }) ()
  in
  let shard_paths = Array.to_list (Array.map (fun _ -> sock ()) d.filters) in
  let shard_servers =
    List.mapi
      (fun i path -> serve path (Server_filter.connection d.filters.(i)))
      shard_paths
  in
  let router =
    match Router.connect shard_paths with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let router_path = sock () in
  let router_server = serve router_path (Router.connection router) in
  let client =
    match
      DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping d.db) ~seed:(DB.seed d.db)
        ~path:router_path ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      DB.close client;
      Server.stop router_server;
      Router.close router;
      List.iter Server.stop shard_servers;
      teardown d)
    (fun () ->
      let member_calls () =
        List.fold_left
          (fun acc id ->
            acc
            + Registry.counter_value
                (Registry.counter ~labels:[ ("shard", string_of_int id) ]
                   "ssdb_router_shard_calls_total"))
          0 [ 1; 2; 3 ]
      in
      Trace.clear_recent ();
      let before = member_calls () in
      let r =
        match DB.query client "/site/regions/europe/item" with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let member_calls = member_calls () - before in
      let local = Test_support.must_query d.db "/site/regions/europe/item" in
      check Alcotest.(list int) "routed = local" (pres (DB.result_nodes local))
        (pres (DB.result_nodes r));
      check Alcotest.bool "a real trace id (0 is the untraced sentinel)" true
        (r.DB.trace_id <> 0L);
      let spans =
        List.filter
          (fun (s : Span.t) -> s.Span.trace_id = r.DB.trace_id)
          (Trace.recent ())
      in
      let named prefix (s : Span.t) =
        String.length s.Span.name > String.length prefix
        && String.sub s.Span.name 0 (String.length prefix) = prefix
      in
      let serve = List.filter (named "serve:") spans in
      let serve_ids = List.map (fun (s : Span.t) -> s.Span.span_id) serve in
      (* the router's own member calls are rpc spans inside its serve spans *)
      let in_serve (s : Span.t) =
        match s.Span.parent_id with Some p -> List.mem p serve_ids | None -> false
      in
      let client_rpc = List.filter (fun s -> named "rpc:" s && not (in_serve s)) spans in
      check Alcotest.bool "the router called its members" true (member_calls > 0);
      check Alcotest.int "every served request joined the client's trace"
        (List.length client_rpc + member_calls)
        (List.length serve))

(* --- the routing policy ---

   One serving group: the [threshold] live shards with the lowest ids
   serve every request, and shard 3 only steps in when one of them
   dies. *)

(* Every golden query in every mode, against [Reference]. *)
let check_reference ~note client =
  List.iter
    (fun q ->
      let ast = Secshare_xpath.Parser.parse_exn q in
      List.iter
        (fun (engine, strictness) ->
          let semantics =
            if strictness = QC.Strict then Secshare_core.Reference.Exact
            else Secshare_core.Reference.Containment
          in
          match DB.query ~engine ~strictness client q with
          | Error e -> Alcotest.failf "%s%s: %s" note q e
          | Ok r ->
              check Alcotest.(list int) (note ^ q)
                (Secshare_core.Reference.run ~semantics xmark_tree ast)
                (pres (DB.result_nodes r)))
        modes)
    golden_queries

let test_spare_shard_idle () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      check Alcotest.int "shard 3 saw the handshake" 1 !(d.seen.(2));
      List.iter
        (fun (name, rpc_mode) ->
          let client = client_of ~client:{ DB.default_client_config with rpc_mode } d in
          Fun.protect
            ~finally:(fun () -> DB.close client)
            (fun () -> check_golden ~note:(name ^ " client: ") d client))
        Test_support.rpc_modes;
      check Alcotest.int "shard 3 saw nothing after the handshake" 1 !(d.seen.(2));
      check Alcotest.bool "shards 1 and 2 served" true
        (!(d.seen.(0)) > 1 && !(d.seen.(1)) > 1))

(* The client's target goes to each group member unchanged: one member
   scan per member, however many rows it covers. *)
let test_one_scan_per_member () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let rows = Node_table.row_count (DB.table d.db) in
      let before = Array.map ( ! ) d.seen in
      let routed =
        scan_all (Router.handler d.router) ~points ~max_items:(rows + 1)
          (Protocol.Pre_ranges [ (1, rows + 1) ])
      in
      check Alcotest.int "every row" rows (List.length routed);
      check
        Alcotest.(array int)
        "member scans on shards 1, 2 and 3" [| 1; 1; 0 |]
        (Array.mapi (fun i n -> !(d.seen.(i)) - n) before);
      check_no_open_cursors ~what:"full-table scan" d)

let test_dead_member_replaced () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(0) := Transport_down;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          check_reference ~note:"shard 1 down: " client;
          check Alcotest.int "shard 1 was marked dead" 2 (Router.live_shards d.router);
          check Alcotest.bool "shard 3 served" true (!(d.seen.(2)) > 1)))

(* --- the field travels with the data --- *)

let f131 = Ring.of_prime ~p:131

(* Serve every shard of [d] on its own socket for [f]. *)
let with_shard_sockets d f =
  let serve filter =
    let path = Filename.temp_file "ssdb-shard" ".sock" in
    Sys.remove path;
    let session () =
      let on_request, on_close = Server_filter.connection filter in
      { Server.on_request; on_close }
    in
    (path, Server.start_sessions ~path ~session ())
  in
  let served = Array.to_list (Array.map serve d.filters) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, s) -> Server.stop s) served)
    (fun () -> f (List.map fst served))

(* [Router.connect] takes no field: it learns F_131 from the shards'
   handshakes and answers exactly as the single server does. *)
let test_router_learns_field () =
  let d = make_deployment ~ring:f131 xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      with_shard_sockets d (fun paths ->
          match Router.connect paths with
          | Error e -> Alcotest.fail e
          | Ok router ->
              let client =
                Result.get_ok
                  (DB.of_transport ~p:131 ~e:1 ~mapping:(DB.mapping d.db)
                     ~seed:(DB.seed d.db)
                     (Transport.local ~handler:(Router.handler router)))
              in
              Fun.protect
                ~finally:(fun () ->
                  DB.close client;
                  Router.close router)
                (fun () ->
                  check Alcotest.int "field learned" 131 (Router.manifest router).Manifest.p;
                  check_golden ~note:"F_131, learned: " { d with router } client)))

(* A shard of another deployment's field is refused when the router
   starts, with both fields named, in-process and over sockets (where
   every socket opened is closed again). *)
let test_mixed_fields_refused () =
  let d83 = make_deployment xmark_tree and d131 = make_deployment ~ring:f131 xmark_tree in
  Fun.protect
    ~finally:(fun () ->
      teardown d83;
      teardown d131)
    (fun () ->
      let local (d : deployment) i =
        Transport.local ~handler:(Server_filter.handler d.filters.(i))
      in
      (match Router.of_transports ring [ local d83 0; local d131 1; local d83 2 ] with
      | Ok _ -> Alcotest.fail "of_transports accepted a shard of F_131 in an F_83 router"
      | Error msg ->
          check Alcotest.string "of_transports"
            "router: shard 2 serves the field 131^1 but the deployment's field is 83^1" msg);
      with_shard_sockets d83 (fun p83 ->
          with_shard_sockets d131 (fun p131 ->
              let fds () = Array.length (Sys.readdir "/proc/self/fd") in
              let before = fds () in
              (match Router.connect [ List.nth p131 0; List.nth p83 1; List.nth p83 2 ] with
              | Ok _ -> Alcotest.fail "connect accepted shards of two fields"
              | Error msg ->
                  check Alcotest.string "connect"
                    "router: shard 2 serves the field 83^1 but the deployment's field is \
                     131^1"
                    msg);
              let rec settle tries =
                if fds () <> before && tries > 0 then begin
                  Unix.sleepf 0.02;
                  settle (tries - 1)
                end
              in
              settle 100;
              check Alcotest.int "every socket closed" before (fds ()))))

let () =
  Alcotest.run "shard"
    [
      ( "manifest",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "validate" `Quick test_manifest_validate;
          Alcotest.test_case "group consistency" `Quick test_manifest_group;
          Alcotest.test_case "a legacy bounds line is ignored" `Quick
            test_manifest_legacy_bounds;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
        ] );
      ( "split",
        [
          Alcotest.test_case "any 2 of 3 shards reconstruct every share" `Quick
            test_split_reconstructs;
          Alcotest.test_case "metadata preserved, shares masked" `Quick
            test_split_metadata_and_masking;
          Alcotest.test_case "dealer output is byte-identical" `Quick
            test_dealer_digests;
          Alcotest.test_case "bad threshold geometry is rejected" `Quick
            test_split_rejects_bad_geometry;
        ] );
      ( "router",
        [
          Alcotest.test_case "golden equality vs single server" `Quick
            test_router_golden;
          (* F_257 has no byte tables: shares recombine through the
             unpack / combine_vectors / pack fallback *)
          Alcotest.test_case "golden equality over a table-less field" `Quick
            (test_router_golden ~ring:(Ring.of_prime ~p:257));
          Alcotest.test_case "trivial 1-shard deployment" `Quick
            test_router_single_shard;
          Alcotest.test_case "parent steps match the reference" `Quick
            test_parent_steps_match_reference;
          test_router_qcheck;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "2 of 3 serve identically" `Quick
            test_kill_one_before_query;
          Alcotest.test_case "kill_shard hook" `Quick test_kill_shard_hook;
          Alcotest.test_case "below threshold fails cleanly" `Quick
            test_below_threshold_fails_cleanly;
          Alcotest.test_case "application errors propagate" `Quick
            test_app_error_propagates;
        ] );
      ( "routing",
        [
          Alcotest.test_case "the spare shard stays idle" `Quick test_spare_shard_idle;
          Alcotest.test_case "one member scan per group member" `Quick
            test_one_scan_per_member;
          Alcotest.test_case "a dead member is replaced by the spare" `Quick
            test_dead_member_replaced;
        ] );
      ( "scans",
        [
          Alcotest.test_case "bounded targets split exactly" `Quick
            test_bounded_target_equivalence;
          Alcotest.test_case "mid-scan failover is invisible" `Quick
            test_mid_scan_failover;
          Alcotest.test_case "connection close evicts cursors" `Quick
            test_connection_scoped_cursors;
          Alcotest.test_case "sessions own their cursors" `Quick
            test_sessions_own_their_cursors;
          Alcotest.test_case "router cap evicts lru" `Quick test_router_cap_evicts_lru;
        ] );
      ( "lying",
        [
          Alcotest.test_case "malformed shares are typed errors" `Quick test_lying_shares;
          Alcotest.test_case "malformed scans are typed errors, cursors closed" `Quick
            test_lying_scans;
          Alcotest.test_case "malformed evaluations name the shard" `Quick
            test_lying_evaluations;
          Alcotest.test_case "every member request is counted" `Quick
            test_shard_calls_counted;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "routed trace over sockets" `Quick
            test_routed_trace_over_sockets;
        ] );
      ( "field",
        [
          Alcotest.test_case "the router learns the field" `Quick test_router_learns_field;
          Alcotest.test_case "a shard of another field is refused" `Quick
            test_mixed_fields_refused;
        ] );
    ]
