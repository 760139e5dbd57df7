(* End-to-end client/server deployment over a Unix-domain socket — the
   paper's figure-3 architecture with real message passing. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common

let check = Alcotest.check

let with_served_db f =
  let doc = Secshare_xmark.Generate.generate ~factor:0.5 () in
  let config =
    { DB.default_config with seed = Some Test_support.test_seed }
  in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () -> f db path)

let connect db path =
  match DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path () with
  | Ok session -> session
  | Error e -> failwith e

let queries =
  [ "/site"; "/site/regions/europe/item"; "//bidder/date"; "/site/*/person//city" ]

let test_remote_matches_local () =
  with_served_db (fun db path ->
      let session = connect db path in
      Fun.protect
        ~finally:(fun () -> DB.close session)
        (fun () ->
          List.iter
            (fun q ->
              List.iter
                (fun (engine, strictness) ->
                  let local = Test_support.must_query ~engine ~strictness db q in
                  match DB.query ~engine ~strictness session q with
                  | Error e -> Alcotest.failf "%s remote: %s" q e
                  | Ok remote ->
                      check
                        Alcotest.(list int)
                        (Printf.sprintf "%s" q)
                        (Test_support.pres_of_metas (DB.result_nodes local))
                        (Test_support.pres_of_metas (DB.result_nodes remote)))
                [
                  (DB.Simple, QC.Non_strict);
                  (DB.Advanced, QC.Non_strict);
                  (DB.Advanced, QC.Strict);
                ])
            queries))

let test_remote_wrong_seed_finds_nothing () =
  (* without the right seed the client regenerates garbage shares: the
     data is meaningless, exactly as the paper promises *)
  with_served_db (fun db path ->
      match
        DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db)
          ~seed:(Secshare_prg.Seed.of_passphrase "wrong seed") ~path ()
      with
      | Error e -> Alcotest.fail e
      | Ok session ->
          Fun.protect
            ~finally:(fun () -> DB.close session)
            (fun () ->
              match DB.query ~engine:DB.Simple ~strictness:QC.Non_strict session "/site" with
              | Error e -> Alcotest.fail e
              | Ok r ->
                  check Alcotest.(list int) "root does not even match /site" []
                    (Test_support.pres_of_metas (DB.result_nodes r))))

let test_remote_sessions_are_independent () =
  with_served_db (fun db path ->
      let s1 = connect db path and s2 = connect db path in
      Fun.protect
        ~finally:(fun () ->
          DB.close s1;
          DB.close s2)
        (fun () ->
          let r1 = Result.get_ok (DB.query s1 "/site") in
          let r2 = Result.get_ok (DB.query s2 "//bidder/date") in
          check Alcotest.bool "both answered" true
            (List.length (DB.result_nodes r1) = 1 && (DB.result_nodes r2) <> [])))

let test_session_after_server_stop () =
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let session = connect db path in
  Secshare_rpc.Server.stop server;
  (match DB.query session "/site" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "query succeeded after server stop");
  DB.close session

(* --- resilience: cursor lifecycle across connection failures --- *)

module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Server_filter = Secshare_core.Server_filter

let root_of call =
  match call Protocol.Root with
  | Protocol.Node_opt (Some meta) -> meta
  | r -> Alcotest.failf "root: %a" Protocol.pp_response r

(* A point-free scan over the root's strict descendants: the whole
   document but the root, one row per batch. *)
let subtree_scan ?(points = []) ?(max_items = 1) (root : Protocol.node_meta) =
  Protocol.Scan_eval
    {
      target = Protocol.Pre_ranges [ (root.Protocol.pre + 1, root.Protocol.post) ];
      points;
      max_items;
    }

(* Open a scan cursor over the whole document on a raw transport,
   leaving it mid-drain after the first one-row batch. *)
let open_dangling_cursor transport =
  let root = root_of (Transport.call transport) in
  match Transport.call transport (subtree_scan root) with
  | Protocol.Scan_batch { cursor = Some cursor; _ } -> cursor
  | Protocol.Scan_batch { cursor = None; _ } ->
      Alcotest.fail "document too small: scan drained"
  | r -> Alcotest.failf "scan_eval: %a" Protocol.pp_response r

let wait_for ~msg predicate =
  let rec go n =
    if predicate () then ()
    else if n = 0 then Alcotest.fail msg
    else begin
      Thread.delay 0.02;
      go (n - 1)
    end
  in
  go 150

let test_disconnect_evicts_cursors () =
  (* a client that vanishes mid-drain must not leak its cursor: the
     per-connection close hook evicts it *)
  with_served_db (fun db path ->
      let transport =
        match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e
      in
      ignore (open_dangling_cursor transport);
      check Alcotest.int "cursor open while draining" 1 (DB.open_cursors db);
      Transport.close transport;
      wait_for ~msg:"cursor leaked after disconnect" (fun () -> DB.open_cursors db = 0);
      let stats = DB.cursor_stats db in
      check Alcotest.bool "eviction counted" true
        (stats.Server_filter.evicted_cursors >= 1))

let test_drain_evicts_cursors () =
  (* after a graceful server drain every connection's close hook has
     run: zero cursors remain open *)
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let transport =
    match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e
  in
  ignore (open_dangling_cursor transport);
  check Alcotest.int "cursor open mid-drain" 1 (DB.open_cursors db);
  Secshare_rpc.Server.stop server;
  check Alcotest.int "no cursors after drain" 0 (DB.open_cursors db);
  Transport.close transport

let test_cursor_ttl_eviction () =
  (* abandoned cursors expire once idle past the TTL, with a fake
     clock so the test needs no sleeps *)
  let clock = ref 1000.0 in
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let filter =
    Server_filter.create ~cursor_ttl:30.0 ~now:(fun () -> !clock) (DB.ring db)
      (DB.table db)
  in
  let root = root_of (Server_filter.handler filter) in
  (match Server_filter.handler filter (subtree_scan root) with
  | Protocol.Scan_batch { cursor = Some _; _ } -> ()
  | _ -> Alcotest.fail "no cursor");
  check Alcotest.int "cursor open" 1 (Server_filter.open_cursors filter);
  clock := !clock +. 10.0;
  check Alcotest.int "young cursor survives sweep" 0 (Server_filter.sweep_cursors filter);
  clock := !clock +. 25.0;
  check Alcotest.int "stale cursor swept" 1 (Server_filter.sweep_cursors filter);
  check Alcotest.int "none left" 0 (Server_filter.open_cursors filter);
  let stats = Server_filter.cursor_stats filter in
  check Alcotest.int "expiry counted" 1 stats.Server_filter.expired_cursors

let test_cursor_cap_evicts_lru () =
  let clock = ref 0.0 in
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let filter =
    Server_filter.create ~max_cursors:3 ~now:(fun () -> !clock) (DB.ring db) (DB.table db)
  in
  let root = root_of (Server_filter.handler filter) in
  let open_cursor () =
    clock := !clock +. 1.0;
    match Server_filter.handler filter (subtree_scan root) with
    | Protocol.Scan_batch { cursor = Some id; _ } -> id
    | _ -> Alcotest.fail "no cursor"
  in
  let first = open_cursor () in
  let _ = open_cursor () and _ = open_cursor () and _ = open_cursor () in
  check Alcotest.int "cap respected" 3 (Server_filter.open_cursors filter);
  (match
     Server_filter.handler filter (Protocol.Scan_next { cursor = first; max_items = 1 })
   with
  | Protocol.Error_msg _ -> () (* the oldest cursor was the LRU victim *)
  | _ -> Alcotest.fail "LRU cursor should have been evicted");
  let stats = Server_filter.cursor_stats filter in
  check Alcotest.int "one cap eviction" 1 stats.Server_filter.evicted_cursors

let test_sessions_own_their_cursors () =
  (* Cursor ids are sequential and process-wide, so a second session
     can name the first one's cursor.  It must get exactly the reply an
     unknown id gets, and must not drain or close the cursor: the owner
     still reads every row. *)
  with_served_db (fun db path ->
      let connect () =
        match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e
      in
      let a = connect () and b = connect () in
      Fun.protect
        ~finally:(fun () ->
          Transport.close a;
          Transport.close b)
        (fun () ->
          let root = root_of (Transport.call a) in
          let reference =
            let filter = Server_filter.create (DB.ring db) (DB.table db) in
            match
              Server_filter.handler filter
                (subtree_scan ~points:[ 5 ] ~max_items:1_000_000 root)
            with
            | Protocol.Scan_batch { rows; cursor = None } -> rows
            | r -> Alcotest.failf "reference scan: %a" Protocol.pp_response r
          in
          let first, cursor =
            match Transport.call a (subtree_scan ~points:[ 5 ] ~max_items:10 root) with
            | Protocol.Scan_batch { rows; cursor = Some c } -> (rows, c)
            | r -> Alcotest.failf "scan_eval: %a" Protocol.pp_response r
          in
          let unknown id = Protocol.Error_msg (Printf.sprintf "unknown cursor %d" id) in
          let reply = Alcotest.testable Protocol.pp_response ( = ) in
          check reply "another session's cursor reads as unknown" (unknown cursor)
            (Transport.call b (Protocol.Scan_next { cursor; max_items = 10 }));
          check reply "as does an id never issued" (unknown (cursor + 1000))
            (Transport.call b (Protocol.Scan_next { cursor = cursor + 1000; max_items = 10 }));
          check reply "closing it is a silent no-op" Protocol.Pong
            (Transport.call b (Protocol.Cursor_close cursor));
          check Alcotest.int "the owner's cursor is still open" 1 (DB.open_cursors db);
          let rec drain acc = function
            | None -> List.concat (List.rev acc)
            | Some c -> (
                match Transport.call a (Protocol.Scan_next { cursor = c; max_items = 10 }) with
                | Protocol.Scan_batch { rows; cursor } -> drain (rows :: acc) cursor
                | r -> Alcotest.failf "scan_next: %a" Protocol.pp_response r)
          in
          let rows = drain [ first ] (Some cursor) in
          check Alcotest.int "the owner reads every row" (List.length reference)
            (List.length rows);
          check Alcotest.bool "rows and evaluations match a one-shot scan" true
            (rows = reference);
          check Alcotest.int "drained" 0 (DB.open_cursors db)))

let test_remote_recovers_across_server_restart () =
  (* the acceptance scenario at the query level: the server dies and
     comes back between queries; a session with retries recovers *)
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let session =
    match
      DB.connect
        ~client:{ DB.default_client_config with timeout = Some 2.0; max_retries = 5 }
        ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path ()
    with
    | Ok session -> session
    | Error e -> Alcotest.fail e
  in
  let expected =
    Test_support.pres_of_metas (DB.result_nodes (Test_support.must_query db "/site"))
  in
  (match DB.query session "/site" with
  | Ok r ->
      check Alcotest.(list int) "before restart" expected
        (Test_support.pres_of_metas (DB.result_nodes r))
  | Error e -> Alcotest.failf "before restart: %s" e);
  Secshare_rpc.Server.stop server;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () ->
      (match DB.query session "/site" with
      | Ok r ->
          check Alcotest.(list int) "after restart" expected
            (Test_support.pres_of_metas (DB.result_nodes r))
      | Error e -> Alcotest.failf "after restart: %s" e);
      let counters = DB.rpc_counters session in
      check Alcotest.bool "recovery used reconnect" true
        (counters.Transport.reconnects >= 1);
      DB.close session)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* The server shares this process, so a closed client socket frees
   the server's end only once its event loop sees the hang-up. *)
let fds_settle_to target =
  let rec go tries =
    let now = open_fds () in
    if now = target || tries = 0 then now
    else begin
      Thread.delay 0.02;
      go (tries - 1)
    end
  in
  go 100

let test_bad_field_rejected_without_leak () =
  with_served_db (fun db path ->
      let mapping = DB.mapping db and seed = DB.seed db in
      let before = open_fds () in
      List.iter
        (fun (p, e) ->
          let label = Printf.sprintf "p = %d, e = %d" p e in
          let refused what = function
            | Error _ -> ()
            | Ok handle ->
                DB.close handle;
                Alcotest.failf "%s: %s accepted a bad field" label what
          in
          refused "connect" (DB.connect ~p ~e ~mapping ~seed ~path ());
          match Transport.socket path with
          | Error msg -> Alcotest.failf "%s: socket: %s" label msg
          | Ok transport ->
              refused "of_transport" (DB.of_transport ~p ~e ~mapping ~seed transport))
        [ (83, 0); (84, 1) ];
      check Alcotest.int "no descriptor leaked" before (fds_settle_to before))

(* A server whose replies are malformed.  The client checks every
   share it reconstructs, every evaluation it combines and every
   aggregate sum it unblinds, so the query fails with a filter error,
   in-process and over a socket — never with a stray exception or an
   answer.  Shares are corrupted on a field with byte tables (F_83)
   and on one without (F_257); evaluations and sums are pushed out of
   their field (by q, resp. the numeric modulus) on F_83 and
   GF(3^4). *)
let test_malformed_shares_reply () =
  let doc =
    Result.get_ok
      (Secshare_xml.Tree.of_string
         ("<site><regions><europe><item><name/><price>3.50</price></item>"
         ^ "<item><price>1.25</price></item></europe></regions></site>"))
  in
  let fused = DB.default_client_config in
  let batched = { fused with DB.rpc_fused_scan = false } in
  let per_node = { batched with DB.rpc_batching = false } in
  let item = "/site/regions/europe/item" in
  let lying_query ~p ~e ~db ~label ~client ~lie ~query ~engine ~strictness ~expect =
    let server =
      Server_filter.create ?numbers:(DB.numbers_table db) (DB.ring db) (DB.table db)
    in
    let handler request = lie (Server_filter.handler server request) in
    let mapping = DB.mapping db and seed = DB.seed db in
    let expect_filter_error how handle =
      let label = Printf.sprintf "%s, %s" label how in
      Fun.protect
        ~finally:(fun () -> DB.close handle)
        (fun () ->
          match DB.query ~engine ~strictness handle query with
          | Error msg ->
              check Alcotest.string label expect
                (String.sub msg 0 (min (String.length msg) (String.length expect)))
          | Ok _ -> Alcotest.failf "%s: answered" label
          | exception exn ->
              Alcotest.failf "%s: raised %s" label (Printexc.to_string exn))
    in
    Fun.protect
      ~finally:(fun () -> Server_filter.close server)
      (fun () ->
        (match
           DB.of_transport ~client ~p ~e ~mapping ~seed (Transport.local ~handler)
         with
        | Ok handle -> expect_filter_error "in-process" handle
        | Error e -> Alcotest.fail e);
        let path = Filename.temp_file "ssdb-lying" ".sock" in
        Sys.remove path;
        let flaky = Test_support.Flaky.start ~handler ~plan:(fun _ -> None) path in
        Fun.protect
          ~finally:(fun () -> Test_support.Flaky.stop flaky)
          (fun () ->
            match DB.connect ~client ~p ~e ~mapping ~seed ~path () with
            | Ok handle -> expect_filter_error "socket" handle
            | Error e -> Alcotest.fail e))
  in
  List.iter
    (fun p ->
      let db = Test_support.db_of_tree ~p doc in
      let bits = Secshare_poly.Codec.bits_per_coeff p in
      (* the first coefficient decodes to 2^bits - 1 >= q *)
      let out_of_range share =
        let share = Bytes.copy share in
        for b = 0 to bits - 1 do
          Bytes.set_uint8 share (b lsr 3)
            (Bytes.get_uint8 share (b lsr 3) lor (1 lsl (b land 7)))
        done;
        share
      in
      List.iter
        (fun (what, corrupt) ->
          lying_query ~p ~e:1 ~db
            ~label:(Printf.sprintf "F_%d %s shares" p what)
            ~client:fused
            ~lie:(function
              | Protocol.Shares_data shares ->
                  Protocol.Shares_data (List.map corrupt shares)
              | response -> response)
            ~query:item ~engine:DB.Advanced ~strictness:QC.Strict
            ~expect:"filter: malformed Shares_data reply: ")
        [
          ("halved", fun share -> Bytes.sub share 0 (Bytes.length share / 2));
          ("out-of-range", out_of_range);
        ];
      DB.close db)
    [ 83; 257 ];
  List.iter
    (fun (p, e) ->
      let db = Test_support.db_of_tree ~p ~e doc in
      let q = (DB.ring db).Secshare_poly.Ring.order in
      let label what =
        if e = 1 then Printf.sprintf "F_%d %s" p what
        else Printf.sprintf "GF(%d^%d) %s" p e what
      in
      let shift = List.map (fun v -> v + q) in
      List.iter
        (fun (what, client) ->
          lying_query ~p ~e ~db ~label:(label what) ~client
            ~lie:(function
              | Protocol.Values vs -> Protocol.Values (shift vs)
              | response -> response)
            ~query:item ~engine:DB.Simple ~strictness:QC.Non_strict
            ~expect:"filter: malformed Values reply: value outside the field")
        [ ("batched values + q", batched); ("per-node values + q", per_node) ];
      lying_query ~p ~e ~db ~label:(label "scan values + q") ~client:fused
        ~lie:(function
          | Protocol.Scan_batch { rows; cursor } ->
              Protocol.Scan_batch
                { rows = List.map (fun (meta, vs) -> (meta, shift vs)) rows; cursor }
          | response -> response)
        ~query:item ~engine:DB.Simple ~strictness:QC.Non_strict
        ~expect:"filter: malformed Scan_batch reply: value outside the field";
      List.iter
        (fun query ->
          lying_query ~p ~e ~db
            ~label:(label (query ^ ", sum + modulus"))
            ~client:fused
            ~lie:(function
              | Protocol.Agg_partial { count; sum } ->
                  Protocol.Agg_partial
                    { count; sum = sum + Secshare_core.Numeric.modulus }
              | response -> response)
            ~query ~engine:DB.Advanced ~strictness:QC.Strict
            ~expect:"filter: malformed Agg_partial reply: sum outside the field")
        [ "sum(//price)"; "avg(//price)" ];
      DB.close db)
    [ (83, 1); (3, 4) ]

let () =
  Alcotest.run "remote"
    [
      ( "socket deployment",
        [
          Alcotest.test_case "remote = local on all configs" `Slow test_remote_matches_local;
          Alcotest.test_case "wrong seed yields nothing" `Quick
            test_remote_wrong_seed_finds_nothing;
          Alcotest.test_case "independent sessions" `Quick test_remote_sessions_are_independent;
          Alcotest.test_case "server stop surfaces errors" `Quick test_session_after_server_stop;
          Alcotest.test_case "bad field refused, nothing leaked" `Quick
            test_bad_field_rejected_without_leak;
          Alcotest.test_case "malformed shares reply is an error" `Quick
            test_malformed_shares_reply;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "disconnect evicts cursors" `Quick
            test_disconnect_evicts_cursors;
          Alcotest.test_case "drain evicts cursors" `Quick test_drain_evicts_cursors;
          Alcotest.test_case "cursor ttl eviction" `Quick test_cursor_ttl_eviction;
          Alcotest.test_case "cursor cap evicts lru" `Quick test_cursor_cap_evicts_lru;
          Alcotest.test_case "sessions own their cursors" `Quick
            test_sessions_own_their_cursors;
          Alcotest.test_case "session recovers across restart" `Quick
            test_remote_recovers_across_server_restart;
        ] );
    ]
