(* The Database facade: bundles, batching, pattern queries, error
   surfaces. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Tree = Secshare_xml.Tree

let check = Alcotest.check
let pres = Test_support.pres_of_metas

let with_temp_dir f =
  let dir = Filename.temp_file "ssdb-bundle" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let sample_db () =
  let doc = Secshare_xmark.Generate.generate ~factor:0.4 () in
  Test_support.db_of_tree doc

let queries = [ "/site"; "/site/regions/europe/item"; "//bidder/date" ]

let test_bundle_roundtrip () =
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      check Alcotest.bool "shares.db exists" true
        (Sys.file_exists (Filename.concat dir "shares.db"));
      check Alcotest.bool "map exists" true
        (Sys.file_exists (Filename.concat dir "client.map"));
      match DB.open_bundle ~dir () with
      | Error e -> Alcotest.fail e
      | Ok reopened ->
          List.iter
            (fun q ->
              let original = Test_support.must_query ~strictness:QC.Strict db q in
              let roundtrip =
                match DB.query ~strictness:QC.Strict reopened q with
                | Ok r -> r
                | Error e -> Alcotest.failf "%s: %s" q e
              in
              check Alcotest.(list int) q (pres (DB.result_nodes original)) (pres (DB.result_nodes roundtrip)))
            queries;
          DB.close reopened)

let test_bundle_missing_dir () =
  match DB.open_bundle ~dir:"/nonexistent/bundle/here" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened a missing bundle"

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* The bundle's field is its map's [q] header, and a bundle has no
   other config file: a header naming no admissible field refuses the
   open before any table opens. *)
let test_bundle_corrupt_map_header () =
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      check Alcotest.(list string) "bundle files"
        [ "client.map"; "client.seed"; "nums.db"; "shares.db" ]
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      let map = Filename.concat dir "client.map" in
      let body = In_channel.with_open_text map In_channel.input_all in
      let eol = String.index body '\n' in
      let rest = String.sub body eol (String.length body - eol) in
      let before = open_fds () in
      List.iter
        (fun (q, want) ->
          Out_channel.with_open_text map (fun oc -> Printf.fprintf oc "q = %d%s" q rest);
          match DB.open_bundle ~dir () with
          | Error msg -> check Alcotest.string (Printf.sprintf "q = %d" q) want msg
          | Ok _ -> Alcotest.failf "opened a bundle whose map has q = %d" q)
        [
          (84, "map: q = 84 is not a prime power");
          (1 lsl 21, "map: q = 2097152 exceeds the safe field-order bound of 1048576");
        ];
      check Alcotest.int "no table left open" before (open_fds ()))

(* A bundle whose numeric column is refused leaves its shares table
   closed: 20 refused opens leave the descriptor count where it was. *)
let test_bundle_refused_nums_closes_shares () =
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      DB.close db;
      Test_support.stamp (Filename.concat dir "nums.db") "NOTATABL";
      let before = open_fds () in
      for _ = 1 to 20 do
        match DB.open_bundle ~dir () with
        | Error msg ->
            check Alcotest.bool ("refused: " ^ msg) true
              (Test_support.contains ~sub:"nums: " msg)
        | Ok _ -> Alcotest.fail "opened a bundle whose nums.db header is overwritten"
      done;
      check Alcotest.int "open descriptors" before (open_fds ()))

(* [of_transport] and [connect] hold the caller's (p, e) to the map's
   [q]: a mismatch is refused up front, naming both fields, and the
   transport handed to [of_transport] is closed. *)
let test_field_must_match_map () =
  let db = sample_db () in
  let path = Filename.temp_file "ssdb-db" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () ->
      Secshare_rpc.Server.stop server;
      DB.close db)
    (fun () ->
      let mapping = DB.mapping db and seed = DB.seed db in
      let want = "field 131^1 = 131 differs from the map's q = 83" in
      (match DB.connect ~p:131 ~e:1 ~mapping ~seed ~path () with
      | Error msg -> check Alcotest.string "connect" want msg
      | Ok _ -> Alcotest.fail "connect accepted p = 131 with a q = 83 map");
      match Secshare_rpc.Transport.socket path with
      | Error msg -> Alcotest.fail msg
      | Ok transport -> (
          (match DB.of_transport ~p:131 ~e:1 ~mapping ~seed transport with
          | Error msg -> check Alcotest.string "of_transport" want msg
          | Ok _ -> Alcotest.fail "of_transport accepted p = 131 with a q = 83 map");
          match Secshare_rpc.Transport.call transport Secshare_rpc.Protocol.Ping with
          | Secshare_rpc.Protocol.Error_msg "transport closed" -> ()
          | r ->
              Alcotest.failf "transport still open: %a" Secshare_rpc.Protocol.pp_response r))

let test_bundle_shares_public () =
  (* re-opening the shares with a *different* seed must yield garbage:
     the published half alone is useless *)
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      Secshare_prg.Seed.save (Filename.concat dir "client.seed")
        (Secshare_prg.Seed.of_passphrase "attacker guess");
      match DB.open_bundle ~dir () with
      | Error e -> Alcotest.fail e
      | Ok hijacked ->
          let r =
            Result.get_ok (DB.query ~strictness:QC.Non_strict hijacked "/site")
          in
          check Alcotest.(list int) "no matches without the real seed" []
            (pres (DB.result_nodes r));
          DB.close hijacked)

(* A bundle whose shares table carries a retired format's magic (this
   build's file with [page] stamped over its first 8 bytes), first
   alone and then next to a retired log holding a record: the open
   names the retired format and touches neither file. *)
let test_bundle_retired_format ~page ~log ~why () =
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      let shares = Filename.concat dir "shares.db" in
      let wal = shares ^ ".wal" in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let expect_refusal what ~names files =
        let before = List.map read files in
        (match DB.open_bundle ~dir () with
        | Ok _ -> Alcotest.failf "%s: opened" what
        | Error msg ->
            List.iter
              (fun sub ->
                check Alcotest.bool
                  (Printf.sprintf "%s: %S names %s" what msg sub)
                  true
                  (Test_support.contains ~sub msg))
              [ names; why; "re-encode" ]);
        check Alcotest.(list string) (what ^ ": files untouched") before (List.map read files)
      in
      Test_support.stamp shares page;
      expect_refusal "retired shares" ~names:page [ shares ];
      Test_support.retired_log ~magic:log wal;
      expect_refusal "retired shares and log" ~names:log [ shares; wal ])

(* The seed and the map are client secrets: saving a bundle over
   world-readable ones leaves both readable by their owner only. *)
let test_bundle_secrets_private () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let secrets = [ "client.seed"; "client.map" ] in
      List.iter
        (fun name ->
          let path = Filename.concat dir name in
          Out_channel.with_open_bin path (fun oc -> output_string oc "stale\n");
          Unix.chmod path 0o644)
        secrets;
      (match DB.save_bundle (sample_db ()) ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      List.iter
        (fun name ->
          check Alcotest.int (name ^ " mode") 0o600
            ((Unix.stat (Filename.concat dir name)).Unix.st_perm land 0o777))
        secrets)

let test_rpc_batching_equivalence () =
  let doc = Secshare_xmark.Generate.generate ~factor:0.4 () in
  let mk rpc_mode =
    let config =
      {
        DB.default_config with
        seed = Some Test_support.test_seed;
        client = { DB.default_client_config with rpc_mode };
      }
    in
    Result.get_ok (DB.create_tree ~config doc)
  in
  let batched = mk DB.Batched and unbatched = mk DB.Per_node in
  List.iter
    (fun q ->
      let rb =
        Result.get_ok (DB.query ~engine:DB.Simple ~strictness:QC.Non_strict batched q)
      in
      let ru =
        Result.get_ok (DB.query ~engine:DB.Simple ~strictness:QC.Non_strict unbatched q)
      in
      check Alcotest.(list int) ("results " ^ q) (pres (DB.result_nodes rb)) (pres (DB.result_nodes ru));
      check Alcotest.int ("same evaluations " ^ q)
        rb.DB.metrics.Secshare_core.Metrics.evaluations
        ru.DB.metrics.Secshare_core.Metrics.evaluations;
      if List.length (DB.result_nodes rb) > 0 then
        check Alcotest.bool ("unbatched needs more round trips " ^ q) true
          (ru.DB.rpc_calls >= rb.DB.rpc_calls))
    queries;
  DB.close batched;
  DB.close unbatched

(* --- §4 regular expressions in contains() --- *)

let regex_db () =
  let doc =
    Result.get_ok
      (Tree.of_string
         "<people><name>joan</name><name>jean</name><name>jon</name><name>johnson</name></people>")
  in
  Test_support.db_of_tree ~trie:Secshare_trie.Expand.Compressed doc

let count_matches db q =
  List.length (DB.result_nodes (Test_support.must_query ~strictness:QC.Strict db q))

let test_contains_dot () =
  let db = regex_db () in
  (* j.an: joan and jean, not jon/johnson *)
  check Alcotest.int "j.an" 2 (count_matches db "//name[contains(text(), \"j.an\")]");
  (* j.n: jon and jean?  j-?-n: jon has j,o,n; jean j,e,a... no.  jon only *)
  check Alcotest.int "j.n" 1 (count_matches db "//name[contains(text(), \"j.n\")]")

let test_contains_dot_star () =
  let db = regex_db () in
  (* j.*n: result nodes are the final n character nodes — one per name,
     except johnson whose chain has two n's below the j *)
  check Alcotest.int "j.*n" 5 (count_matches db "//name[contains(text(), \"j.*n\")]");
  (* j.*h: only johnson *)
  check Alcotest.int "j.*h" 1 (count_matches db "//name[contains(text(), \"j.*h\")]")

let test_contains_bad_pattern () =
  let db = regex_db () in
  match DB.query db "//name[contains(text(), \"j%n\")]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an invalid pattern"

let test_storage_stats_consistency () =
  let db = sample_db () in
  let stats = DB.storage_stats db in
  check Alcotest.bool "rows positive" true (stats.DB.rows > 0);
  check Alcotest.int "encode stats agree" stats.DB.rows
    stats.DB.encode_stats.Secshare_core.Encode.nodes;
  check Alcotest.bool "data covers the shares" true
    (stats.DB.data_bytes >= stats.DB.rows * 72)

let test_field_order_overflow_rejected () =
  (* 83^20 wraps the native int: the configuration must be rejected
     with a clear error, not produce a bogus field size *)
  let tree = Tree.element "a" [ Tree.element "b" [] ] in
  List.iter
    (fun e ->
      let config = { DB.default_config with e; seed = Some Test_support.test_seed } in
      match DB.create_tree ~config tree with
      | Error msg ->
          check Alcotest.bool
            (Printf.sprintf "e = %d names the bound: %s" e msg)
            true (Test_support.contains ~sub:"bound" msg)
      | Ok _ -> Alcotest.failf "e = %d accepted despite overflow" e)
    [ 4; 20; 40 ];
  (* a sane extension degree still works *)
  match DB.create_tree ~config:{ DB.default_config with e = 2; p = 5 } tree with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "p=5 e=2 should be fine: %s" msg

let test_accuracy_empty_result () =
  let db = Test_support.db_of_tree (Tree.element "a" [ Tree.element "b" [] ]) in
  (* both result sets empty -> accuracy defined as 1.0 *)
  match DB.accuracy db "//zzz" with
  | Ok a -> check (Alcotest.float 0.0001) "empty/empty" 1.0 a
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "database"
    [
      ( "bundles",
        [
          Alcotest.test_case "save/open roundtrip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "missing directory" `Quick test_bundle_missing_dir;
          Alcotest.test_case "corrupt map header" `Quick test_bundle_corrupt_map_header;
          Alcotest.test_case "refused nums.db closes shares.db" `Quick
            test_bundle_refused_nums_closes_shares;
          Alcotest.test_case "shares alone are useless" `Quick test_bundle_shares_public;
          Alcotest.test_case "retired format refused" `Quick
            (test_bundle_retired_format ~page:"SSDBPAG1" ~log:"SSDBWAL2"
               ~why:"first-refill sampler");
          Alcotest.test_case "coefficient-domain format refused" `Quick
            (test_bundle_retired_format ~page:"SSDBPAG2" ~log:"SSDBWAL3"
               ~why:"coefficient vectors");
          Alcotest.test_case "secrets readable by the owner only" `Quick
            test_bundle_secrets_private;
        ] );
      ( "batching",
        [ Alcotest.test_case "batched = unbatched" `Quick test_rpc_batching_equivalence ] );
      ( "contains patterns",
        [
          Alcotest.test_case "dot" `Quick test_contains_dot;
          Alcotest.test_case "dot-star" `Quick test_contains_dot_star;
          Alcotest.test_case "invalid pattern" `Quick test_contains_bad_pattern;
        ] );
      ( "facade",
        [
          Alcotest.test_case "storage stats" `Quick test_storage_stats_consistency;
          Alcotest.test_case "field-order overflow rejected" `Quick
            test_field_order_overflow_rejected;
          Alcotest.test_case "the field must match the map" `Quick test_field_must_match_map;
          Alcotest.test_case "accuracy of empty results" `Quick test_accuracy_empty_result;
        ] );
    ]
