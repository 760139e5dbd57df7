(* The binaries' shared front end, driven through the built
   executables.  Only ssdb_encode takes the field (-p, -e); the others
   read it from the files that hold it — ssdb_query from the map's q
   header, ssdb_server from the database's manifest, ssdb_router from
   its shards' handshakes — and every binary refuses a bad field with
   the one admission check's message before it writes a file, binds a
   socket or opens its trace log.  A bad command line (a flag's value,
   an unknown flag) exits with cmdliner's usage code 124; a failure of
   the run itself (a file, a socket, a document) exits 1.  ssdb_encode
   refuses a shard geometry or document it cannot encode without
   leaving a file behind; and ssdb_gen refuses a target it cannot meet
   the same way. *)

let check = Alcotest.check

(* dune runs the test from _build/default/test *)
let exe name =
  Filename.concat (Filename.concat (Sys.getcwd ()) "../bin") (name ^ ".exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [name args] in [dir] with stdout and stderr captured; a run
   still alive after [limit] seconds is killed and reported as such. *)
let run_exe ?(limit = 10.0) ~dir name args =
  let out_path = Filename.concat dir "stdout"
  and err_path = Filename.concat dir "stderr" in
  let open_out path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
  let out = open_out out_path and err = open_out err_path in
  let cwd = Sys.getcwd () in
  let prog = exe name in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Unix.close out;
        Unix.close err)
      (fun () ->
        Unix.create_process prog (Array.of_list (name :: args)) Unix.stdin out err)
  in
  let deadline = Unix.gettimeofday () +. limit in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid : int * Unix.process_status);
        None
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Some (1000 + n)
  in
  let code = wait () in
  (code, read_file out_path, read_file err_path)

let expect_refusal ?(code = 1) ~what ~dir name args message =
  let want = code in
  match run_exe ~dir name args with
  | None, _, _ -> Alcotest.failf "%s: still running after 10 s" what
  | Some code, out, err ->
      check Alcotest.int (what ^ ": exit code") want code;
      check Alcotest.string (what ^ ": stderr")
        (Printf.sprintf "%s: %s\n" name message)
        err;
      check Alcotest.string (what ^ ": stdout") "" out

let must_succeed ~dir name args =
  match run_exe ~dir name args with
  | Some 0, _, _ -> ()
  | Some code, _, err -> Alcotest.failf "%s exited %d: %s" name code err
  | None, _, _ -> Alcotest.failf "%s hung" name

let with_dir f =
  let dir = Filename.temp_dir "ssdb-cli" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A fresh directory holding a valid document and its map, seed and
   database, so the field is the only thing wrong. *)
let with_encoded f =
  with_dir (fun dir ->
      must_succeed ~dir "ssdb_gen" [ "--size-kb"; "20"; "-o"; "doc.xml" ];
      must_succeed ~dir "ssdb_encode"
        [ "doc.xml"; "--map"; "c.map"; "--seed"; "c.seed"; "-o"; "c.db" ];
      f dir)

let bad_fields = [ (84, 1); (83, 0); (2, 21); (2, 70) ]

let message ~p ~e =
  match Secshare_poly.Ring.checked ~p ~e with
  | Error m -> m
  | Ok _ -> Alcotest.failf "p = %d, e = %d admitted" p e

let field_args ~p ~e = [ "-p"; string_of_int p; "-e"; string_of_int e ]

let check_absent ~what dir names =
  List.iter
    (fun n ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s not created" what n)
        false
        (Sys.file_exists (Filename.concat dir n)))
    names

let test_encode_refuses () =
  with_encoded (fun dir ->
      List.iter
        (fun (p, e) ->
          let what = Printf.sprintf "ssdb_encode -p %d -e %d" p e in
          expect_refusal ~code:124 ~what ~dir "ssdb_encode"
            ([ "doc.xml"; "--map"; "n.map"; "--seed"; "n.seed"; "-o"; "n.db" ]
            @ field_args ~p ~e)
            (message ~p ~e);
          check_absent ~what dir [ "n.map"; "n.seed"; "n.db"; "n.db.nums" ])
        bad_fields;
      (* an existing map is over its own field: the map and the
         manifest would otherwise name two fields *)
      expect_refusal ~what:"ssdb_encode -p 131 over a q = 83 map" ~dir "ssdb_encode"
        [ "doc.xml"; "-p"; "131"; "--map"; "c.map"; "--seed"; "c.seed"; "-o"; "n.db" ]
        "map: c.map has q = 83, not p^e = 131";
      check_absent ~what:"ssdb_encode over another field's map" dir
        [ "n.db"; "n.db.nums"; "n.db.manifest" ])

(* A refused encode leaves no file behind: the shard geometry is
   checked before anything is written, a fresh seed or map is saved
   only once the document has been encoded, and the database files are
   written only then too, so an existing database survives a document
   the encoder refuses. *)
let test_encode_failure_leaves_nothing () =
  with_dir (fun dir ->
      let write name contents =
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            output_string oc contents)
      in
      write "three.xml" "<a><b/><c/></a>";
      write "open.xml" "<a>";
      write "wide.xml" "<a><b/><c/><d/><e/></a>";
      write "priced.xml" "<a><b>1.5</b><c>2</c></a>";
      let outputs =
        [ "n.map"; "n.seed"; "n.db"; "n.db.nums" ]
        @ List.concat_map
            (fun i ->
              let shard = Printf.sprintf "n.db.shard%d" i in
              [ shard; shard ^ ".nums"; shard ^ ".manifest" ])
            [ 1; 2; 3; 4; 5 ]
      in
      List.iter
        (fun (what, code, args, message) ->
          expect_refusal ~code ~what ~dir "ssdb_encode"
            (args @ [ "--map"; "n.map"; "--seed"; "n.seed"; "-o"; "n.db" ])
            message;
          check_absent ~what dir outputs)
        [
          ( "--shards 5 at p = 5",
            124,
            [ "three.xml"; "-p"; "5"; "--shards"; "5"; "-t"; "2" ],
            "--shards 5 needs 5 distinct nonzero x-coordinates but the field has only 4" );
          ( "an unclosed element",
            1,
            [ "open.xml" ],
            "map: line 1, column 4: unexpected end of input: '<a>' is not closed" );
          ( "5 names at p = 5",
            1,
            [ "wide.xml"; "-p"; "5" ],
            "map: field F_5 has only 4 nonzero values; cannot map 5 distinct names" );
        ];
      (* with the map present, the unclosed element gets past the map
         and is refused by the encoder itself *)
      let existing = [ "d"; "d.nums" ] in
      let secrets = [ "--map"; "d.map"; "--seed"; "d.seed"; "-o"; "d" ] in
      must_succeed ~dir "ssdb_encode" ("priced.xml" :: secrets);
      let before = List.map (fun n -> read_file (Filename.concat dir n)) existing in
      expect_refusal ~what:"an unclosed element over a database" ~dir "ssdb_encode"
        ("open.xml" :: secrets)
        "encoding failed: XML error: line 1, column 4: unexpected end of input: '<a>' \
         is not closed";
      check
        Alcotest.(list string)
        "d and d.nums unchanged by the refused encode" before
        (List.map (fun n -> read_file (Filename.concat dir n)) existing))

(* Rewrite the [key = value] line of a map or manifest file. *)
let set_line path key value =
  let prefix = key ^ " = " in
  let is_key l =
    String.length l >= String.length prefix
    && String.sub l 0 (String.length prefix) = prefix
  in
  let lines = String.split_on_char '\n' (read_file path) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (String.concat "\n"
           (List.map (fun l -> if is_key l then prefix ^ value else l) lines)))

let set_field path ~p ~e =
  set_line path "p" (string_of_int p);
  set_line path "e" (string_of_int e)

(* A listening socket nobody accepts on: a connection made to it would
   be waiting in its accept queue. *)
let with_bare_socket dir f =
  let path = Filename.concat dir "bare.sock" in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      Sys.remove path)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      f (fun what ->
          let pending, _, _ = Unix.select [ sock ] [] [] 0.0 in
          check Alcotest.int (what ^ ": no connection") 0 (List.length pending)))

(* ssdb_server's field is its database's manifest: a manifest naming a
   bad field is refused before the trace log or the socket exists. *)
let test_server_refuses () =
  with_encoded (fun dir ->
      let manifest = Filename.concat dir "c.db.manifest" in
      List.iter
        (fun (p, e) ->
          let what = Printf.sprintf "ssdb_server over a manifest with p = %d, e = %d" p e in
          set_field manifest ~p ~e;
          expect_refusal ~what ~dir "ssdb_server"
            [ "--db"; "c.db"; "--socket"; "s.sock"; "--trace-log"; "s.jsonl" ]
            ("manifest c.db.manifest: " ^ message ~p ~e);
          check_absent ~what dir [ "s.sock"; "s.jsonl" ])
        bad_fields)

let test_server_needs_manifest () =
  with_encoded (fun dir ->
      Sys.remove (Filename.concat dir "c.db.manifest");
      expect_refusal ~what:"ssdb_server without a manifest" ~dir "ssdb_server"
        [ "--db"; "c.db"; "--socket"; "s.sock"; "--trace-log"; "s.jsonl" ]
        "no manifest c.db.manifest: re-encode the document with ssdb_encode";
      check_absent ~what:"ssdb_server without a manifest" dir [ "s.sock"; "s.jsonl" ])

(* The router learns the field from its shards' handshakes.  The shard
   here is a stand-in in this process answering with a manifest file
   that names a bad field: the router refuses it after that one
   request, before its trace log or its socket exists. *)
let test_router_refuses () =
  with_encoded (fun dir ->
      let module Manifest = Secshare_shard.Manifest in
      let module Protocol = Secshare_rpc.Protocol in
      let module Server = Secshare_rpc.Server in
      let manifest = Filename.concat dir "c.db.manifest" in
      List.iter
        (fun (p, e) ->
          let what = Printf.sprintf "ssdb_router over a shard with p = %d, e = %d" p e in
          set_field manifest ~p ~e;
          let info =
            match Manifest.load manifest with
            | Ok m -> Manifest.to_info m
            | Error msg -> Alcotest.fail msg
          in
          let requests = ref [] in
          let on_request request =
            requests := Protocol.request_name request :: !requests;
            match request with
            | Protocol.Manifest -> Protocol.Manifest_data info
            | _ -> Protocol.Error_msg "stand-in shard"
          in
          let shard =
            Server.start_sessions ~path:(Filename.concat dir "shard.sock")
              ~session:(fun () -> { Server.on_request; on_close = ignore })
              ()
          in
          Fun.protect
            ~finally:(fun () -> Server.stop shard)
            (fun () ->
              expect_refusal ~what ~dir "ssdb_router"
                [ "--shard"; "shard.sock"; "--socket"; "r.sock"; "--trace-log"; "r.jsonl" ]
                ("router: shard 1: " ^ message ~p ~e));
          check Alcotest.(list string) (what ^ ": requests") [ "manifest" ] !requests;
          check_absent ~what dir [ "r.sock"; "r.jsonl" ])
        bad_fields)

(* ssdb_query's field is its map's q header: a q naming no admissible
   field is refused before the trace log, the database or the socket
   is touched. *)
let test_query_refuses () =
  with_encoded (fun dir ->
      with_bare_socket dir (fun no_connection ->
          List.iter
            (fun q ->
              set_line (Filename.concat dir "c.map") "q" (string_of_int q);
              let refusal =
                match Secshare_poly.Ring.of_order q with
                | Error m -> "map: " ^ m
                | Ok _ -> Alcotest.failf "q = %d admitted" q
              in
              List.iter
                (fun target ->
                  let what =
                    Printf.sprintf "ssdb_query %s with q = %d" (String.concat " " target) q
                  in
                  expect_refusal ~what ~dir "ssdb_query"
                    (target @ [ "--map"; "c.map"; "--seed"; "c.seed" ]
                    @ [ "--trace-log"; "q.jsonl"; "//item" ])
                    refusal;
                  check_absent ~what dir [ "q.jsonl" ];
                  no_connection what)
                [ [ "--db"; "c.db" ]; [ "--connect"; "bare.sock" ] ])
            [ 84; 1 lsl 21 ]))

(* Start [name args] in [dir], wait until it listens on [socket], run
   [f], then kill it. *)
let with_background ~dir name args ~socket f =
  let prog = exe name in
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (name :: args)) Unix.stdin null null)
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid : int * Unix.process_status))
    (fun () ->
      let rec wait n =
        if not (Sys.file_exists (Filename.concat dir socket)) then
          if n = 0 then Alcotest.failf "%s never listened on %s" name socket
          else begin
            Unix.sleepf 0.05;
            wait (n - 1)
          end
      in
      wait 200;
      f pid)

(* A database encoded with -p 131 is served, routed and queried with
   no field flag anywhere: the server reads its manifest, the router
   the handshake and the query the map, and all three answer alike. *)
let test_field_from_files () =
  with_dir (fun dir ->
      must_succeed ~dir "ssdb_gen" [ "--size-kb"; "20"; "-o"; "doc.xml" ];
      must_succeed ~dir "ssdb_encode"
        [ "doc.xml"; "-p"; "131"; "--map"; "h.map"; "--seed"; "h.seed"; "-o"; "h.db" ];
      let query target =
        match
          run_exe ~dir "ssdb_query"
            (target @ [ "--map"; "h.map"; "--seed"; "h.seed"; "//item"; "//keyword" ])
        with
        | Some 0, out, _ ->
            (* only the wall-time prefix of the counter line varies *)
            String.split_on_char '\n' out
            |> List.map (fun l ->
                   if String.length l > 6 && String.sub l 0 6 = "time: " then
                     String.sub l (String.index l '|') (String.length l - String.index l '|')
                   else l)
        | Some code, _, err -> Alcotest.failf "ssdb_query exited %d: %s" code err
        | None, _, _ -> Alcotest.fail "ssdb_query hung"
      in
      let local = query [ "--db"; "h.db" ] in
      check Alcotest.bool "matches found" true
        (List.exists (fun l -> l <> "" && String.sub l 0 8 = "matches ") local);
      with_background ~dir "ssdb_server" [ "--db"; "h.db"; "--socket"; "s.sock" ]
        ~socket:"s.sock" (fun _ ->
          check Alcotest.(list string) "served" local (query [ "--connect"; "s.sock" ]);
          with_background ~dir "ssdb_router" [ "--shard"; "s.sock"; "--socket"; "r.sock" ]
            ~socket:"r.sock" (fun _ ->
              check Alcotest.(list string) "routed" local (query [ "--connect"; "r.sock" ]))))

(* A router given shards of two fields refuses to start, naming both. *)
let test_router_refuses_mixed_fields () =
  with_encoded (fun dir ->
      must_succeed ~dir "ssdb_encode"
        [ "doc.xml"; "-p"; "131"; "--map"; "h.map"; "--seed"; "h.seed"; "-o"; "h.db" ];
      with_background ~dir "ssdb_server" [ "--db"; "c.db"; "--socket"; "c.sock" ]
        ~socket:"c.sock" (fun _ ->
          with_background ~dir "ssdb_server" [ "--db"; "h.db"; "--socket"; "h.sock" ]
            ~socket:"h.sock" (fun _ ->
              expect_refusal ~what:"ssdb_router over F_83 and F_131" ~dir "ssdb_router"
                [ "--shard"; "h.sock"; "--shard"; "c.sock"; "--socket"; "r.sock" ]
                "router: shard 1 serves the field 83^1 but the deployment's field is \
                 131^1";
              check_absent ~what:"ssdb_router over two fields" dir [ "r.sock" ])))

(* ssdb_query holds what it queries to its map before the first query:
   one shard of a 2-of-3 deployment, or a database of another field,
   is refused naming the shard or the field, whether read locally
   (--db, through its manifest) or served (--connect, through the
   handshake). *)
let test_query_refuses_foreign_server () =
  with_encoded (fun dir ->
      must_succeed ~dir "ssdb_encode"
        [
          "doc.xml"; "--map"; "c.map"; "--seed"; "c.seed"; "-o"; "sh.db"; "--shards"; "3";
          "-t"; "2";
        ];
      must_succeed ~dir "ssdb_encode"
        [ "doc.xml"; "-p"; "131"; "--map"; "h.map"; "--seed"; "h.seed"; "-o"; "h.db" ];
      List.iter
        (fun (db, socket, message) ->
          let query target =
            target @ [ "--map"; "c.map"; "--seed"; "c.seed"; "//item" ]
          in
          expect_refusal ~what:("ssdb_query --db " ^ db) ~dir "ssdb_query"
            (query [ "--db"; db ])
            (Printf.sprintf "manifest %s.manifest: %s" db message);
          with_background ~dir "ssdb_server" [ "--db"; db; "--socket"; socket ] ~socket
            (fun _ ->
              expect_refusal ~what:("ssdb_query --connect to " ^ db) ~dir "ssdb_query"
                (query [ "--connect"; socket ])
                ("connect: server: " ^ message)))
        [
          ( "sh.db.shard1",
            "s1.sock",
            "shard 1 of a 2-of-3 deployment cannot answer alone: query its router" );
          ("h.db", "h.sock", "field 131^1 differs from the map's q = 83");
        ])

(* A database in the retired format (this build's file with
   "SSDBPAG1" stamped over its first 8 bytes), alone and then next to a
   retired log holding a record: ssdb_query --db and ssdb_server --db
   refuse it as they refuse a bad header, with the message naming the
   retired format, and leave both files untouched. *)
let test_retired_database_refused () =
  with_encoded (fun dir ->
      let db = Filename.concat dir "c.db" in
      let wal = db ^ ".wal" in
      let refused ~files message =
        let before = List.map read_file files in
        expect_refusal ~what:"ssdb_query --db" ~dir "ssdb_query"
          [ "--db"; "c.db"; "--map"; "c.map"; "--seed"; "c.seed"; "//item" ]
          message;
        expect_refusal ~what:"ssdb_server --db" ~dir "ssdb_server"
          [ "--db"; "c.db"; "--socket"; "s.sock" ]
          message;
        check_absent ~what:"ssdb_server --db" dir [ "s.sock" ];
        check Alcotest.(list string) "files untouched" before (List.map read_file files)
      in
      Test_support.stamp db "SSDBPAG1";
      refused ~files:[ db ]
        "database: page file in the retired SSDBPAG1 format, whose shares follow the \
         first-refill sampler: re-encode the document";
      Test_support.retired_log wal;
      refused ~files:[ db; wal ]
        "database: wal: write-ahead log in the retired SSDBWAL2 format, whose shares \
         follow the first-refill sampler: re-encode the document";
      Sys.remove wal;
      Test_support.stamp db "SSDBPAG2";
      refused ~files:[ db ]
        "database: page file in the retired SSDBPAG2 format, whose shares are \
         coefficient vectors: re-encode the document";
      Test_support.retired_log ~magic:"SSDBWAL3" wal;
      refused ~files:[ db; wal ]
        "database: wal: write-ahead log in the retired SSDBWAL3 format, whose shares \
         are coefficient vectors: re-encode the document")

(* Exit codes: a query that cannot reach its server exits 1, whether
   the socket is missing or the server is stopped; a flag the binary
   does not know exits with cmdliner's usage code 124. *)
let test_exit_codes () =
  with_encoded (fun dir ->
      let exits ~what code args =
        match run_exe ~dir "ssdb_query" args with
        | None, _, _ -> Alcotest.failf "%s: still running after 10 s" what
        | Some got, _, err ->
            check Alcotest.int (what ^ ": exit code") code got;
            check Alcotest.bool
              (Printf.sprintf "%s: %S names the binary" what err)
              true
              (String.starts_with ~prefix:"ssdb_query: " err)
      in
      let query socket =
        [ "--connect"; socket; "--map"; "c.map"; "--seed"; "c.seed" ]
        @ [ "--timeout"; "0.3"; "--max-retries"; "1"; "//item" ]
      in
      exits ~what:"a missing server" 1 (query "none.sock");
      with_background ~dir "ssdb_server" [ "--db"; "c.db"; "--socket"; "s.sock" ]
        ~socket:"s.sock" (fun pid ->
          Unix.kill pid Sys.sigstop;
          Fun.protect
            ~finally:(fun () -> Unix.kill pid Sys.sigcont)
            (fun () -> exits ~what:"a stopped server" 1 (query "s.sock")));
      exits ~what:"an unknown flag" 124 ("--no-such-flag" :: query "s.sock"))

let test_gen_refuses_small_targets () =
  with_dir (fun dir ->
      List.iter
        (fun (args, message) ->
          expect_refusal ~code:124
            ~what:("ssdb_gen " ^ String.concat " " args)
            ~dir "ssdb_gen" (args @ [ "-o"; "doc.xml" ]) message;
          check_absent ~what:"ssdb_gen" dir [ "doc.xml" ])
        [
          ([ "--size-kb"; "5" ], "Xmark.generate_bytes: target must be at least 10 KB");
          ([ "--size-kb"; "0" ], "Xmark.generate_bytes: target must be at least 10 KB");
          ([ "--factor"; "0" ], "Xmark: factor must be positive");
        ])

let () =
  Alcotest.run "cli"
    [
      ( "field admission",
        [
          Alcotest.test_case "ssdb_encode refuses a bad field" `Quick test_encode_refuses;
          Alcotest.test_case "ssdb_server refuses a bad field" `Quick test_server_refuses;
          Alcotest.test_case "ssdb_router refuses a bad field" `Quick test_router_refuses;
          Alcotest.test_case "ssdb_query refuses a bad field" `Quick test_query_refuses;
          Alcotest.test_case "ssdb_server without a manifest is refused" `Quick
            test_server_needs_manifest;
          Alcotest.test_case "the field is read from files" `Quick test_field_from_files;
          Alcotest.test_case "ssdb_router refuses shards of two fields" `Quick
            test_router_refuses_mixed_fields;
          Alcotest.test_case "ssdb_query refuses a lone shard or a foreign field" `Quick
            test_query_refuses_foreign_server;
        ] );
      ( "ssdb_encode",
        [
          Alcotest.test_case "a refused encode leaves no file" `Quick
            test_encode_failure_leaves_nothing;
        ] );
      ( "retired format",
        [
          Alcotest.test_case "ssdb_query and ssdb_server refuse it" `Quick
            test_retired_database_refused;
        ] );
      ( "exit codes",
        [
          Alcotest.test_case "runtime failures exit 1, bad flags 124" `Quick
            test_exit_codes;
        ] );
      ( "ssdb_gen",
        [
          Alcotest.test_case "a target below the generator's floor" `Quick
            test_gen_refuses_small_targets;
        ] );
    ]
