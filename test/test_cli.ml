(* The binaries' shared front end, driven through the built
   executables: every binary refuses a bad (p, e) with the one
   admission check's message and cmdliner's usage exit code (124)
   before it writes a file, binds a socket or dials a shard;
   ssdb_encode refuses a shard geometry or document it cannot encode
   without leaving a file behind; and ssdb_gen refuses a target it
   cannot meet the same way. *)

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

let expect_refusal ~what ~dir name args message =
  match run_exe ~dir name args with
  | None, _, _ -> Alcotest.failf "%s: still running after 10 s" what
  | Some code, out, err ->
      check Alcotest.int (what ^ ": exit code") 124 code;
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
          expect_refusal ~what ~dir "ssdb_encode"
            ([ "doc.xml"; "--map"; "n.map"; "--seed"; "n.seed"; "-o"; "n.db" ]
            @ field_args ~p ~e)
            (message ~p ~e);
          check_absent ~what dir [ "n.map"; "n.seed"; "n.db"; "n.db.nums" ])
        bad_fields)

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
        (fun (what, args, message) ->
          expect_refusal ~what ~dir "ssdb_encode"
            (args @ [ "--map"; "n.map"; "--seed"; "n.seed"; "-o"; "n.db" ])
            message;
          check_absent ~what dir outputs)
        [
          ( "--shards 5 at p = 5",
            [ "three.xml"; "-p"; "5"; "--shards"; "5"; "-t"; "2" ],
            "--shards 5 needs 5 distinct nonzero x-coordinates but the field has only 4" );
          ( "an unclosed element",
            [ "open.xml" ],
            "map: line 1, column 4: unexpected end of input: '<a>' is not closed" );
          ( "5 names at p = 5",
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

let test_server_refuses () =
  with_encoded (fun dir ->
      List.iter
        (fun (p, e) ->
          let what = Printf.sprintf "ssdb_server -p %d -e %d" p e in
          expect_refusal ~what ~dir "ssdb_server"
            ([ "--db"; "c.db"; "--socket"; "s.sock"; "--trace-log"; "s.jsonl" ]
            @ field_args ~p ~e)
            (message ~p ~e);
          check_absent ~what dir [ "s.sock"; "s.jsonl" ])
        bad_fields)

(* The router's shard is a bare listening socket: a connection the
   router opened would be waiting in its accept queue. *)
let test_router_refuses () =
  with_encoded (fun dir ->
      let shard_path = Filename.concat dir "shard.sock" in
      let shard = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close shard;
          Sys.remove shard_path)
        (fun () ->
          Unix.bind shard (Unix.ADDR_UNIX shard_path);
          Unix.listen shard 8;
          List.iter
            (fun (p, e) ->
              let what = Printf.sprintf "ssdb_router -p %d -e %d" p e in
              expect_refusal ~what ~dir "ssdb_router"
                ([ "--shard"; "shard.sock"; "--socket"; "r.sock" ]
                @ [ "--trace-log"; "r.jsonl" ] @ field_args ~p ~e)
                (message ~p ~e);
              check_absent ~what dir [ "r.sock"; "r.jsonl" ];
              let pending, _, _ = Unix.select [ shard ] [] [] 0.0 in
              check Alcotest.int (what ^ ": no shard connection") 0 (List.length pending))
            bad_fields))

let test_query_refuses () =
  with_encoded (fun dir ->
      List.iter
        (fun (p, e) ->
          let what = Printf.sprintf "ssdb_query -p %d -e %d" p e in
          expect_refusal ~what ~dir "ssdb_query"
            ([ "--db"; "c.db"; "--map"; "c.map"; "--seed"; "c.seed" ]
            @ [ "--trace-log"; "q.jsonl" ] @ field_args ~p ~e @ [ "//item" ])
            (message ~p ~e);
          check_absent ~what dir [ "q.jsonl" ])
        bad_fields)

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
         follow the first-refill sampler: re-encode the document")

let test_gen_refuses_small_targets () =
  with_dir (fun dir ->
      List.iter
        (fun (args, message) ->
          expect_refusal
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
      ( "ssdb_gen",
        [
          Alcotest.test_case "a target below the generator's floor" `Quick
            test_gen_refuses_small_targets;
        ] );
    ]
