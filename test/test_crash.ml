(* Crash-injection harness for the durable store.

   Each trial re-executes this binary as a child process
   ([--crash-child]) that encodes a fixed document into a durable node
   table and dies at a randomized point — SIGKILL between inserts, or
   a torn write (half a buffer, then [Unix._exit]) injected into a WAL
   append, a heap page write, or the header write during flush.  The
   parent then recovers the table the way a restarted server would and
   asserts the durability contract:

   - every acknowledged insert is present, nothing else is;
   - the rebuilt indexes agree with the rows;
   - recovery is idempotent (a second open replays nothing);
   - when the child got every row in, decoded query results are
     bit-identical to the plaintext reference on the same document.

   The parent's randomness is a seeded [Random.State]; the seed is
   printed and can be pinned with SSDB_CRASH_SEED.  SSDB_CRASH_TRIALS
   bounds the randomized trial count (default 60). *)

module Tree = Secshare_xml.Tree
module Page = Secshare_store.Page
module Node_table = Secshare_store.Node_table
module Store_io = Secshare_store.Store_io
module DB = Secshare_core.Database
module Reference = Secshare_core.Reference

let check = Alcotest.check
let page_size = 512
let seed = Secshare_prg.Seed.of_passphrase "crash-harness-seed"

(* A fixed document, built identically by parent and child: branchy
   enough to span several heap pages and give the axes work. *)
let doc =
  let leaf tag word = Tree.element tag [ Tree.text word ] in
  let item i =
    Tree.element "item"
      [
        leaf "name" (Printf.sprintf "thing%d" i);
        leaf "price" (string_of_int (i * 7));
        Tree.element "seller" [ leaf "name" "joan" ];
      ]
  in
  let region tag n = Tree.element tag (List.init n item) in
  Tree.element "site"
    [
      Tree.element "regions" [ region "europe" 6; region "asia" 5; region "africa" 4 ];
      Tree.element "people"
        (List.init 5 (fun i ->
             Tree.element "person" [ leaf "name" (Printf.sprintf "p%d" i); leaf "city" "bonn" ]));
    ]

let queries = [ "/site"; "//item/name"; "/site/regions/*/item"; "//person/city"; "//seller" ]

(* The rows the encode produces, in insertion order — deterministic
   given the fixed seed and mapping, so parent and child agree. *)
let encoded_parts =
  lazy
    (let mapping =
       match Secshare_core.Mapping.of_tree ~q:83 doc with
       | Ok m -> m
       | Error e -> failwith ("mapping: " ^ e)
     in
     let ring = Secshare_poly.Ring.of_prime_power ~p:83 ~e:1 in
     let table = Node_table.create ~page_size () in
     (match Secshare_core.Encode.encode_tree ring ~mapping ~seed ~table doc with
     | Ok _ -> ()
     | Error e -> failwith ("encode: " ^ Secshare_core.Encode.error_to_string e));
     let rows = ref [] in
     Node_table.iter table ~f:(fun r -> rows := r :: !rows);
     (mapping, List.rev !rows))

let expected_rows () = snd (Lazy.force encoded_parts)

(* --- child --------------------------------------------------------- *)

let child_exit_torn = 42

let run_child mode path k ckpt =
  let rows = expected_rows () in
  let checkpoint_every = if ckpt > 0 then Some ckpt else None in
  match mode with
  | "kill" ->
      let table =
        Node_table.create_file ~page_size ~durable:true ?checkpoint_every path
      in
      List.iteri
        (fun i row ->
          if i = k then Unix.kill (Unix.getpid ()) Sys.sigkill;
          Node_table.insert table row)
        rows;
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      1 (* unreachable: killed above *)
  | "torn-wal" ->
      (* the k-th WAL write (magic is the first) tears mid-insert *)
      Store_io.arm_torn_write ~kind:Store_io.Wal_write ~after:k
        ~action:(Store_io.Torn_exit child_exit_torn);
      let table =
        Node_table.create_file ~page_size ~durable:true ?checkpoint_every path
      in
      List.iter (Node_table.insert table) rows;
      Node_table.close table;
      0 (* failpoint never fired: clean shutdown *)
  | "torn-page" | "torn-header" ->
      let table =
        Node_table.create_file ~page_size ~durable:true ?checkpoint_every path
      in
      List.iter (Node_table.insert table) rows;
      let kind =
        if mode = "torn-page" then Store_io.Page_write else Store_io.Header_write
      in
      Store_io.arm_torn_write ~kind ~after:k
        ~action:(Store_io.Torn_exit child_exit_torn);
      Node_table.flush table;
      Node_table.close table;
      0
  | other ->
      prerr_endline ("unknown crash-child mode " ^ other);
      2

(* --- parent -------------------------------------------------------- *)

type outcome = Killed | Torn | Clean

let spawn_child mode path k ckpt =
  let argv =
    [| Sys.executable_name; "--crash-child"; mode; path; string_of_int k; string_of_int ckpt |]
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> Killed
  | _, Unix.WEXITED c when c = child_exit_torn -> Torn
  | _, Unix.WEXITED 0 -> Clean
  | _, status ->
      let show = function
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
      in
      Alcotest.failf "child %s died unexpectedly: %s" mode (show status)

let with_temp_db f =
  let path = Filename.temp_file "ssdb-crash" ".db" in
  let cleanup () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".wal" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let recover path =
  match Node_table.open_file path with
  | Ok t -> t
  | Error e -> Alcotest.failf "recovery failed: %s" e

let table_rows t =
  let rows = ref [] in
  Node_table.iter t ~f:(fun r -> rows := r :: !rows);
  List.rev !rows

let rec firstn n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: firstn (n - 1) rest

(* The recovered table must hold exactly a prefix of the insertion
   sequence, and its indexes must agree with its rows. *)
let assert_integrity ~ctx t =
  let rows = table_rows t in
  let expected = firstn (List.length rows) (expected_rows ()) in
  if
    List.length rows <> List.length expected
    || not (List.for_all2 Page.row_equal rows expected)
  then Alcotest.failf "%s: recovered rows are not an insertion prefix" ctx;
  check Alcotest.int (ctx ^ ": row_count agrees") (List.length rows)
    (Node_table.row_count t);
  List.iter
    (fun (r : Page.row) ->
      match Node_table.find_by_pre t r.Page.pre with
      | Some found when Page.row_equal found r -> ()
      | Some _ -> Alcotest.failf "%s: index returns a different row for pre %d" ctx r.Page.pre
      | None -> Alcotest.failf "%s: pre %d missing from the index" ctx r.Page.pre)
    rows;
  List.iter
    (fun (r : Page.row) ->
      List.iter
        (fun (c : Page.row) ->
          if c.Page.parent <> r.Page.pre then
            Alcotest.failf "%s: child index wrong for parent %d" ctx r.Page.pre)
        (Node_table.children t ~parent:r.Page.pre))
    rows;
  List.length rows

let golden_queries ~ctx table =
  let mapping, _ = Lazy.force encoded_parts in
  match DB.of_parts ~mapping ~seed ~table () with
  | Error e -> Alcotest.failf "%s: of_parts: %s" ctx e
  | Ok db ->
      List.iter
        (fun q ->
          let want =
            Reference.run doc
              (Secshare_xpath.Ast.rewrite_contains (Secshare_xpath.Parser.parse_exn q))
          in
          match DB.query db q with
          | Error e -> Alcotest.failf "%s: query %s: %s" ctx q e
          | Ok r ->
              check
                Alcotest.(list int)
                (Printf.sprintf "%s: query %s = reference" ctx q)
                want
                (Test_support.pres_of_metas (DB.result_nodes r)))
        queries
      (* DB.close would close [table] for the caller — leave that to them *)

let run_trial ~trial mode k ckpt =
  with_temp_db (fun path ->
      let ctx = Printf.sprintf "trial %d (%s k=%d ckpt=%d)" trial mode k ckpt in
      let outcome = spawn_child mode path k ckpt in
      let n_expected = List.length (expected_rows ()) in
      let t = recover path in
      let n = assert_integrity ~ctx t in
      (match (mode, outcome) with
      | "kill", Killed ->
          check Alcotest.int (ctx ^ ": exactly the acked inserts") (min k n_expected) n
      | ("torn-page" | "torn-header"), (Torn | Clean) ->
          (* the tear hit (or missed) the flush after every insert was
             acknowledged: nothing may be lost *)
          check Alcotest.int (ctx ^ ": all rows") n_expected n
      | "torn-wal", Torn ->
          (* rows past the torn log append were never acknowledged;
             the prefix property was already asserted *)
          ()
      | "torn-wal", Clean -> check Alcotest.int (ctx ^ ": all rows") n_expected n
      | _, _ -> Alcotest.failf "%s: unexpected child outcome" ctx);
      Node_table.close t;
      (* recovery is idempotent: a second open replays nothing new *)
      let t2 = recover path in
      let n2 = assert_integrity ~ctx:(ctx ^ " (reopen)") t2 in
      check Alcotest.int (ctx ^ ": reopen sees the same rows") n n2;
      if Node_table.recovery_stats t2 <> None then
        Alcotest.failf "%s: second open claims to recover again" ctx;
      if n = n_expected then golden_queries ~ctx t2;
      Node_table.close t2)

let n_trials =
  match Sys.getenv_opt "SSDB_CRASH_TRIALS" with
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 60)
  | None -> 60

let rng_seed =
  match Sys.getenv_opt "SSDB_CRASH_SEED" with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0x5eed)
  | None -> 0x5eed

let test_deterministic_modes () =
  let n = List.length (expected_rows ()) in
  run_trial ~trial:0 "kill" 0 0;
  run_trial ~trial:0 "kill" (n / 2) 0;
  run_trial ~trial:0 "kill" n 7;
  run_trial ~trial:0 "torn-wal" 5 0;
  run_trial ~trial:0 "torn-page" 1 0;
  run_trial ~trial:0 "torn-header" 1 0

let test_randomized_trials () =
  Printf.printf "crash harness: %d trials, seed %d (SSDB_CRASH_SEED to pin)\n%!"
    n_trials rng_seed;
  let rng = Random.State.make [| rng_seed |] in
  let n = List.length (expected_rows ()) in
  for trial = 1 to n_trials do
    let ckpt = match Random.State.int rng 3 with 0 -> 0 | _ -> 1 + Random.State.int rng 12 in
    match Random.State.int rng 4 with
    | 0 -> run_trial ~trial "kill" (Random.State.int rng (n + 1)) ckpt
    | 1 -> run_trial ~trial "torn-wal" (1 + Random.State.int rng (n + 2)) ckpt
    | 2 -> run_trial ~trial "torn-page" (1 + Random.State.int rng 6) ckpt
    | _ -> run_trial ~trial "torn-header" 1 ckpt
  done

let () =
  if Array.length Sys.argv >= 6 && Sys.argv.(1) = "--crash-child" then
    exit
      (run_child Sys.argv.(2) Sys.argv.(3) (int_of_string Sys.argv.(4))
         (int_of_string Sys.argv.(5)))
  else
    Alcotest.run "crash"
      [
        ( "crash recovery",
          [
            Alcotest.test_case "deterministic kill and torn-write points" `Quick
              test_deterministic_modes;
            Alcotest.test_case "randomized kill and torn-write points" `Slow
              test_randomized_trials;
          ] );
      ]
