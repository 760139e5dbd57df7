module Page = Secshare_store.Page
module Pager = Secshare_store.Pager
module Node_table = Secshare_store.Node_table
module Crc32 = Secshare_store.Crc32

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- crc32 --- *)

let test_crc32_vectors () =
  (* standard check value *)
  check Alcotest.int32 "123456789" 0xCBF43926l (Crc32.digest_string "123456789");
  check Alcotest.int32 "empty" 0l (Crc32.digest_string "");
  check Alcotest.bool "different data different crc" true
    (not (Int32.equal (Crc32.digest_string "a") (Crc32.digest_string "b")))

(* --- page --- *)

let row pre post parent payload =
  { Page.pre; post; parent; share = Bytes.of_string payload }

let test_page_roundtrip () =
  let page = Page.create ~size:512 in
  let r1 = row 1 6 0 "alpha" and r2 = row 2 3 1 "beta" in
  check Alcotest.(option int) "slot 0" (Some 0) (Page.add_row page r1);
  check Alcotest.(option int) "slot 1" (Some 1) (Page.add_row page r2);
  check Alcotest.bool "get 0" true (Page.row_equal r1 (Page.get_row page 0));
  check Alcotest.bool "get 1" true (Page.row_equal r2 (Page.get_row page 1));
  check Alcotest.int "count" 2 (Page.row_count page);
  let image = Page.serialize page in
  match Page.deserialize image with
  | Error e -> Alcotest.fail e
  | Ok page' ->
      check Alcotest.bool "row survives" true (Page.row_equal r2 (Page.get_row page' 1))

let test_page_fills_up () =
  let page = Page.create ~size:128 in
  let rec fill i = match Page.add_row page (row i (i + 1) 0 "xxxxxxxx") with
    | Some _ -> fill (i + 1)
    | None -> i
  in
  let fitted = fill 0 in
  check Alcotest.bool "a few rows fit" true (fitted >= 2);
  check Alcotest.int "count matches" fitted (Page.row_count page)

let test_page_rejects () =
  let page = Page.create ~size:128 in
  Alcotest.check_raises "oversized row"
    (Invalid_argument "Page.add_row: row larger than a page") (fun () ->
      ignore (Page.add_row page (row 1 1 0 (String.make 1000 'x'))));
  Alcotest.check_raises "bad slot" (Invalid_argument "Page.get_row: slot 0 out of [0, 0)")
    (fun () -> ignore (Page.get_row page 0))

let test_page_corruption_detected () =
  let page = Page.create ~size:256 in
  ignore (Page.add_row page (row 1 2 0 "payload"));
  let image = Page.serialize page in
  Bytes.set_uint8 image 100 (Bytes.get_uint8 image 100 lxor 0xFF);
  match Page.deserialize image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt page accepted"

let page_fuzz_suite =
  [
    qtest ~count:300 "deserialize never crashes on garbage"
      QCheck2.Gen.(string_size (int_range 0 600))
      (fun s ->
        match Page.deserialize (Bytes.of_string s) with
        | Ok _ | Error _ -> true);
    qtest ~count:200 "bit flips are caught by the checksum"
      QCheck2.Gen.(pair (int_range 0 4095) (int_range 0 7))
      (fun (pos, bit) ->
        let page = Page.create ~size:512 in
        ignore (Page.add_row page (row 1 2 0 "payload data here"));
        let image = Page.serialize page in
        let pos = pos mod Bytes.length image in
        Bytes.set_uint8 image pos (Bytes.get_uint8 image pos lxor (1 lsl bit));
        match Page.deserialize image with
        | Error _ -> true
        | Ok _ ->
            (* flips inside the header's unchecked fields can slip the
               CRC but must not corrupt previously written rows *)
            pos < 12);
  ]

(* --- pager persistence --- *)

let with_temp_file f =
  let path = Filename.temp_file "pager" ".db" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".wal" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let test_pager_file_roundtrip () =
  with_temp_file (fun path ->
      let pager = Pager.create_file ~page_size:256 ~cache_pages:4 path in
      let pages =
        List.init 10 (fun i ->
            let page = Page.create ~size:256 in
            ignore (Page.add_row page (row (i + 1) (i + 2) 0 (Printf.sprintf "row%d" i)));
            page)
      in
      List.iteri (fun i page -> check Alcotest.int "index" i (Pager.append pager page)) pages;
      (* with a 4-page cache, reading all 10 pages forces evictions *)
      for i = 0 to 9 do
        let page = Pager.get pager i in
        let r = Page.get_row page 0 in
        check Alcotest.int "pre" (i + 1) r.Page.pre
      done;
      Pager.close pager;
      match Pager.open_file ~cache_pages:4 path with
      | Error (Pager.Unreadable e | Pager.Retired e) -> Alcotest.fail e
      | Ok pager' ->
          check Alcotest.int "page count" 10 (Pager.page_count pager');
          for i = 9 downto 0 do
            let r = Page.get_row (Pager.get pager' i) 0 in
            check Alcotest.int "pre after reopen" (i + 1) r.Page.pre
          done;
          let stats = Pager.cache_stats pager' in
          check Alcotest.bool "evictions happened" true (stats.Pager.evictions > 0);
          Pager.close pager')

let test_pager_get_bounds () =
  let refuses what pager =
    List.iter
      (fun (idx, msg) ->
        Alcotest.check_raises (Printf.sprintf "%s: page %d" what idx) (Invalid_argument msg)
          (fun () -> ignore (Pager.get pager idx)))
      [ (-1, "Pager.get: page -1 out of [0, 3)"); (3, "Pager.get: page 3 out of [0, 3)") ]
  in
  let fill pager =
    for _ = 1 to 3 do
      ignore (Pager.append pager (Page.create ~size:256))
    done
  in
  let memory = Pager.in_memory ~page_size:256 () in
  fill memory;
  refuses "memory" memory;
  with_temp_file (fun path ->
      let pager = Pager.create_file ~page_size:256 ~cache_pages:4 path in
      fill pager;
      refuses "file" pager;
      Pager.close pager)

let test_pager_rejects_garbage () =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "not a page file at all");
      match Pager.open_file path with
      | Error (Pager.Unreadable _) -> ()
      | Error (Pager.Retired e) -> Alcotest.failf "garbage read as the retired format: %s" e
      | Ok _ -> Alcotest.fail "garbage accepted")

(* --- the runtime lock witness (SSDB_RACE_CHECK) --- *)

module Race_check = Secshare_obs.Race_check
module Cursor_table = Secshare_core.Cursor_table

(* Quarantined: the witness is armed for [f] only and left as it was;
   each test releases what it took, and a refused acquisition is never
   recorded, so the held stacks stay balanced. *)
let with_witness f =
  let was = Race_check.enabled () in
  Race_check.set_enabled true;
  Fun.protect ~finally:(fun () -> Race_check.set_enabled was) f

let refusal what f =
  match f () with
  | () -> Alcotest.failf "%s accepted" what
  | exception Failure msg -> msg

let violation what = "Race_check: lock-order violation: " ^ what

let test_lock_witness_detects_inversion () =
  with_witness (fun () ->
      (* A dirty eviction runs the write barrier under the pager
         latch; a barrier that takes the cursor table inverts the order
         across three modules, which no lexical pass sees. *)
      with_temp_file (fun path ->
          let table = Cursor_table.create ~max:4 ~on_remove:(fun _ _ () -> ()) () in
          let pager = Pager.create_file ~page_size:256 ~cache_pages:4 path in
          Pager.set_write_barrier pager
            (Some (fun _ -> ignore (Cursor_table.add table ())));
          check Alcotest.string "cursor-table under pager-latch"
            (violation
               "acquiring cursor-table (rank 12) while holding pager-latch (rank 30)")
            (refusal "cursor-table under pager-latch" (fun () ->
                 for _ = 0 to 4 do
                   ignore (Pager.append pager (Page.create ~size:256))
                 done));
          (* refused before blocking: the table's mutex was never taken *)
          Pager.set_write_barrier pager None;
          ignore (Cursor_table.add table ());
          check Alcotest.int "cursor table still usable" 1 (Cursor_table.size table);
          Pager.abort pager);
      Race_check.acquired "pager-io";
      check Alcotest.string "latch under io"
        (violation "acquiring pager-latch (rank 30) while holding pager-io (rank 40)")
        (refusal "latch under io" (fun () -> Race_check.acquired "pager-latch"));
      Race_check.released "pager-io";
      (* the refused acquisition was not recorded: latch -> io nests again *)
      Race_check.acquired "pager-latch";
      Race_check.acquired "pager-io";
      Race_check.released "pager-io";
      Race_check.released "pager-latch")

let test_lock_witness_rejects_same_rank_reentry () =
  with_witness (fun () ->
      Race_check.acquired "pager-latch";
      check Alcotest.string "latch re-entry"
        (violation "acquiring pager-latch (rank 30) while holding pager-latch (rank 30)")
        (refusal "latch re-entry" (fun () -> Race_check.acquired "pager-latch"));
      Race_check.released "pager-latch")

let test_lock_witness_refuses_undeclared_class () =
  with_witness (fun () ->
      check Alcotest.string "undeclared class"
        (violation
           "undeclared lock class no-such-class; declare its rank in \
            Race_check.lock_order")
        (refusal "undeclared class" (fun () -> Race_check.acquired "no-such-class")))

let test_lock_witness_passes_pager_traffic () =
  (* The real pager hot paths (append faults pages in, get evicts,
     flush nests latch -> io) must satisfy the declared order with the
     witness armed. *)
  with_witness (fun () ->
      with_temp_file (fun path ->
          let pager = Pager.create_file ~page_size:256 ~cache_pages:4 path in
          for i = 0 to 9 do
            let page = Page.create ~size:256 in
            ignore (Page.add_row page (row (i + 1) (i + 2) 0 "w"));
            ignore (Pager.append pager page)
          done;
          for i = 0 to 9 do
            ignore (Pager.get pager i)
          done;
          Pager.flush pager;
          Pager.close pager))

(* Four domains read one file pager whose pool holds a quarter of its
   pages, each in its own rotated order, so misses, evictions and hits
   interleave under the one latch. *)
let test_pager_latch_under_contention () =
  let pages = 16 and domains = 4 and rounds = 8 in
  let written i = row (i + 1) (i + 2) 0 (Printf.sprintf "page%d" i) in
  with_witness (fun () ->
      with_temp_file (fun path ->
          let pager = Pager.create_file ~page_size:256 ~cache_pages:4 path in
          for i = 0 to pages - 1 do
            let page = Page.create ~size:256 in
            ignore (Page.add_row page (written i));
            ignore (Pager.append pager page)
          done;
          let before = Pager.cache_stats pager in
          let reader d () =
            let wrong = ref 0 in
            for round = 0 to rounds - 1 do
              for k = 0 to pages - 1 do
                let i = (k + (d * pages / domains) + round) mod pages in
                if not (Page.row_equal (written i) (Page.get_row (Pager.get pager i) 0))
                then incr wrong
              done
            done;
            !wrong
          in
          let wrong =
            List.init domains (fun d -> Domain.spawn (reader d))
            |> List.fold_left (fun acc d -> acc + Domain.join d) 0
          in
          let after = Pager.cache_stats pager in
          check Alcotest.int "every row reads back as written" 0 wrong;
          check Alcotest.int "hits + misses = gets" (domains * rounds * pages)
            (after.Pager.hits - before.Pager.hits + (after.Pager.misses - before.Pager.misses));
          check Alcotest.bool "the reads evicted" true
            (after.Pager.evictions > before.Pager.evictions);
          check Alcotest.(list string) "no race reports" [] (Race_check.reports ());
          Pager.close pager))

(* Under SSDB_RACE_CHECK=1 every hook has been live since the process
   started; whatever the suites above did must not have produced a
   report. *)
let test_witness_suite_silent () =
  check Alcotest.(list string) "no reports from the suites above" []
    (Race_check.reports ())

(* --- node table --- *)

(* A tiny tree:
   pre=1 (root, parent 0, post 5)
     pre=2 (post 2) { pre=3 (post 1) }
     pre=4 (post 3)
     pre=5 (post 4)
*)
let sample_rows =
  [ row 1 5 0 "r"; row 2 2 1 "a"; row 3 1 2 "b"; row 4 3 1 "c"; row 5 4 1 "d" ]

let pres rows = List.map (fun r -> r.Page.pre) rows

let test_node_table_axes () =
  let t = Node_table.create ~page_size:256 () in
  List.iter (Node_table.insert t) sample_rows;
  check Alcotest.int "rows" 5 (Node_table.row_count t);
  check Alcotest.(option int) "root" (Some 1)
    (Option.map (fun r -> r.Page.pre) (Node_table.root t));
  check Alcotest.(list int) "children of 1" [ 2; 4; 5 ] (pres (Node_table.children t ~parent:1));
  check Alcotest.(list int) "children of 2" [ 3 ] (pres (Node_table.children t ~parent:2));
  check Alcotest.(list int) "descendants of root" [ 2; 3; 4; 5 ]
    (pres (Node_table.descendants t ~pre:1 ~post:5));
  check Alcotest.(list int) "descendants of 2" [ 3 ] (pres (Node_table.descendants t ~pre:2 ~post:2));
  check Alcotest.(list int) "descendants of leaf" [] (pres (Node_table.descendants t ~pre:3 ~post:1));
  check Alcotest.bool "find_by_pre" true
    (Page.row_equal (List.nth sample_rows 2) (Option.get (Node_table.find_by_pre t 3)));
  check Alcotest.bool "missing pre" true (Node_table.find_by_pre t 99 = None)

let test_node_table_duplicate_pre () =
  let t = Node_table.create () in
  Node_table.insert t (row 1 1 0 "x");
  Alcotest.check_raises "duplicate pre"
    (Invalid_argument "Node_table.insert: duplicate pre 1") (fun () ->
      Node_table.insert t (row 1 2 0 "y"))

let test_node_table_sizes () =
  let t = Node_table.create ~page_size:512 () in
  List.iter (Node_table.insert t) sample_rows;
  check Alcotest.bool "data bytes positive" true (Node_table.data_bytes t > 0);
  check Alcotest.bool "index bytes positive" true (Node_table.index_bytes t > 0)

let test_node_table_file_roundtrip () =
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:512 path in
      List.iter (Node_table.insert t) sample_rows;
      Node_table.close t;
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          check Alcotest.int "rows" 5 (Node_table.row_count t');
          check Alcotest.(list int) "children rebuilt" [ 2; 4; 5 ]
            (pres (Node_table.children t' ~parent:1));
          check Alcotest.bool "payload intact" true
            (Page.row_equal (List.nth sample_rows 4)
               (Option.get (Node_table.find_by_pre t' 5)));
          Node_table.close t')

(* --- write-ahead log and crash recovery --- *)

module Wal = Secshare_store.Wal
module Store_io = Secshare_store.Store_io

let wal_path_of path = path ^ ".wal"

let must_append wal r =
  match Wal.append_row wal r with
  | Ok () -> ()
  | Error (Wal.Share_too_large n) -> Alcotest.failf "share of %d rejected" n

let scan_exn path =
  match Wal.scan path with Ok plan -> plan | Error e -> Alcotest.fail e

let test_wal_row_roundtrip () =
  with_temp_file (fun path ->
      let wal = Wal.create path in
      let rows = List.map (fun i -> row i (i + 1) 0 (Printf.sprintf "payload%d" i)) [ 1; 2; 3 ] in
      List.iter (must_append wal) rows;
      check Alcotest.int "entries" 3 (Wal.entry_count wal);
      Wal.close wal;
      let plan = scan_exn path in
      check Alcotest.int "records" 3 plan.Wal.records;
      check Alcotest.int "rows to redo" 3 (List.length plan.Wal.redo_rows);
      check Alcotest.int "nothing discarded" 0 plan.Wal.discarded_bytes;
      check Alcotest.bool "no checkpoint" true (plan.Wal.last_checkpoint = None);
      List.iter2
        (fun a b -> check Alcotest.bool "row" true (Page.row_equal a b))
        rows plan.Wal.redo_rows)

let test_wal_entry_count_on_reopen () =
  with_temp_file (fun path ->
      let wal = Wal.create path in
      List.iter (fun i -> must_append wal (row i (i + 1) 0 "data")) [ 1; 2; 3 ];
      let lsn_before = Wal.next_lsn wal in
      Wal.close wal;
      (* the old implementation reported 0 entries on reopen *)
      match Wal.open_existing path with
      | Error e -> Alcotest.fail e
      | Ok wal' ->
          check Alcotest.int "entry_count counts existing records" 3 (Wal.entry_count wal');
          check Alcotest.bool "lsn continues past the log" true
            (Int64.compare (Wal.next_lsn wal') lsn_before >= 0);
          must_append wal' (row 4 5 0 "data");
          check Alcotest.int "append extends the count" 4 (Wal.entry_count wal');
          Wal.close wal';
          check Alcotest.int "all records scan back" 4 (scan_exn path).Wal.records)

let test_wal_rejects_oversized_share () =
  with_temp_file (fun path ->
      let wal = Wal.create path in
      let huge = row 1 2 0 (String.make (Wal.max_share_len + 1) 'x') in
      (match Wal.append_row wal huge with
      | Error (Wal.Share_too_large n) ->
          check Alcotest.int "reports the size" (Wal.max_share_len + 1) n
      | Ok () -> Alcotest.fail "oversized share accepted");
      check Alcotest.int "nothing was logged" 0 (Wal.entry_count wal);
      must_append wal (row 1 2 0 "small");
      Wal.close wal;
      (* the rejected append left the log well-formed *)
      check Alcotest.int "log intact" 1 (scan_exn path).Wal.records)

let test_wal_torn_tail () =
  with_temp_file (fun path ->
      let wal = Wal.create path in
      List.iter (fun i -> must_append wal (row i (i + 1) 0 "data")) [ 1; 2; 3 ];
      Wal.close wal;
      (* truncate mid-record: the valid prefix survives *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub full 0 (String.length full - 5)));
      let plan = scan_exn path in
      check Alcotest.int "prefix recovered" 2 (List.length plan.Wal.redo_rows);
      check Alcotest.bool "torn bytes counted" true (plan.Wal.discarded_bytes > 0);
      (* reopening truncates the torn tail so appends extend the prefix *)
      match Wal.open_existing path with
      | Error e -> Alcotest.fail e
      | Ok wal' ->
          check Alcotest.int "entries after tail cut" 2 (Wal.entry_count wal');
          must_append wal' (row 9 10 0 "after");
          Wal.close wal';
          let plan' = scan_exn path in
          check Alcotest.int "append lands after the prefix" 3
            (List.length plan'.Wal.redo_rows);
          check Alcotest.int "no garbage left" 0 plan'.Wal.discarded_bytes)

let test_wal_corrupt_record_stops_replay () =
  with_temp_file (fun path ->
      let wal = Wal.create path in
      List.iter (fun i -> must_append wal (row i (i + 1) 0 "data")) [ 1; 2; 3 ];
      Wal.close wal;
      let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      (* flip a byte inside the second record's payload *)
      let record_len = (Bytes.length full - 8) / 3 in
      Bytes.set_uint8 full (8 + record_len + 10)
        (Bytes.get_uint8 full (8 + record_len + 10) lxor 0xFF);
      Out_channel.with_open_bin path (fun oc -> output_bytes oc full);
      let plan = scan_exn path in
      check Alcotest.int "stops at corruption" 1 (List.length plan.Wal.redo_rows);
      check Alcotest.bool "corrupt suffix discarded" true (plan.Wal.discarded_bytes > 0))

let page_image rows =
  let page = Page.create ~size:256 in
  List.iter (fun r -> ignore (Page.add_row page r)) rows;
  Page.serialize page

let test_wal_checkpoint_gates_redo () =
  with_temp_file (fun path ->
      let img_old = page_image [ row 1 2 0 "old" ] in
      let img_mid = page_image [ row 1 2 0 "mid" ] in
      let img_new = page_image [ row 1 2 0 "new" ] in
      (* Suppress the checkpoint's truncation: this reproduces a crash
         after the checkpoint record is durable but before the file is
         cut back — recovery must honour the record alone. *)
      Store_io.set_ops
        (Some
           {
             Store_io.write = Unix.write;
             fsync = Unix.fsync;
             ftruncate = (fun _ _ -> ());
           });
      let survived_truncation =
        Fun.protect
          ~finally:(fun () -> Store_io.set_ops None)
          (fun () ->
            let wal = Wal.create path in
            must_append wal (row 1 2 0 "before");
            Wal.append_page_images wal [ (0, img_old) ];
            Wal.checkpoint wal;
            Wal.close wal;
            (In_channel.with_open_bin path In_channel.input_all |> String.length) > 8)
      in
      check Alcotest.bool "truncation was suppressed" true survived_truncation;
      (match Wal.open_existing path with
      | Error e -> Alcotest.fail e
      | Ok wal ->
          must_append wal (row 7 8 0 "after");
          Wal.append_page_images wal [ (0, img_mid); (0, img_new) ];
          Wal.sync wal;
          Wal.close wal);
      let plan = scan_exn path in
      check Alcotest.bool "checkpoint found" true (plan.Wal.last_checkpoint <> None);
      (* rows and images logged before the checkpoint are not redone;
         for the re-logged page only the newest image wins *)
      check Alcotest.(list int) "only post-checkpoint rows" [ 7 ]
        (pres plan.Wal.redo_rows);
      match plan.Wal.redo_pages with
      | [ (0, image) ] ->
          check Alcotest.bool "newest image wins" true (Bytes.equal image img_new)
      | other -> Alcotest.failf "expected one page image, got %d" (List.length other))

let test_node_table_share_too_large () =
  let t = Node_table.create ~page_size:4096 () in
  let n = Wal.max_share_len + 1 in
  Alcotest.check_raises "oversized share"
    (Invalid_argument
       (Printf.sprintf "Node_table.insert: share of %d bytes exceeds the %d-byte limit"
          n Wal.max_share_len))
    (fun () -> Node_table.insert t (row 1 2 0 (String.make n 'x')))

let test_crash_recovery () =
  with_temp_file (fun path ->
      (* "crash": insert durably but never flush/close; simulate by
         abandoning the table after the WAL writes *)
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      List.iter (Node_table.insert t) sample_rows;
      (* no flush, no close: pages were never checkpointed *)
      (match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok recovered ->
          check Alcotest.int "all rows recovered" 5 (Node_table.row_count recovered);
          check Alcotest.(list int) "axes work after recovery" [ 2; 4; 5 ]
            (pres (Node_table.children recovered ~parent:1));
          check Alcotest.bool "payload intact" true
            (Page.row_equal (List.nth sample_rows 2)
               (Option.get (Node_table.find_by_pre recovered 3)));
          Node_table.close recovered);
      (* after a clean close the WAL is checkpointed: reopening again
         must not duplicate anything *)
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok again ->
          check Alcotest.int "no duplicates after checkpoint" 5 (Node_table.row_count again);
          Node_table.close again)

let test_crash_recovery_partial_checkpoint () =
  with_temp_file (fun path ->
      (* first batch checkpointed, second only in the WAL *)
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      Node_table.insert t (row 1 5 0 "r");
      Node_table.insert t (row 2 2 1 "a");
      Node_table.flush t;
      Node_table.insert t (row 3 1 2 "b");
      Node_table.insert t (row 4 3 1 "c");
      (* crash before the second flush; recovery merges pages + log *)
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok recovered ->
          check Alcotest.int "pages + wal merged" 4 (Node_table.row_count recovered);
          check Alcotest.(list int) "children" [ 2; 4 ]
            (pres (Node_table.children recovered ~parent:1));
          Node_table.close recovered)

let test_durable_without_crash () =
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      List.iter (Node_table.insert t) sample_rows;
      Node_table.close t;
      check Alcotest.bool "wal exists" true (Sys.file_exists (path ^ ".wal"));
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          check Alcotest.int "rows" 5 (Node_table.row_count t');
          check Alcotest.bool "clean open replays nothing" true
            (Node_table.recovery_stats t' = None);
          Node_table.close t')

(* --- fake fd layer ------------------------------------------------- *)

(* A model of the kernel page cache under power loss: writes and
   truncations are buffered per fd and reach the real file only on
   fsync; [crash] drops everything still buffered.  The [ftruncate]
   hook additionally asserts the checkpoint ordering — the WAL may
   only truncate itself while no other store fd has un-fsynced writes,
   i.e. the heap must have been fsynced first. *)
module Fake_disk = struct
  type op = Buf_write of int * bytes | Buf_trunc of int

  let buffered : (Unix.file_descr, op list ref) Hashtbl.t = Hashtbl.create 8
  let truncate_violations = ref 0

  let buffered_of fd =
    match Hashtbl.find_opt buffered fd with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace buffered fd l;
        l

  let write fd buf off len =
    let file_off = Unix.lseek fd 0 Unix.SEEK_CUR in
    let l = buffered_of fd in
    l := Buf_write (file_off, Bytes.sub buf off len) :: !l;
    (* buffered: only the fd offset moves *)
    ignore (Unix.lseek fd (file_off + len) Unix.SEEK_SET);
    len

  let fsync fd =
    let l = buffered_of fd in
    let restore = Unix.lseek fd 0 Unix.SEEK_CUR in
    List.iter
      (function
        | Buf_write (off, data) ->
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let rec put o n =
              if n > 0 then begin
                let w = Unix.write fd data o n in
                put (o + w) (n - w)
              end
            in
            put 0 (Bytes.length data)
        | Buf_trunc len -> Unix.ftruncate fd len)
      (List.rev !l);
    l := [];
    ignore (Unix.lseek fd restore Unix.SEEK_SET)

  let ftruncate fd len =
    Hashtbl.iter
      (fun other l -> if other <> fd && !l <> [] then incr truncate_violations)
      buffered;
    let l = buffered_of fd in
    l := Buf_trunc len :: !l

  let ops = { Store_io.write; fsync; ftruncate }

  (* power loss: everything still buffered vanishes *)
  let crash () = Hashtbl.reset buffered

  let with_fake_disk f =
    Hashtbl.reset buffered;
    truncate_violations := 0;
    Store_io.set_ops (Some ops);
    Fun.protect ~finally:(fun () -> Store_io.set_ops None) f
end

let test_checkpoint_waits_for_heap_fsync () =
  with_temp_file (fun path ->
      Fake_disk.with_fake_disk (fun () ->
          let t = Node_table.create_file ~page_size:512 ~durable:true path in
          List.iter (Node_table.insert t) sample_rows;
          Node_table.flush t;
          Node_table.close t;
          (* the regression this guards: flush used to truncate the WAL
             while the heap's writes were still un-fsynced, so a power
             cut at that instant lost them from both files *)
          check Alcotest.int "no truncation while heap writes are volatile" 0
            !Fake_disk.truncate_violations;
          (* power loss after the clean close: the durable state alone
             must reproduce every row *)
          Fake_disk.crash ();
          match Node_table.open_file path with
          | Error e -> Alcotest.fail e
          | Ok t' ->
              check Alcotest.int "rows survive power loss" 5 (Node_table.row_count t');
              check Alcotest.(list int) "axes intact" [ 2; 4; 5 ]
                (pres (Node_table.children t' ~parent:1));
              Node_table.close t'))

let test_acked_inserts_survive_power_loss () =
  with_temp_file (fun path ->
      Fake_disk.with_fake_disk (fun () ->
          let t = Node_table.create_file ~page_size:512 ~durable:true path in
          List.iter (Node_table.insert t) sample_rows;
          (* no flush: the heap (even its header) is entirely volatile,
             only the WAL's per-insert fsyncs are durable *)
          Fake_disk.crash ();
          match Node_table.open_file path with
          | Error e -> Alcotest.fail e
          | Ok t' ->
              check Alcotest.int "every acked insert recovered" 5
                (Node_table.row_count t');
              check Alcotest.(list int) "axes intact" [ 2; 4; 5 ]
                (pres (Node_table.children t' ~parent:1));
              (match Node_table.recovery_stats t' with
              | Some r -> check Alcotest.int "rows replayed" 5 r.Node_table.redo_rows
              | None -> Alcotest.fail "expected a recovery");
              Node_table.close t'))

let test_torn_page_write_repaired_by_redo () =
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      (* first batch checkpointed: the fill page now lives on disk *)
      Node_table.insert t (row 1 9 0 "r");
      Node_table.insert t (row 2 1 1 "a");
      Node_table.flush t;
      (* second batch lands in the same fill page, whose flush will
         rewrite it in place — tear that heap write *)
      Node_table.insert t (row 3 2 1 "b");
      Node_table.insert t (row 4 3 1 "c");
      Store_io.arm_torn_write ~kind:Store_io.Page_write ~after:1
        ~action:Store_io.Torn_raise;
      (match Node_table.flush t with
      | () -> Alcotest.fail "torn write did not fire"
      | exception Failure _ -> ());
      check Alcotest.bool "failpoint disarmed itself" false (Store_io.torn_write_armed ());
      (* abandon [t] as a crashed process would; the torn page on disk
         fails its CRC, so only page redo can bring the table back *)
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          check Alcotest.int "all rows back" 4 (Node_table.row_count t');
          check Alcotest.(list int) "children" [ 2; 3; 4 ]
            (pres (Node_table.children t' ~parent:1));
          (match Node_table.recovery_stats t' with
          | Some r -> check Alcotest.bool "page images replayed" true (r.Node_table.redo_pages > 0)
          | None -> Alcotest.fail "expected a recovery");
          Node_table.close t')

let test_heap_rebuilt_from_wal_alone () =
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      List.iter (Node_table.insert t) sample_rows;
      (* the heap file is destroyed outright (crash before its first
         fsync: nothing of it was ever durable) *)
      Out_channel.with_open_bin path (fun _ -> ());
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          check Alcotest.int "rebuilt from the log" 5 (Node_table.row_count t');
          check Alcotest.(list int) "axes intact" [ 2; 4; 5 ]
            (pres (Node_table.children t' ~parent:1));
          Node_table.close t')

(* A table written before the sampler read each keystream byte once:
   this build's files with the retired magic stamped over their first
   8 bytes (the headers are otherwise unchanged).  Its shares no longer
   match the client stream, so every open refuses it by name and
   leaves both files byte for byte as they were, even when the log
   holds records, which for an unreadable heap would have it rebuilt
   from the log. *)
(* Both retired formats: [SSDBPAG1]/[SSDBWAL2] (the first-refill
   sampler) and [SSDBPAG2]/[SSDBWAL3] (coefficient-domain shares). *)
let test_retired_format_refused ~page ~log ~why () =
  with_temp_file (fun path ->
      let read () =
        List.map
          (fun p ->
            if Sys.file_exists p then In_channel.with_open_bin p In_channel.input_all
            else "(absent)")
          [ path; path ^ ".wal" ]
      in
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      List.iter (Node_table.insert t) sample_rows;
      Node_table.close t;
      (* two more acknowledged rows, never checkpointed: the log holds
         records *)
      let t = Result.get_ok (Node_table.open_file ~durable:true path) in
      List.iter (Node_table.insert t) [ row 6 6 1 "e"; row 7 7 1 "f" ];
      let expect_refusal what ~names =
        let before = read () in
        List.iter
          (fun durable ->
            match Node_table.open_file ~durable path with
            | Ok _ -> Alcotest.failf "%s: opened" what
            | Error msg ->
                List.iter
                  (fun sub ->
                    check Alcotest.bool
                      (Printf.sprintf "%s: %S names %s" what msg sub)
                      true
                      (Test_support.contains ~sub msg))
                  [ names; why; "re-encode" ])
          [ false; true ];
        check Alcotest.(list string) (what ^ ": files untouched") before (read ())
      in
      Test_support.stamp path page;
      expect_refusal "retired heap, current log with records" ~names:page;
      Test_support.stamp (path ^ ".wal") log;
      expect_refusal "retired heap and log with records" ~names:log;
      Out_channel.with_open_bin (path ^ ".wal") (fun _ -> ());
      expect_refusal "retired heap, empty log" ~names:page;
      Sys.remove (path ^ ".wal");
      expect_refusal "retired heap, no log" ~names:page)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_recovery_tolerates_hole_pages () =
  with_temp_file (fun path ->
      (* The hole-page crash: with a tiny cache, keeping page 0 hot
         makes the LRU evict *later* pages, so a high-index dirty page
         is WAL-logged and heap-written while page 0 (dirty, never
         written) is left as a hole below the heap frontier.  After
         the crash, page 0 reads back as zeros; recovery must treat it
         as empty and re-insert its rows from the log instead of
         failing the open forever on "bad page magic". *)
      let n = 40 in
      let root = row 1 n 0 (String.make 60 'r') in
      let t = Node_table.create_file ~page_size:256 ~cache_pages:4 ~durable:true path in
      Node_table.insert t root;
      for i = 2 to n do
        Node_table.insert t (row i (i - 1) 1 (String.make 60 'x'));
        (* keep the root's page MRU so eviction always picks a later page *)
        ignore (Node_table.find_by_pre t 1)
      done;
      (* crash: abandon [t] with page 0 still dirty in the cache and
         evicted page images in the log *)
      (match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          check Alcotest.int "all rows recovered" n (Node_table.row_count t');
          check Alcotest.(list int) "children intact"
            (List.init (n - 1) (fun i -> i + 2))
            (pres (Node_table.children t' ~parent:1));
          check Alcotest.bool "hole-page row payload intact" true
            (Page.row_equal root (Option.get (Node_table.find_by_pre t' 1)));
          (match Node_table.recovery_stats t' with
          | Some r ->
              check Alcotest.bool "evicted page images were replayed" true
                (r.Node_table.redo_pages > 0)
          | None -> Alcotest.fail "expected a recovery");
          Node_table.close t');
      (* the backfilled heap must reopen cleanly (no lingering holes) *)
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t2 ->
          check Alcotest.int "clean reopen keeps every row" n (Node_table.row_count t2);
          check Alcotest.bool "second open replays nothing" true
            (Node_table.recovery_stats t2 = None);
          Node_table.close t2)

let test_durable_open_adopts_undurable_table () =
  with_temp_file (fun path ->
      (* a table created without [durable] has no .wal at all *)
      let t = Node_table.create_file ~page_size:512 path in
      List.iter (Node_table.insert t) sample_rows;
      Node_table.close t;
      check Alcotest.bool "no wal yet" false (Sys.file_exists (wal_path_of path));
      match Node_table.open_file ~durable:true path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          check Alcotest.bool "adoption starts a log" true
            (Sys.file_exists (wal_path_of path));
          check Alcotest.int "rows" 5 (Node_table.row_count t');
          Node_table.insert t' (row 6 6 1 "e");
          (* crash: the new insert lives only in the adopted log *)
          (match Node_table.open_file path with
          | Error e -> Alcotest.fail e
          | Ok t2 ->
              check Alcotest.int "acked insert recovered" 6 (Node_table.row_count t2);
              check Alcotest.(list int) "children include it" [ 2; 4; 5; 6 ]
                (pres (Node_table.children t2 ~parent:1));
              Node_table.close t2))

let test_recovery_unix_errors_do_not_leak_fds () =
  let with_ops ops f =
    Store_io.set_ops (Some ops);
    Fun.protect ~finally:(fun () -> Store_io.set_ops None) f
  in
  let enospc name = raise (Unix.Unix_error (Unix.ENOSPC, name, "")) in
  (* the redo pass's heap write fails: open_file must return Error
     (not raise) and close the pager fd *)
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:256 path in
      Node_table.insert t (row 1 2 0 "x");
      Node_table.close t;
      let wal = Wal.create (wal_path_of path) in
      Wal.append_page_images wal [ (0, page_image [ row 1 2 0 "y" ]) ];
      Wal.sync wal;
      Wal.close wal;
      let before = open_fds () in
      with_ops
        {
          Store_io.write = (fun _ _ _ _ -> enospc "write");
          fsync = Unix.fsync;
          ftruncate = Unix.ftruncate;
        }
        (fun () ->
          for _ = 1 to 10 do
            match Node_table.open_file path with
            | Ok _ -> Alcotest.fail "redo with a failing disk accepted"
            | Error _ -> ()
          done);
      check Alcotest.int "fds after failing redo" before (open_fds ()));
  (* the post-recovery checkpoint's fsync fails: both the pager and
     the wal fd must be closed *)
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:256 ~durable:true path in
      Node_table.insert t (row 1 2 0 "x");
      (* crash: the row lives only in the log *)
      ignore t;
      let before = open_fds () in
      with_ops
        {
          Store_io.write = Unix.write;
          fsync = (fun _ -> enospc "fsync");
          ftruncate = Unix.ftruncate;
        }
        (fun () ->
          for _ = 1 to 10 do
            match Node_table.open_file path with
            | Ok _ -> Alcotest.fail "checkpoint with a failing fsync accepted"
            | Error _ -> ()
          done);
      check Alcotest.int "fds after failing checkpoint fsync" before (open_fds ()))

let test_recovery_is_idempotent () =
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:512 ~durable:true path in
      List.iter (Node_table.insert t) sample_rows;
      (* crash; recover; crash again without any new writes; recover *)
      (match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t1 ->
          check Alcotest.bool "first open recovers" true
            (Node_table.recovery_stats t1 <> None);
          Node_table.close t1);
      match Node_table.open_file path with
      | Error e -> Alcotest.fail e
      | Ok t2 ->
          check Alcotest.bool "second open is clean" true
            (Node_table.recovery_stats t2 = None);
          check Alcotest.int "same rows" 5 (Node_table.row_count t2);
          check Alcotest.(list int) "same axes" [ 2; 4; 5 ]
            (pres (Node_table.children t2 ~parent:1));
          Node_table.close t2)

let test_no_fd_leak_on_failed_opens () =
  with_temp_file (fun path ->
      (* a valid heap whose WAL prescribes an impossible redo: the
         page image is larger than the table's pages, so recovery
         fails after the pager is already open *)
      let t = Node_table.create_file ~page_size:256 path in
      Node_table.insert t (row 1 2 0 "x");
      Node_table.close t;
      let wal = Wal.create (wal_path_of path) in
      let big = Page.create ~size:512 in
      ignore (Page.add_row big (row 5 6 0 "big"));
      Wal.append_page_images wal [ (0, Page.serialize big) ];
      Wal.sync wal;
      Wal.close wal;
      let before = open_fds () in
      for _ = 1 to 20 do
        match Node_table.open_file path with
        | Ok _ -> Alcotest.fail "impossible redo accepted"
        | Error _ -> ()
      done;
      check Alcotest.int "fds after failed recoveries" before (open_fds ());
      (* garbage heap file, no wal: the open fails before recovery *)
      Sys.remove (wal_path_of path);
      Out_channel.with_open_bin path (fun oc -> output_string oc "garbage");
      let before = open_fds () in
      for _ = 1 to 20 do
        match Node_table.open_file path with
        | Ok _ -> Alcotest.fail "garbage accepted"
        | Error _ -> ()
      done;
      check Alcotest.int "fds after failed opens" before (open_fds ()))

(* The columns reach as far as the largest pre or parent, so a row
   beyond [Node_table.max_pre] is refused before it can ask for
   memory: by [insert] with [Invalid_argument] before any page or log
   write, and by [open_file] with an [Error] (and no leaked fd) when
   the heap or the log already holds one. *)
let test_pre_bound_refused_on_insert () =
  with_temp_file (fun path ->
      let t = Node_table.create_file ~page_size:256 ~durable:true path in
      Node_table.insert t (row 1 2 0 "x");
      let wal_size () = (Unix.stat (wal_path_of path)).Unix.st_size in
      let data = Node_table.data_bytes t and index = Node_table.index_bytes t in
      let logged = wal_size () in
      let over = Node_table.max_pre + 1 in
      let refusal what v lo =
        Printf.sprintf "Node_table.insert: %s %d outside [%d, %d]" what v lo Node_table.max_pre
      in
      List.iter
        (fun (r, msg) ->
          Alcotest.check_raises msg (Invalid_argument msg) (fun () -> Node_table.insert t r))
        [
          (row over 1 0 "y", refusal "pre" over 1);
          (row 0 1 0 "y", refusal "pre" 0 1);
          (row 2 1 over "y", refusal "parent" over 0);
        ];
      check Alcotest.int "rows" 1 (Node_table.row_count t);
      check Alcotest.int "no page write" data (Node_table.data_bytes t);
      check Alcotest.int "no log write" logged (wal_size ());
      check Alcotest.int "index not grown" index (Node_table.index_bytes t);
      (* the bound itself is admitted, and a lone far row costs the
         chunk directory and one chunk, not columns up to it *)
      Node_table.insert t (row Node_table.max_pre 2 0 "z");
      check Alcotest.bool "far row found" true
        (Node_table.find_by_pre t Node_table.max_pre <> None);
      check Alcotest.bool "far row is cheap" true (Node_table.index_bytes t < 1 lsl 20);
      Node_table.close t)

let test_pre_bound_refused_on_open () =
  with_temp_file (fun path ->
      let over = row (Node_table.max_pre + 1) 1 0 "hostile" in
      let refused what =
        let before = open_fds () in
        for _ = 1 to 20 do
          match Node_table.open_file path with
          | Ok _ -> Alcotest.failf "%s: pre beyond the bound accepted" what
          | Error msg ->
              check Alcotest.string (what ^ ": refusal")
                (Printf.sprintf "Node_table.open_file: pre %d outside [1, %d]"
                   over.Page.pre Node_table.max_pre)
                msg
        done;
        check Alcotest.int (what ^ ": fds after refused opens") before (open_fds ())
      in
      (* a CRC-valid heap page holding the row *)
      let pager = Pager.create_file ~page_size:256 path in
      let page = Page.create ~size:256 in
      ignore (Page.add_row page over);
      ignore (Pager.append pager page);
      Pager.close pager;
      refused "heap row";
      (* a valid empty table whose log replays the row *)
      Node_table.close (Node_table.create_file ~page_size:256 path);
      let wal = Wal.create (wal_path_of path) in
      must_append wal over;
      Wal.sync wal;
      Wal.close wal;
      refused "logged row")

(* Build a random forest shape and compare axes against naive scans.
   Node i (pre = i + 1 before renumbering) hangs under a uniformly
   chosen earlier node, or starts a new root when the choice lands on
   0; a DFS renumbering then gives valid pre/post nesting.  Each
   forest goes in as every row set of [insertion_orders]. *)
let gen_tree_rows =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let* parents = list_repeat n (int_range 0 1000) in
    let* keys = list_repeat n (int_range 0 1_000_000) in
    return (n, parents, keys))

let build_rows (n, parent_choices, _) =
  (* children lists in insertion order; index 0 is the virtual root *)
  let children = Array.make (n + 1) [] in
  List.iteri
    (fun i choice ->
      let node = i + 1 in
      let parent = if node = 1 then 0 else choice mod node in
      children.(parent) <- node :: children.(parent))
    parent_choices;
  Array.iteri (fun i l -> children.(i) <- List.rev l) children;
  (* DFS assigns pre/post *)
  let rows = ref [] in
  let pre = ref 0 and post = ref 0 in
  let rec dfs node parent_pre =
    incr pre;
    let my_pre = !pre in
    List.iter (fun kid -> dfs kid my_pre) children.(node);
    incr post;
    let share = Bytes.of_string (Printf.sprintf "share-%d" my_pre) in
    rows := { Page.pre = my_pre; post = !post; parent = parent_pre; share } :: !rows
  in
  List.iter (fun root -> dfs root 0) children.(0);
  List.sort (fun a b -> compare a.Page.pre b.Page.pre) !rows

(* The insertion orders of one forest: pre order, post order and a
   shuffle, plus the sparse subset (every other leaf, by the shuffle
   keys) inserted in post order, and the forest with every number
   spread 300 apart (a far pre per row). *)
let insertion_orders ((_, _, keys) as spec) =
  let rows = build_rows spec in
  let by f = List.sort (fun a b -> compare (f a) (f b)) rows in
  let key (r : Page.row) = List.nth keys (r.Page.pre - 1) in
  let leaf (r : Page.row) = not (List.exists (fun c -> c.Page.parent = r.Page.pre) rows) in
  [
    ("pre order", rows);
    ("post order", by (fun r -> r.Page.post));
    ("shuffled", by key);
    ( "sparse leaves",
      List.filter (fun r -> leaf r && key r mod 2 = 0) (by (fun r -> r.Page.post)) );
    ( "spread",
      List.map
        (fun r ->
          let spread n = 300 * n in
          {
            r with
            Page.pre = spread r.Page.pre;
            post = spread r.Page.post;
            parent = spread r.Page.parent;
          })
        rows );
  ]

(* Every axis of [t] against a naive list scan of [rows]; the first
   disagreement fails with the axis named. *)
let check_axes what t rows =
  let fail axis = QCheck2.Test.fail_reportf "%s: %s disagrees with the naive scan" what axis in
  let sorted = List.sort (fun a b -> compare a.Page.pre b.Page.pre) rows in
  let top = List.fold_left (fun m r -> max m r.Page.pre) 0 rows in
  let find pre = List.find_opt (fun r -> r.Page.pre = pre) rows in
  let same_row a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> Page.row_equal a b
    | _ -> false
  in
  if Node_table.row_count t <> List.length rows then fail "row_count";
  (* every pre present, each one's neighbours and parent, and past the top *)
  let probes =
    List.sort_uniq compare
      (0 :: (top + 1) :: (top + 2)
      :: List.concat_map
           (fun r -> [ r.Page.pre - 1; r.Page.pre; r.Page.pre + 1; r.Page.parent ])
           rows)
  in
  List.iter
    (fun pre ->
      if not (same_row (Node_table.find_by_pre t pre) (find pre)) then fail "find_by_pre";
      let naive_children = List.filter (fun r -> r.Page.parent = pre) sorted in
      if pres (Node_table.children t ~parent:pre) <> pres naive_children then fail "children";
      (* the parent step's lookup: a one-pre window with no post bound *)
      let window, _ =
        Node_table.scan_range t ~from_pre:pre ~until_pre:(pre + 1) ~below_post:max_int
          ~max_rows:2
      in
      if pres window <> pres (Option.to_list (find pre)) then fail "one-pre window")
    probes;
  if not (same_row (Node_table.root t) (List.find_opt (fun r -> r.Page.parent = 0) sorted))
  then fail "root";
  (* [scan_range] at every budget: the rows taken and the resume pre *)
  let check_range ~from_pre ~below_post =
    let rec take_while = function
      | r :: rest when r.Page.post < below_post -> r :: take_while rest
      | _ -> []
    in
    let run = take_while (List.filter (fun r -> r.Page.pre >= from_pre) sorted) in
    (* no bound, and a bound that cuts the run in half *)
    let bounds =
      match List.nth_opt run (List.length run / 2) with
      | Some r -> [ max_int; r.Page.pre ]
      | None -> [ max_int ]
    in
    List.iter
      (fun until_pre ->
        let naive = List.filter (fun r -> r.Page.pre < until_pre) run in
        let len = List.length naive in
        for max_rows = 1 to len + 1 do
          let got, resume =
            Node_table.scan_range t ~from_pre ~until_pre ~below_post ~max_rows
          in
          let want = List.filteri (fun i _ -> i < max_rows) naive in
          let want_resume =
            if max_rows < len then Some (List.nth naive max_rows).Page.pre else None
          in
          if pres got <> pres want || resume <> want_resume then fail "scan_range"
        done)
      bounds
  in
  check_range ~from_pre:0 ~below_post:max_int;
  List.iter
    (fun (r : Page.row) ->
      let naive_desc =
        List.filter (fun c -> c.Page.pre > r.Page.pre && c.Page.post < r.Page.post) sorted
      in
      if pres (Node_table.descendants t ~pre:r.Page.pre ~post:r.Page.post) <> pres naive_desc
      then fail "descendants";
      check_range ~from_pre:(r.Page.pre + 1) ~below_post:r.Page.post;
      check_range ~from_pre:r.Page.pre ~below_post:(r.Page.post + 1))
    rows;
  true

let node_table_model_suite =
  [
    qtest ~count:100 "axes match naive scans" gen_tree_rows (fun spec ->
        List.for_all
          (fun (order, rows) ->
            let t = Node_table.create ~page_size:512 () in
            List.iter (Node_table.insert t) rows;
            check_axes (order ^ ", in memory") t rows
            && with_temp_file (fun path ->
                   let t = Node_table.create_file ~page_size:256 path in
                   List.iter (Node_table.insert t) rows;
                   check_axes (order ^ ", file-backed") t rows
                   && begin
                     Node_table.close t;
                     match Node_table.open_file path with
                     | Error e -> QCheck2.Test.fail_reportf "%s: reopen failed: %s" order e
                     | Ok t ->
                         let ok = check_axes (order ^ ", reopened") t rows in
                         Node_table.close t;
                         ok
                   end))
          (insertion_orders spec));
  ]

let () =
  Alcotest.run "store"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vectors ]);
      ( "page",
        [
          Alcotest.test_case "roundtrip" `Quick test_page_roundtrip;
          Alcotest.test_case "fills up" `Quick test_page_fills_up;
          Alcotest.test_case "rejects bad input" `Quick test_page_rejects;
          Alcotest.test_case "corruption detected" `Quick test_page_corruption_detected;
        ]
        @ page_fuzz_suite );
      ( "pager",
        [
          Alcotest.test_case "file roundtrip with eviction" `Quick test_pager_file_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_pager_rejects_garbage;
          Alcotest.test_case "get refuses out-of-range pages" `Quick test_pager_get_bounds;
          Alcotest.test_case "lock witness detects inversion" `Quick
            test_lock_witness_detects_inversion;
          Alcotest.test_case "lock witness rejects same-rank re-entry" `Quick
            test_lock_witness_rejects_same_rank_reentry;
          Alcotest.test_case "lock witness refuses undeclared class" `Quick
            test_lock_witness_refuses_undeclared_class;
          Alcotest.test_case "lock witness passes pager traffic" `Quick
            test_lock_witness_passes_pager_traffic;
          Alcotest.test_case "latch under contention from 4 domains" `Quick
            test_pager_latch_under_contention;
        ] );
      ( "node table",
        [
          Alcotest.test_case "axes" `Quick test_node_table_axes;
          Alcotest.test_case "duplicate pre rejected" `Quick test_node_table_duplicate_pre;
          Alcotest.test_case "size accounting" `Quick test_node_table_sizes;
          Alcotest.test_case "file roundtrip" `Quick test_node_table_file_roundtrip;
          Alcotest.test_case "pre bound refused on insert" `Quick
            test_pre_bound_refused_on_insert;
          Alcotest.test_case "pre bound refused on open" `Quick test_pre_bound_refused_on_open;
        ]
        @ node_table_model_suite );
      ( "write-ahead log",
        [
          Alcotest.test_case "row roundtrip" `Quick test_wal_row_roundtrip;
          Alcotest.test_case "entry count on reopen" `Quick test_wal_entry_count_on_reopen;
          Alcotest.test_case "oversized share rejected" `Quick
            test_wal_rejects_oversized_share;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt record stops replay" `Quick
            test_wal_corrupt_record_stops_replay;
          Alcotest.test_case "checkpoint gates redo" `Quick test_wal_checkpoint_gates_redo;
          Alcotest.test_case "node table rejects oversized share" `Quick
            test_node_table_share_too_large;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "partial checkpoint" `Quick test_crash_recovery_partial_checkpoint;
          Alcotest.test_case "durable clean shutdown" `Quick test_durable_without_crash;
        ] );
      ( "durability",
        [
          Alcotest.test_case "checkpoint waits for heap fsync" `Quick
            test_checkpoint_waits_for_heap_fsync;
          Alcotest.test_case "acked inserts survive power loss" `Quick
            test_acked_inserts_survive_power_loss;
          Alcotest.test_case "torn page write repaired by redo" `Quick
            test_torn_page_write_repaired_by_redo;
          Alcotest.test_case "heap rebuilt from wal alone" `Quick
            test_heap_rebuilt_from_wal_alone;
          Alcotest.test_case "recovery is idempotent" `Quick test_recovery_is_idempotent;
          Alcotest.test_case "hole pages backfilled on recovery" `Quick
            test_recovery_tolerates_hole_pages;
          Alcotest.test_case "durable open adopts undurable table" `Quick
            test_durable_open_adopts_undurable_table;
          Alcotest.test_case "disk errors during recovery return Error" `Quick
            test_recovery_unix_errors_do_not_leak_fds;
          Alcotest.test_case "no fd leak on failed opens" `Quick
            test_no_fd_leak_on_failed_opens;
          Alcotest.test_case "retired format refused, files untouched" `Quick
            (test_retired_format_refused ~page:"SSDBPAG1" ~log:"SSDBWAL2"
               ~why:"first-refill sampler");
          Alcotest.test_case "coefficient-domain format refused, files untouched" `Quick
            (test_retired_format_refused ~page:"SSDBPAG2" ~log:"SSDBWAL3"
               ~why:"coefficient vectors");
        ] );
      ( "race witness",
        [
          Alcotest.test_case "suites above left no reports" `Quick
            test_witness_suite_silent;
        ] );
    ]
