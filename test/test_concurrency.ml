(* Concurrent query serving: many clients against one served database,
   and the client's share-regeneration cache — all asserted equal to
   the plaintext reference and to each other. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Lru = Secshare_core.Lru
module Reference = Secshare_core.Reference
module Parser = Secshare_xpath.Parser

let check = Alcotest.check
let parse = Parser.parse_exn

let queries =
  [ "/site"; "/site/regions/europe/item"; "//bidder/date"; "/site/*/person//city" ]

let xmark_doc = lazy (Secshare_xmark.Generate.generate ~factor:0.4 ())

let config_with client =
  { DB.default_config with seed = Some Test_support.test_seed; client }

let db_with client doc =
  match DB.create_tree ~config:(config_with client) doc with
  | Ok db -> db
  | Error e -> failwith e

let reference_pres doc q =
  Reference.run (Lazy.force (lazy doc)) (Secshare_xpath.Ast.rewrite_contains (parse q))

(* --- the stress test: N client threads x M queries, one server ------ *)

let test_concurrent_clients_match_reference () =
  let doc = Lazy.force xmark_doc in
  let db = db_with DB.default_client_config doc in
  let expected = List.map (fun q -> (q, reference_pres doc q)) queries in
  let path = Filename.temp_file "ssdb-conc" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let nclients = 4 and rounds = 3 in
  let failures = Atomic.make 0 in
  let client () =
    match
      DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path ()
    with
    | Error _ -> Atomic.incr failures
    | Ok session ->
        Fun.protect
          ~finally:(fun () -> DB.close session)
          (fun () ->
            for _ = 1 to rounds do
              List.iter
                (fun (q, want) ->
                  match DB.query ~engine:DB.Advanced ~strictness:QC.Strict session q with
                  | Error _ -> Atomic.incr failures
                  | Ok r ->
                      if Test_support.pres_of_metas (DB.result_nodes r) <> want then
                        Atomic.incr failures)
                expected
            done)
  in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () ->
      let threads = List.init nclients (fun _ -> Thread.create client ()) in
      List.iter Thread.join threads);
  check Alcotest.int "every query of every client matched the reference" 0
    (Atomic.get failures);
  check Alcotest.int "no cursors leaked" 0 (DB.open_cursors db);
  DB.close db

(* --- share cache: on = off, and repeats actually hit ---------------- *)

let test_share_cache_equivalence_and_hits () =
  let doc = Lazy.force xmark_doc in
  let cached = db_with { DB.default_client_config with share_cache = 4096 } doc in
  let uncached = db_with { DB.default_client_config with share_cache = 0 } doc in
  Fun.protect
    ~finally:(fun () ->
      DB.close cached;
      DB.close uncached)
    (fun () ->
      check Alcotest.bool "cache off reports no stats" true
        (DB.share_cache_stats uncached = None);
      List.iter
        (fun q ->
          let a = Test_support.must_query ~strictness:QC.Strict cached q in
          let b = Test_support.must_query ~strictness:QC.Strict uncached q in
          check
            Alcotest.(list int)
            (q ^ " cache-on = cache-off")
            (Test_support.pres_of_metas (DB.result_nodes a))
            (Test_support.pres_of_metas (DB.result_nodes b)))
        queries;
      (* a repeated workload must mostly hit: every polynomial the
         second pass needs was regenerated by the first *)
      List.iter
        (fun q -> ignore (Test_support.must_query ~strictness:QC.Strict cached q))
        queries;
      match DB.share_cache_stats cached with
      | None -> Alcotest.fail "cache enabled but no stats"
      | Some s ->
          let total = s.Lru.hits + s.Lru.misses in
          check Alcotest.bool
            (Printf.sprintf "hit rate >= 50%% on repeats (%d/%d)" s.Lru.hits total)
            true
            (float_of_int s.Lru.hits >= 0.5 *. float_of_int total))

(* --- qcheck: LRU eviction pressure never changes answers ------------ *)

let prop_tiny_cache_equals_no_cache =
  QCheck2.Test.make ~name:"eviction-thrashed share cache = no cache" ~count:30
    (QCheck2.Gen.pair Test_support.gen_tree Test_support.gen_query)
    (fun (tree, ast) ->
      (* capacity 2 thrashes: nearly every lookup evicts something *)
      let tiny = db_with { DB.default_client_config with share_cache = 2 } tree in
      let off = db_with { DB.default_client_config with share_cache = 0 } tree in
      Fun.protect
        ~finally:(fun () ->
          DB.close tiny;
          DB.close off)
        (fun () ->
          List.for_all
            (fun strictness ->
              let a = DB.query_ast ~strictness tiny ast in
              let b = DB.query_ast ~strictness off ast in
              match (a, b) with
              | Ok ra, Ok rb ->
                  Test_support.pres_of_metas (DB.result_nodes ra)
                  = Test_support.pres_of_metas (DB.result_nodes rb)
              | Error ea, Error eb -> ea = eb
              | _ -> false)
            [ QC.Strict; QC.Non_strict ]))

(* --- the generic LRU itself ----------------------------------------- *)

let test_lru_basics () =
  let lru = Lru.create 2 in
  Lru.add lru ~key:1 ~value:"a";
  Lru.add lru ~key:2 ~value:"b";
  check Alcotest.(option string) "find 1" (Some "a") (Lru.find lru 1);
  Lru.add lru ~key:3 ~value:"c" (* evicts 2: 1 was just touched *);
  check Alcotest.(option string) "2 evicted" None (Lru.find lru 2);
  check Alcotest.(option string) "1 kept" (Some "a") (Lru.find lru 1);
  check Alcotest.(option string) "3 kept" (Some "c") (Lru.find lru 3);
  let s = Lru.stats lru in
  check Alcotest.int "evictions" 1 s.Lru.evictions;
  check Alcotest.int "size" 2 (Lru.size lru)

let prop_lru_never_exceeds_capacity =
  QCheck2.Test.make ~name:"lru size <= capacity" ~count:100
    QCheck2.Gen.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, keys) ->
      let lru = Lru.create cap in
      List.iter (fun k -> Lru.add lru ~key:k ~value:k) keys;
      Lru.size lru <= cap
      && List.for_all
           (fun k -> match Lru.find lru k with Some v -> v = k | None -> true)
           keys)

(* --- the cursor table: a list model, and concurrent registration ---- *)

module Cursor_table = Secshare_core.Cursor_table

type table_op =
  | Add
  | Use of int
  | Remove of int * Cursor_table.reason
  | Sweep
  | Advance of int

let op_to_string = function
  | Add -> "add"
  | Use id -> Printf.sprintf "use %d" id
  | Remove (id, reason) ->
      Printf.sprintf "remove %d %s" id (Cursor_table.reason_label reason)
  | Sweep -> "sweep"
  | Advance dt -> Printf.sprintf "advance %d" dt

let gen_table_case =
  QCheck2.Gen.(
    let op =
      frequency
        [
          (4, return Add);
          (3, map (fun id -> Use id) (int_range 0 20));
          ( 2,
            map2
              (fun id reason -> Remove (id, reason))
              (int_range 0 20)
              (oneofl Cursor_table.[ Drained; Client_close; Connection_close ]) );
          (1, return Sweep);
          (2, map (fun dt -> Advance dt) (int_range 0 3));
        ]
    in
    triple (int_range 1 5) (opt (int_range 1 4)) (list_size (int_range 0 60) op))

(* The reference: (id, last use) pairs, most recent first.  A sweep
   scans the whole list; the table pops from its cold end instead. *)
let prop_cursor_table_matches_model =
  QCheck2.Test.make ~name:"cursor table = list model" ~count:300
    ~print:(fun (cap, ttl, ops) ->
      Printf.sprintf "cap %d, ttl %s: %s" cap
        (match ttl with Some s -> string_of_int s | None -> "none")
        (String.concat "; " (List.map op_to_string ops)))
    gen_table_case
    (fun (cap, ttl, ops) ->
      let clock = ref 0 in
      let fired = ref [] in
      let self = ref None in
      let table =
        Cursor_table.create
          ?ttl:(Option.map float_of_int ttl)
          ~now:(fun () -> float_of_int !clock)
          ~max:cap
          ~on_remove:(fun reason id payload ->
            if payload <> id then failwith "hook got another entry's payload";
            (* the hook runs after the unlock: the table is usable *)
            Option.iter (fun t -> ignore (Cursor_table.size t)) !self;
            fired := (reason, id) :: !fired)
          ()
      in
      self := Some table;
      let live = ref [] and next = ref 1 and expected = ref [] in
      let evicted = ref 0 and expired = ref 0 in
      let drop reason id =
        live := List.filter (fun (i, _) -> i <> id) !live;
        expected := (reason, id) :: !expected;
        match reason with
        | Cursor_table.Drained | Client_close -> ()
        | Ttl ->
            incr expired;
            incr evicted
        | Cap | Connection_close | Shutdown -> incr evicted
      in
      let sweep () =
        match ttl with
        | None -> 0
        | Some ttl ->
            let stale = List.filter (fun (_, used) -> !clock - used > ttl) !live in
            List.iter (fun (id, _) -> drop Cursor_table.Ttl id) (List.rev stale);
            List.length stale
      in
      let step op =
        match op with
        | Add ->
            ignore (sweep ());
            if List.length !live >= cap then
              drop Cursor_table.Cap (fst (List.nth !live (List.length !live - 1)));
            let id = !next in
            incr next;
            live := (id, !clock) :: !live;
            Cursor_table.add table id = id
        | Use id ->
            ignore (sweep ());
            let want = List.mem_assoc id !live in
            if want then live := (id, !clock) :: List.remove_assoc id !live;
            Cursor_table.use table id Fun.id = if want then Some id else None
        | Remove (id, reason) ->
            if List.mem_assoc id !live then drop reason id;
            Cursor_table.remove table id reason;
            true
        | Sweep ->
            let n = sweep () in
            Cursor_table.sweep table = n
        | Advance dt ->
            clock := !clock + dt;
            true
      in
      let agrees op =
        step op
        && List.rev !fired = List.rev !expected
        && Cursor_table.size table = List.length !live
        &&
        let s = Cursor_table.stats table in
        s.Cursor_table.evicted_cursors = !evicted && s.Cursor_table.expired_cursors = !expired
      in
      List.for_all agrees ops
      && begin
           List.iter (fun (id, _) -> drop Cursor_table.Shutdown id) (List.rev !live);
           Cursor_table.clear table;
           List.rev !fired = List.rev !expected
         end
      (* every id ever issued left exactly once *)
      && List.sort compare (List.map snd !fired) = List.init (!next - 1) (fun i -> i + 1))

(* N domains register and drop cursors against one small table.  The
   cap must hold at every instant — registration evicts and inserts in
   one critical section — and every cursor's hook fires exactly once. *)
let test_cursor_table_concurrent_cap () =
  let cap = 3 and domains = 4 and rounds = 300 in
  let fired = Array.init ((domains * rounds) + 1) (fun _ -> Atomic.make 0) in
  let table =
    Cursor_table.create ~max:cap ~on_remove:(fun _ id _ -> Atomic.incr fired.(id)) ()
  in
  let over_cap = Atomic.make 0 in
  let worker d () =
    for i = 1 to rounds do
      let id = Cursor_table.add table () in
      if Cursor_table.size table > cap then Atomic.incr over_cap;
      if (i + d) mod 3 = 0 then Cursor_table.remove table id Client_close
      else ignore (Cursor_table.use table id Fun.id)
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  check Alcotest.int "the cap held at every instant" 0 (Atomic.get over_cap);
  check Alcotest.bool "at most cap left open" true (Cursor_table.size table <= cap);
  Cursor_table.clear table;
  check Alcotest.int "empty after clear" 0 (Cursor_table.size table);
  Array.iteri
    (fun id n ->
      let want = if id = 0 then 0 else 1 in
      if Atomic.get n <> want then
        Alcotest.failf "cursor %d: on_remove fired %d times" id (Atomic.get n))
    fired

(* --- the lockset witness: real traffic silent, seeded race fires ---- *)

module Race_check = Secshare_obs.Race_check
module Server_filter = Secshare_core.Server_filter
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol

let with_witness f =
  let was = Race_check.enabled () in
  Race_check.set_enabled true;
  Race_check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Race_check.reset ();
      Race_check.set_enabled was)
    f

(* Under SSDB_RACE_CHECK=1 every hook in pager/cursor-table/server has been
   live since the process started; whatever the suites above did must
   not have produced a report. *)
let test_witness_suite_silent () =
  check Alcotest.(list string) "no reports from the suites above" []
    (Race_check.reports ())

(* 4 domains query one local handle's server half at once, each through
   its own client (a client filter and its share cache belong to one
   caller), then page through the whole table on a session of their
   own.  The paged scans register cursors, and every row read goes
   through the pager's latches. *)
let test_witness_silent_on_local_traffic () =
  let doc = Lazy.force xmark_doc in
  let db = db_with DB.default_client_config doc in
  let server = Server_filter.create (DB.ring db) (DB.table db) in
  let expected = List.map (fun q -> (q, reference_pres doc q)) queries in
  let failures = Atomic.make 0 in
  let paged_scan () =
    let on_request, on_close = Server_filter.connection server in
    let rec drain seen = function
      | Protocol.Scan_batch { rows; cursor = None } -> seen + List.length rows
      | Protocol.Scan_batch { rows; cursor = Some cursor } ->
          drain (seen + List.length rows)
            (on_request (Protocol.Scan_next { cursor; max_items = 16 }))
      | _ -> -1
    in
    let target = Protocol.Pre_ranges [ (1, max_int) ] in
    let first = on_request (Protocol.Scan_eval { target; points = []; max_items = 16 }) in
    let seen = drain 0 first in
    on_close ();
    seen
  in
  let all_rows = paged_scan () in
  let client () =
    if paged_scan () <> all_rows then Atomic.incr failures;
    match
      DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db)
        (Transport.local ~handler:(Server_filter.handler server))
    with
    | Error _ -> Atomic.incr failures
    | Ok session ->
        Fun.protect
          ~finally:(fun () -> DB.close session)
          (fun () ->
            List.iter
              (fun (q, want) ->
                match DB.query ~engine:DB.Advanced ~strictness:QC.Strict session q with
                | Ok r when Test_support.pres_of_metas (DB.result_nodes r) = want -> ()
                | _ -> Atomic.incr failures)
              expected)
  in
  let opened = Secshare_obs.Registry.counter "ssdb_server_cursors_opened_total" in
  let opened0 = Secshare_obs.Registry.counter_value opened in
  with_witness (fun () ->
      List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn client));
      check Alcotest.(list string) "witness stayed silent" [] (Race_check.reports ()));
  check Alcotest.bool "scans registered cursors" true
    (Secshare_obs.Registry.counter_value opened > opened0);
  check Alcotest.int "every query matched the reference" 0 (Atomic.get failures);
  check Alcotest.int "no cursors leaked" 0 (Server_filter.open_cursors server);
  DB.close db

(* Quarantined: the deliberately seeded race runs against its own root
   name and the report list is drained before the witness state is
   restored, so nothing leaks into other tests. *)
let test_witness_flags_seeded_race () =
  with_witness (fun () ->
      Race_check.acquired "cursor-table";
      Race_check.access ~write:true "seeded.root";
      Race_check.released "cursor-table";
      Domain.join (Domain.spawn (fun () -> Race_check.access ~write:true "seeded.root"));
      match Race_check.reports () with
      | [] -> Alcotest.fail "seeded race produced no report"
      | report :: _ ->
          check Alcotest.bool "report names the seeded root" true
            (Test_support.contains ~sub:"seeded.root" report))

let () =
  Alcotest.run "concurrency"
    [
      ( "serving",
        [
          Alcotest.test_case "N clients x M queries = reference, no leaks" `Slow
            test_concurrent_clients_match_reference;
        ] );
      ( "share cache",
        [
          Alcotest.test_case "cache on = cache off, repeats hit" `Quick
            test_share_cache_equivalence_and_hits;
          QCheck_alcotest.to_alcotest prop_tiny_cache_equals_no_cache;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
        ] );
      ( "cursor table",
        [
          QCheck_alcotest.to_alcotest prop_cursor_table_matches_model;
          Alcotest.test_case "concurrent adds respect the cap" `Quick
            test_cursor_table_concurrent_cap;
        ] );
      ( "race witness",
        [
          Alcotest.test_case "suites above left no reports" `Quick
            test_witness_suite_silent;
          Alcotest.test_case "local traffic leaves no reports" `Quick
            test_witness_silent_on_local_traffic;
          Alcotest.test_case "seeded race fires (quarantined)" `Quick
            test_witness_flags_seeded_race;
        ] );
    ]
