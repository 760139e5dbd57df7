(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§6), plus the ablations listed in DESIGN.md §5.

     dune exec bench/main.exe                 -- everything (default sizes)
     dune exec bench/main.exe -- --quick      -- smaller documents
     dune exec bench/main.exe -- fig4 fig5    -- selected experiments
     dune exec bench/main.exe -- micro        -- bechamel microbenchmarks
     dune exec bench/main.exe -- --json b.json fig5  -- machine-readable results

   Absolute numbers differ from the paper (2005 hardware, Java + MySQL
   versus OCaml and our own storage engine); the shapes are the claim:
   linear encoding, engines within a constant factor on chain queries,
   the advanced engine winning on '//' queries, strictness trade-offs,
   and accuracy dropping with each '//'. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Metrics = Secshare_core.Metrics
module Generate = Secshare_xmark.Generate
module Paper_queries = Secshare_xmark.Paper_queries
module Tree = Secshare_xml.Tree
module Print = Secshare_xml.Print
module Expand = Secshare_trie.Expand

let quick = ref false
let seed = Secshare_prg.Seed.of_passphrase "secshare-bench-seed"
let config = { DB.default_config with seed = Some seed }
let printf = Stdlib.Printf.printf

(* --- machine-readable results (--json FILE) ----------------------- *)

(* Experiments append one flat record per measured row; [--json FILE]
   dumps them all as a JSON array so CI can archive and diff runs
   without scraping the human tables. *)

type jv = J_str of string | J_int of int | J_float of float

let json_path : string option ref = ref None
let json_rows : (string * (string * jv) list) list ref = ref []

let record experiment fields =
  if !json_path <> None then json_rows := (experiment, fields) :: !json_rows

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jv_to_string = function
  | J_str s -> "\"" ^ json_escape s ^ "\""
  | J_int n -> string_of_int n
  | J_float f -> if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let write_json path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (experiment, fields) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  {\"experiment\": \"";
      Buffer.add_string buf (json_escape experiment);
      Buffer.add_string buf "\"";
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf ", \"";
          Buffer.add_string buf (json_escape k);
          Buffer.add_string buf "\": ";
          Buffer.add_string buf (jv_to_string v))
        fields;
      Buffer.add_string buf "}")
    (List.rev !json_rows);
  Buffer.add_string buf "\n]\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let heading title =
  printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let mb bytes = float_of_int bytes /. 1_048_576.0
let must = function Ok v -> v | Error msg -> failwith msg
let make_db ?(cfg = config) doc = must (DB.create_tree ~config:cfg doc)

let doc_cache : (int, Tree.t) Hashtbl.t = Hashtbl.create 8

let xmark_doc bytes =
  match Hashtbl.find_opt doc_cache bytes with
  | Some doc -> doc
  | None ->
      let doc = Generate.generate_bytes ~seed:20050905L ~target_bytes:bytes () in
      Hashtbl.replace doc_cache bytes doc;
      doc

let db_cache : (int, DB.t) Hashtbl.t = Hashtbl.create 8

let xmark_db bytes =
  match Hashtbl.find_opt db_cache bytes with
  | Some db -> db
  | None ->
      let db = make_db (xmark_doc bytes) in
      Hashtbl.replace db_cache bytes db;
      db

(* ------------------------------------------------------------------ *)
(* Figure 4: encoding — output size, index size, time vs input size   *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  heading "Figure 4 — Encoding (output size, index size, time vs input size)";
  printf "p = 83, e = 1; polynomials of 82 coefficients, 7 bits each (72 bytes)\n\n";
  printf "%10s %12s %12s %12s %10s %8s\n" "input(MB)" "output(MB)" "index(MB)"
    "nodes" "time(s)" "out/in";
  let sizes =
    if !quick then [ 250_000; 500_000; 750_000; 1_000_000 ]
    else List.init 10 (fun i -> (i + 1) * 1_000_000)
  in
  List.iter
    (fun bytes ->
      let doc = Generate.generate_bytes ~seed:42L ~target_bytes:bytes () in
      let input_bytes = String.length (Print.to_string doc) in
      let db, seconds = time_it (fun () -> make_db doc) in
      let stats = DB.storage_stats db in
      printf "%10.2f %12.2f %12.2f %12d %10.2f %8.2f\n" (mb input_bytes)
        (mb stats.DB.data_bytes) (mb stats.DB.index_bytes) stats.DB.rows seconds
        (float_of_int stats.DB.data_bytes /. float_of_int input_bytes);
      record "fig4"
        [
          ("input_bytes", J_int input_bytes);
          ("data_bytes", J_int stats.DB.data_bytes);
          ("index_bytes", J_int stats.DB.index_bytes);
          ("nodes", J_int stats.DB.rows);
          ("seconds", J_float seconds);
        ];
      DB.close db)
    sizes;
  printf
    "\nPaper's shape: strictly linear size and time; output around 1.5x the\n\
     input, plus index overhead on the pre/post/parent columns.\n"

(* ------------------------------------------------------------------ *)
(* Table 1 / Figure 5: evaluations vs query length                    *)
(* ------------------------------------------------------------------ *)

let fig5_bytes () = if !quick then 300_000 else 2_000_000

let fig5 () =
  heading "Table 1 / Figure 5 — Varying the query length (containment test)";
  let db = xmark_db (fig5_bytes ()) in
  printf "XMark document: %.1f MB encoded, %d nodes\n\n"
    (mb (DB.storage_stats db).DB.data_bytes)
    (DB.storage_stats db).DB.rows;
  printf "%3s %-60s %8s %13s %13s\n" "#" "query" "output" "evals(simp)"
    "evals(adv)";
  List.iteri
    (fun i q ->
      let simple = must (DB.query ~engine:DB.Simple ~strictness:QC.Non_strict db q) in
      let advanced = must (DB.query ~engine:DB.Advanced ~strictness:QC.Non_strict db q) in
      printf "%3d %-60s %8d %13d %13d\n" (i + 1) q (List.length (DB.result_nodes simple))
        simple.DB.metrics.Metrics.evaluations advanced.DB.metrics.Metrics.evaluations;
      record "fig5"
        [
          ("query", J_str q);
          ("steps", J_int (i + 1));
          ("output", J_int (List.length (DB.result_nodes simple)));
          ("evals_simple", J_int simple.DB.metrics.Metrics.evaluations);
          ("evals_advanced", J_int advanced.DB.metrics.Metrics.evaluations);
        ])
    Paper_queries.table1;
  printf
    "\nPaper's shape: the two engines stay within a constant factor on these\n\
     chain queries (no dead branches for the look-ahead to kill).\n"

(* ------------------------------------------------------------------ *)
(* Table 2 / Figure 6: strictness — execution times                   *)
(* ------------------------------------------------------------------ *)

let fig6_bytes () = if !quick then 200_000 else 1_000_000

type fig6_row = {
  query : string;
  times : (string * float) list;
  strict_size : int;
  loose_size : int;
}

let fig6_measurements = ref ([] : fig6_row list)

let fig6 () =
  heading "Table 2 / Figure 6 — Equality test versus containment test";
  let db = xmark_db (fig6_bytes ()) in
  printf "XMark document: %d nodes (times in seconds)\n\n" (DB.storage_stats db).DB.rows;
  printf "%3s %-32s %14s %14s %14s %14s\n" "#" "query" "nonstrict/simp"
    "strict/simp" "nonstrict/adv" "strict/adv";
  let configs =
    [
      ("nonstrict/simple", DB.Simple, QC.Non_strict);
      ("strict/simple", DB.Simple, QC.Strict);
      ("nonstrict/advanced", DB.Advanced, QC.Non_strict);
      ("strict/advanced", DB.Advanced, QC.Strict);
    ]
  in
  fig6_measurements := [];
  List.iteri
    (fun i q ->
      let results =
        List.map
          (fun (name, engine, strictness) ->
            let r = must (DB.query ~engine ~strictness db q) in
            (name, r))
          configs
      in
      let times = List.map (fun (name, r) -> (name, r.DB.seconds)) results in
      let size_of name = List.length (DB.result_nodes (List.assoc name results)) in
      fig6_measurements :=
        {
          query = q;
          times;
          strict_size = size_of "strict/advanced";
          loose_size = size_of "nonstrict/advanced";
        }
        :: !fig6_measurements;
      match List.map snd times with
      | [ a; b; c; d ] -> printf "%3d %-32s %14.3f %14.3f %14.3f %14.3f\n" (i + 1) q a b c d
      | _ -> assert false)
    Paper_queries.table2;
  fig6_measurements := List.rev !fig6_measurements;
  List.iter
    (fun row ->
      record "fig6"
        (("query", J_str row.query)
         :: List.map
              (fun (name, s) ->
                let name = String.map (fun c -> if c = '/' then '_' else c) name in
                ("seconds_" ^ name, J_float s))
              row.times
        @ [ ("strict_size", J_int row.strict_size); ("loose_size", J_int row.loose_size) ]))
    !fig6_measurements;
  printf
    "\nPaper's shape: the advanced engine wins on every query; strict checking\n\
     is sometimes a slight overhead, sometimes a major improvement (it shrinks\n\
     the frontier for later steps, which pays off most for the simple engine).\n"

(* ------------------------------------------------------------------ *)
(* Figure 7: accuracy of the containment test                         *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  heading "Figure 7 — Accuracy of the containment test (E/C)";
  if !fig6_measurements = [] then fig6 ();
  printf "\n%3s %-32s %8s %8s %10s %6s\n" "#" "query" "E" "C" "accuracy" "//s";
  List.iteri
    (fun i row ->
      let slashes = Paper_queries.descendant_steps row.query in
      let accuracy =
        if row.loose_size = 0 then 1.0
        else float_of_int row.strict_size /. float_of_int row.loose_size
      in
      printf "%3d %-32s %8d %8d %9.1f%% %6d\n" (i + 1) row.query row.strict_size
        row.loose_size (100.0 *. accuracy) slashes)
    !fig6_measurements;
  printf
    "\nPaper's shape: accuracy drops with each '//' in the query and reaches\n\
     100%% for absolute queries without '//'.\n"

(* ------------------------------------------------------------------ *)
(* §4 ablation: trie compression                                      *)
(* ------------------------------------------------------------------ *)

let trie_ablation () =
  heading "Ablation (paper section 4) — trie representation of text data";
  let doc = xmark_doc (if !quick then 200_000 else 1_000_000) in
  let _, c = Expand.expand ~mode:Expand.Compressed doc in
  let _, u = Expand.expand ~mode:Expand.Uncompressed doc in
  let dedup =
    1.0 -. (float_of_int c.Expand.distinct_words /. float_of_int c.Expand.total_words)
  in
  printf "text corpus: %d words (%d chars) in %d text nodes\n\n" c.Expand.total_words
    c.Expand.total_chars c.Expand.text_nodes;
  printf "%-28s %14s %14s\n" "" "compressed" "uncompressed";
  printf "%-28s %14d %14d\n" "character nodes" c.Expand.trie_nodes u.Expand.trie_nodes;
  printf "%-28s %14d %14d\n" "end-of-word markers" c.Expand.marker_nodes
    u.Expand.marker_nodes;
  printf "%-28s %13.1f%% %13.1f%%\n" "size reduction vs raw chars"
    (100.0 *. Expand.reduction_ratio c)
    (100.0 *. Expand.reduction_ratio u);
  printf "%-28s %13.1f%%\n" "duplicate words removed" (100.0 *. dedup);
  let poly_bytes = Secshare_poly.Codec.byte_length ~q:29 ~n:28 in
  let nodes = c.Expand.trie_nodes + c.Expand.marker_nodes in
  let per_letter = float_of_int (nodes * poly_bytes) /. float_of_int c.Expand.total_chars in
  printf "\np = 29: one polynomial costs %d bytes; the per-text-node tries store\n" poly_bytes;
  printf "%.2f bytes per source letter.\n" per_letter;
  (* The paper's 50%% / 75-80%% estimates describe reducing *a text* —
     a whole corpus — into one trie; per-text-node tries (the unit the
     encoder actually works on) are too small to share much.  Measure
     the corpus-level trie too. *)
  let all_words =
    let acc = ref [] in
    let rec collect = function
      | Tree.Text s -> acc := List.rev_append (Secshare_trie.Tokenize.words s) !acc
      | Tree.Element { children; _ } -> List.iter collect children
    in
    collect doc;
    List.rev !acc
  in
  let corpus = Secshare_trie.Trie.of_words all_words in
  let corpus_nodes = Secshare_trie.Trie.node_count corpus in
  let corpus_markers = Secshare_trie.Trie.terminal_count corpus in
  let total = List.length all_words in
  let distinct = Secshare_trie.Trie.word_count corpus in
  let chars = List.fold_left (fun acc w -> acc + String.length w) 0 all_words in
  printf "\nCorpus-level trie (one trie for the whole document's text):\n";
  printf "%-28s %13.1f%%  (paper: ~50%%, natural English)\n" "duplicate words removed"
    (100.0 *. (1.0 -. (float_of_int distinct /. float_of_int total)));
  printf "%-28s %13.1f%%  (paper: 75-80%%, natural English)\n" "size reduction"
    (100.0 *. (1.0 -. (float_of_int corpus_nodes /. float_of_int chars)));
  printf "%-28s %13.2f   (paper: 3.5-4.5, natural English)\n" "bytes per source letter"
    (float_of_int ((corpus_nodes + corpus_markers) * poly_bytes) /. float_of_int chars);
  printf
    "\nOur synthetic generator draws from a small word pool, so corpus-level\n\
     sharing is stronger than for natural English; the per-node and corpus\n\
     rows bracket the paper's estimate from both sides.\n"

(* ------------------------------------------------------------------ *)
(* Extra ablation: transport overhead (in-process vs Unix socket)     *)
(* ------------------------------------------------------------------ *)

let transport_ablation () =
  heading "Ablation — in-process transport vs Unix-domain socket (figure 3 split)";
  let db = xmark_db (if !quick then 100_000 else 300_000) in
  let path = Filename.temp_file "ssdb-bench" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () ->
      let session =
        must
          (DB.connect
             ~client:
               { DB.default_client_config with timeout = Some 30.0; max_retries = 2 }
             ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path ())
      in
      Fun.protect
        ~finally:(fun () -> DB.close session)
        (fun () ->
          printf "%-28s %12s %12s %10s %12s\n" "query" "local(s)" "socket(s)" "calls"
            "bytes";
          List.iter
            (fun q ->
              let local = must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict db q) in
              let remote =
                must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict session q)
              in
              printf "%-28s %12.3f %12.3f %10d %12d\n" q local.DB.seconds
                remote.DB.seconds remote.DB.rpc_calls remote.DB.rpc_bytes)
            [ "/site/regions/europe/item"; "/site/*/person//city"; "//bidder/date" ];
          (* resilience accounting: all zero on a healthy local run —
             nonzero values flag a flaky environment, so the transport
             numbers above should be read with suspicion *)
          let c = DB.rpc_counters session in
          printf "resilience: %d retries, %d reconnects, %d timeouts\n"
            c.Secshare_rpc.Transport.retries c.Secshare_rpc.Transport.reconnects
            c.Secshare_rpc.Transport.timeouts))

(* ------------------------------------------------------------------ *)
(* Extra ablation: Eval batching (the paper's per-call RMI model)     *)
(* ------------------------------------------------------------------ *)

let batching_ablation () =
  heading "Ablation — per-node vs batched vs fused-scan round trips";
  printf
    "Three cost models for the same queries.  Per-node is the paper's RMI
     filter: one round trip per evaluation, each a one-row Eval_batch
     message.  Batched folds each filtering step into one Eval_batch
     message after a point-free Scan_eval of the axis.  Fused sends the
     axis scan and the share evaluations in a single Scan_eval message,
     roughly halving the round trips of the batched protocol on chain
     queries.
     Results, evaluation counts and nodes examined must be (and are
     asserted) identical (simple engine, containment test):

";
  let doc = xmark_doc (if !quick then 100_000 else 300_000) in
  let mk rpc_mode =
    make_db
      ~cfg:{ config with DB.client = { DB.default_client_config with rpc_mode } }
      doc
  in
  let per_node = mk DB.Per_node in
  let batched = mk DB.Batched in
  let fused = mk DB.Fused in
  printf "%-46s %8s %11s %12s %12s %12s
" "query" "matches" "calls(RMI)" "calls(batch)"
    "calls(fused)" "batch/fused";
  let chain_queries =
    [
      "/site/regions/europe/item";
      "/site/regions/europe/item/description/parlist";
      "/site/regions/europe/item/description/parlist/listitem/text/keyword";
      "/site/*/person//city";
      "//bidder/date";
    ]
  in
  List.iter
    (fun q ->
      let rn = must (DB.query ~engine:DB.Simple ~strictness:QC.Non_strict per_node q) in
      let rb = must (DB.query ~engine:DB.Simple ~strictness:QC.Non_strict batched q) in
      let rf = must (DB.query ~engine:DB.Simple ~strictness:QC.Non_strict fused q) in
      let pres (r : DB.query_result) =
        List.map (fun (m : Secshare_rpc.Protocol.node_meta) -> m.Secshare_rpc.Protocol.pre) (DB.result_nodes r)
      in
      let same f = f rn = f rb && f rb = f rf in
      if not (same pres) then
        failwith (Printf.sprintf "batching ablation: %s results diverge" q);
      if
        not
          (same (fun r -> r.DB.metrics.Metrics.evaluations)
          && same (fun r -> r.DB.metrics.Metrics.nodes_examined))
      then
        failwith
          (Printf.sprintf "batching ablation: %s evaluation counts diverge" q);
      printf "%-46s %8d %11d %12d %12d %11.1fx
" q (List.length (DB.result_nodes rf))
        rn.DB.rpc_calls rb.DB.rpc_calls rf.DB.rpc_calls
        (float_of_int rb.DB.rpc_calls /. float_of_int (max 1 rf.DB.rpc_calls));
      record "batching"
        [
          ("query", J_str q);
          ("matches", J_int (List.length (DB.result_nodes rf)));
          ("calls_per_node", J_int rn.DB.rpc_calls);
          ("calls_batched", J_int rb.DB.rpc_calls);
          ("calls_fused", J_int rf.DB.rpc_calls);
        ])
    chain_queries;
  DB.close per_node;
  DB.close batched;
  DB.close fused

(* ------------------------------------------------------------------ *)
(* Extra ablation: concurrent clients on one server                   *)
(* ------------------------------------------------------------------ *)

let concurrency_ablation () =
  heading "Ablation — concurrent clients on one socket server (figure 3)";
  let doc = xmark_doc (if !quick then 100_000 else 300_000) in
  let queries = [ "/site/regions/europe/item"; "//bidder/date" ] in
  let rounds = if !quick then 4 else 10 in
  printf
    "1 and then 4 client domains, each running %d rounds over %d queries\n\
     against one served database.  Every result set is asserted identical\n\
     to a single-threaded local handle's.\n\n"
    rounds (List.length queries);
  printf "%10s %12s %14s %12s %14s\n" "clients" "wall(s)" "queries/s" "speedup"
    "cache hit%";
  (* golden results from a plain single-threaded local handle *)
  let pres (r : DB.query_result) =
    List.map
      (fun (m : Secshare_rpc.Protocol.node_meta) -> m.Secshare_rpc.Protocol.pre)
      (DB.result_nodes r)
  in
  let db = make_db doc in
  let expected =
    List.map
      (fun q ->
        (q, pres (must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict db q))))
      queries
  in
  let baseline = ref 0.0 in
  List.iter
    (fun nclients ->
      let path = Filename.temp_file "ssdb-conc" ".sock" in
      Sys.remove path;
      let server = DB.serve db ~path in
      let hits = Atomic.make 0 and misses = Atomic.make 0 in
      let run_client () =
        let session =
          must (DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path ())
        in
        Fun.protect
          ~finally:(fun () -> DB.close session)
          (fun () ->
            for _ = 1 to rounds do
              List.iter
                (fun (q, want) ->
                  let r =
                    must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict session q)
                  in
                  if pres r <> want then
                    failwith (Printf.sprintf "concurrency ablation: %s diverged" q))
                expected
            done;
            match DB.share_cache_stats session with
            | None -> ()
            | Some s ->
                Atomic.fetch_and_add hits s.Secshare_core.Lru.hits |> ignore;
                Atomic.fetch_and_add misses s.Secshare_core.Lru.misses |> ignore)
      in
      let (), wall =
        time_it (fun () ->
            let domains = List.init nclients (fun _ -> Domain.spawn run_client) in
            List.iter Domain.join domains)
      in
      Secshare_rpc.Server.stop server;
      if DB.open_cursors db <> 0 then
        failwith "concurrency ablation: cursors leaked";
      let total = nclients * rounds * List.length queries in
      let qps = float_of_int total /. wall in
      if nclients = 1 then baseline := qps;
      let h = Atomic.get hits and m = Atomic.get misses in
      let hit_rate =
        if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
      in
      printf "%10d %12.3f %14.1f %11.2fx %13.1f%%\n" nclients wall qps (qps /. !baseline)
        hit_rate;
      record "concurrency"
        [
          ("clients", J_int nclients);
          ("queries", J_int total);
          ("wall_seconds", J_float wall);
          ("queries_per_second", J_float qps);
          ("speedup", J_float (qps /. !baseline));
          ("cache_hits", J_int h);
          ("cache_misses", J_int m);
          ("cache_hit_rate", J_float (hit_rate /. 100.0));
        ])
    [ 1; 4 ];
  DB.close db;
  printf
    "\nThe server runs every handler, share evaluation included, inline on\n\
     its one event-loop domain; 4 clients gain only where the clients'\n\
     own work (share regeneration, equality tests) overlaps on real cores.\n\
     The client-side share cache is per-connection: round 1 misses, later\n\
     rounds hit.\n"

(* ------------------------------------------------------------------ *)
(* Ablation: durable store (WAL fsync discipline)                     *)
(* ------------------------------------------------------------------ *)

let durability_ablation () =
  heading "Ablation — durability: WAL fsync cost on insert throughput";
  printf
    "Each durable insert appends a CRC-framed row record to the write-ahead\n\
     log and fsyncs it before acknowledging; checkpoints additionally log\n\
     full page images before dirty heap pages are overwritten.  The paper's\n\
     prototype delegated this to MySQL — this measures what the guarantee\n\
     costs in our own storage engine.\n\n";
  let n = if !quick then 1_000 else 10_000 in
  let share = Bytes.make 64 's' in
  let mk_row i =
    { Secshare_store.Page.pre = i + 1; post = i + 2; parent = (if i = 0 then 0 else 1); share }
  in
  printf "%-34s %10s %14s\n" "mode" "secs" "inserts/s";
  let run name create =
    let path = Filename.temp_file "ssdb-bench" ".db" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; path ^ ".wal" ])
      (fun () ->
        let t : Secshare_store.Node_table.t = create path in
        let (), secs =
          time_it (fun () ->
              for i = 0 to n - 1 do
                Secshare_store.Node_table.insert t (mk_row i)
              done;
              Secshare_store.Node_table.close t)
        in
        printf "%-34s %10.3f %14.0f\n" name secs (float_of_int n /. secs);
        record "durability"
          [
            ("mode", J_str name);
            ("rows", J_int n);
            ("seconds", J_float secs);
            ("inserts_per_s", J_float (float_of_int n /. secs));
          ])
  in
  run "page file, no WAL" (fun path -> Secshare_store.Node_table.create_file path);
  run "durable (fsync per insert)" (fun path ->
      Secshare_store.Node_table.create_file ~durable:true path);
  run "durable + checkpoint every 512" (fun path ->
      Secshare_store.Node_table.create_file ~durable:true ~checkpoint_every:512 path)

(* ------------------------------------------------------------------ *)
(* Baseline: Song-Wagner-Perrig sequential scan (related work [5])    *)
(* ------------------------------------------------------------------ *)

let baseline_swp () =
  heading "Baseline — SWP sequential-scan searchable encryption vs secret sharing";
  printf
    "The paper adapted Song-Wagner-Perrig [5] to exploit XML tree structure.
     The baseline scans every word block per query; the polynomial encoding
     prunes whole subtrees.  Tag search on the same document:

";
  let doc = xmark_doc (if !quick then 150_000 else 500_000) in
  let db = make_db doc in
  let swp_key = Secshare_swp.Swp.key_of_seed seed in
  let enc, swp_encrypt_s = time_it (fun () -> Secshare_swp.Swp.encrypt_tree swp_key doc) in
  let ss_stats = DB.storage_stats db in
  printf "storage: secret sharing %.2f MB (+%.2f MB index) | SWP %.2f MB
"
    (mb ss_stats.DB.data_bytes) (mb ss_stats.DB.index_bytes)
    (mb (Secshare_swp.Swp.storage_bytes enc));
  printf "SWP encryption time: %.2f s | word blocks: %d

" swp_encrypt_s
    (Array.length enc.Secshare_swp.Swp.blocks);
  printf "%-16s %14s %14s %12s %12s
" "tag" "secshare(s)" "swp-scan(s)" "ss-matches"
    "swp-elems";
  List.iter
    (fun tag ->
      let r = must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict db ("//" ^ tag)) in
      let swp_hits, swp_s =
        time_it (fun () ->
            Secshare_swp.Swp.search_elements enc (Secshare_swp.Swp.trapdoor swp_key tag))
      in
      printf "%-16s %14.3f %14.3f %12d %12d
" tag r.DB.seconds swp_s
        (List.length (DB.result_nodes r)) (List.length swp_hits))
    [ "europe"; "person"; "bidder"; "privacy"; "zipcode" ];
  printf
    "
SWP touches every block regardless of selectivity; the tree encoding's
     cost tracks the matching subtrees.  SWP word search is flat (no paths),
     so structural queries like /site/*/person//city cannot be expressed at
     all — the gap the paper's scheme fills.
";
  DB.close db

(* ------------------------------------------------------------------ *)
(* Extra ablation: field choice (p, e)                                *)
(* ------------------------------------------------------------------ *)

let field_ablation () =
  heading "Ablation — field choice: polynomials over F_(p^e)";
  printf
    "The paper picks p = 83, e = 1 (just above the 77 tag names).  Any
     prime power q > #names works; storage is (q-1)*ceil(log2 q) bits per
     node and ring products cost O((q-1)^2):

";
  let doc = xmark_doc (if !quick then 100_000 else 300_000) in
  printf "%12s %6s %14s %12s %14s
" "field" "q" "bytes/node" "encode(s)" "query(s)";
  List.iter
    (fun (p, e, label) ->
      let cfg = { config with DB.p; e } in
      let db, encode_s = time_it (fun () -> make_db ~cfg doc) in
      let r = must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict db "//bidder/date") in
      printf "%12s %6d %14d %12.2f %14.3f
" label
        (int_of_float (Float.round (float_of_int p ** float_of_int e)))
        (Secshare_poly.Codec.byte_length
           ~q:(int_of_float (Float.round (float_of_int p ** float_of_int e)))
           ~n:(int_of_float (Float.round (float_of_int p ** float_of_int e)) - 1))
        encode_s r.DB.seconds;
      DB.close db)
    [ (83, 1, "F_83"); (3, 4, "F_81 = F_3^4"); (2, 7, "F_128 = F_2^7"); (127, 1, "F_127") ];
  printf
    "
Smaller q means smaller polynomials and faster ring products — the
     paper's advice to keep p^e as small as the tag count allows.
"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let micro () =
  heading "Bechamel microbenchmarks (one Test.make per table/figure)";
  let open Bechamel in
  let open Toolkit in
  let small_doc = xmark_doc 100_000 in
  let small_db = xmark_db 100_000 in
  let ring = DB.ring small_db in
  let rng = Secshare_prg.Xoshiro.create 7L in
  let random_poly () =
    Secshare_poly.Cyclic.random ring ~gen:(fun () ->
        Secshare_prg.Xoshiro.next_int rng ~bound:83)
  in
  let poly_a = random_poly () and poly_b = random_poly () in
  let run_query engine strictness q () =
    ignore (must (DB.query ~engine ~strictness small_db q))
  in
  let tests =
    [
      (* figure 4: the encoding pipeline *)
      Test.make ~name:"fig4-encode-100KB" (Staged.stage (fun () -> ignore (make_db small_doc)));
      (* table 1 / figure 5: the two engines on a chain query *)
      Test.make ~name:"fig5-simple-chain"
        (Staged.stage (run_query DB.Simple QC.Non_strict "/site/regions/europe/item"));
      Test.make ~name:"fig5-advanced-chain"
        (Staged.stage (run_query DB.Advanced QC.Non_strict "/site/regions/europe/item"));
      (* table 2 / figure 6: strict vs non-strict *)
      Test.make ~name:"fig6-advanced-nonstrict"
        (Staged.stage (run_query DB.Advanced QC.Non_strict "/site/*/person//city"));
      Test.make ~name:"fig6-advanced-strict"
        (Staged.stage (run_query DB.Advanced QC.Strict "/site/*/person//city"));
      (* figure 7 is derived from result-set sizes: the E/C computation *)
      Test.make ~name:"fig7-accuracy"
        (Staged.stage (fun () -> ignore (must (DB.accuracy small_db "/site//europe/item"))));
      (* §4: trie expansion *)
      Test.make ~name:"trie-expand-compressed"
        (Staged.stage (fun () -> ignore (Expand.expand ~mode:Expand.Compressed small_doc)));
      (* substrate costs behind all of the above *)
      Test.make ~name:"substrate-cyclic-mul-F83"
        (Staged.stage (fun () -> ignore (Secshare_poly.Cyclic.mul ring poly_a poly_b)));
      Test.make ~name:"substrate-client-poly-regen"
        (Staged.stage (fun () ->
             ignore (Secshare_prg.Node_prg.client_poly ~ring ~seed ~pre:12345)));
    ]
  in
  let grouped = Test.make_grouped ~name:"paper" ~fmt:"%s/%s" tests in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.25 else 0.5))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  printf "%-40s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (estimate :: _) ->
          printf "%-40s %16.1f\n" name estimate;
          record "micro" [ ("benchmark", J_str name); ("ns_per_run", J_float estimate) ]
      | Some [] | None -> printf "%-40s %16s\n" name "n/a")
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* Kernel micro bench: flat byte-table kernels vs the reference path  *)
(* ------------------------------------------------------------------ *)

(* The reference for the [regen] row: the coefficient-domain client
   sampler as it was before the single rejection sampler, over the
   public keystream.
   It draws 2 * n * k bytes up front, refills 256 bytes at a time from
   block [len / 64], and normalises every coefficient on the way into
   the ring.  So it also re-reads the head of that block once its draws
   run past a prefix that ends mid-block, which the current sampler
   never does.  The two agree only where that never happens, as at the
   q = 83 the row runs at: 82 draws overrun the 164-byte prefix only if
   more than 82 of its bytes fall among the 7 rejected values of 256.
   It is the row's timed reference only: client shares now come from
   the slot sampler, which the row checks against [reference_slots]. *)
let reference_client_poly (ring : Secshare_poly.Ring.t) ~seed ~pre =
  let module Chacha20 = Secshare_prg.Chacha20 in
  let q = ring.Secshare_poly.Ring.order and count = ring.Secshare_poly.Ring.n in
  let k =
    let rec go k cap = if cap >= q then k else go (k + 1) (cap * 256) in
    go 1 256
  in
  let cap = 1 lsl (8 * k) in
  let accept_below = cap - (cap mod q) in
  let key = Secshare_prg.Seed.to_bytes seed in
  let nonce = Bytes.make Chacha20.nonce_length '\000' in
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string "poly" 0 nonce 8 4;
  let buf = ref (Chacha20.keystream ~key ~nonce ~counter:0 (max 64 (count * k * 2))) in
  let pos = ref 0 in
  let next_counter = ref (Bytes.length !buf / 64) in
  let rec draw () =
    if !pos + k > Bytes.length !buf then begin
      buf := Bytes.cat !buf (Chacha20.keystream ~key ~nonce ~counter:!next_counter 256);
      next_counter := !next_counter + 4
    end;
    let v = ref 0 in
    for i = 0 to k - 1 do
      v := (!v lsl 8) lor Bytes.get_uint8 !buf (!pos + i)
    done;
    pos := !pos + k;
    if !v < accept_below then !v mod q else draw ()
  in
  Secshare_poly.Cyclic.of_int_array ring (Array.init count (fun _ -> draw ()))

(* The slot sampler written from its specification, for the [regen]
   row's identity check: slot [j] is the [w]-byte little-endian word at
   [(j mod per) * w] of block [j / per] of the "slot" stream, accepted
   below the largest multiple of q under [2^(8w)] and reduced mod q; a
   rejected slot scans the words of blocks [main + j + k * n]. *)
let reference_slots (ring : Secshare_poly.Ring.t) ~seed ~pre =
  let module Chacha20 = Secshare_prg.Chacha20 in
  let q = ring.Secshare_poly.Ring.order and n = ring.Secshare_poly.Ring.n in
  let w = if q <= 256 then 2 else if q <= 65536 then 3 else 4 in
  let per = 64 / w in
  let main = (n + per - 1) / per in
  let cap = 1 lsl (8 * w) in
  let key = Secshare_prg.Seed.to_bytes seed in
  let nonce = Bytes.make Chacha20.nonce_length '\000' in
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string "slot" 0 nonce 8 4;
  let word block i =
    let v = ref 0 in
    for b = w - 1 downto 0 do
      v := (!v lsl 8) lor Bytes.get_uint8 block ((i * w) + b)
    done;
    !v
  in
  let rec overflow j k i =
    let block = Chacha20.keystream ~key ~nonce ~counter:(main + j + (k * n)) 64 in
    if i = per then overflow j (k + 1) 0
    else
      let v = word block i in
      if v < cap - (cap mod q) then v mod q else overflow j k (i + 1)
  in
  Array.init n (fun j ->
      let v = word (Chacha20.keystream ~key ~nonce ~counter:(j / per) 64) (j mod per) in
      if v < cap - (cap mod q) then v mod q else overflow j 0 0)

(* The reference for the [keystream] row: the ChaCha20 block core as
   it was written in OCaml before the C stub replaced it.  It works on
   native 63-bit ints and never reduces a sum: it only needs each word
   mod 2^32, and 2^32 divides the 2^63 that native arithmetic wraps at,
   so [+], [lxor] and [lsl] leave the low 32 bits exact whatever sits
   above them.  Only the right shift of a rotation reads high bits, so
   it masks first; the output keeps just the low 32 bits of every word.
   The sixteen state words live in local refs and the quarter rounds of
   RFC 8439 §2.1 are written out in place, so a block allocates
   nothing. *)
module Ocaml_chacha20 = struct
  type t = {
    k0 : int;
    k1 : int;
    k2 : int;
    k3 : int;
    k4 : int;
    k5 : int;
    k6 : int;
    k7 : int;
    n0 : int;
    n1 : int;
    n2 : int;
  }

  let mask32 = 0xFFFFFFFF
  let le32 buf off = Int32.to_int (Bytes.get_int32_le buf off) land mask32

  let create ~key ~nonce =
    {
      k0 = le32 key 0;
      k1 = le32 key 4;
      k2 = le32 key 8;
      k3 = le32 key 12;
      k4 = le32 key 16;
      k5 = le32 key 20;
      k6 = le32 key 24;
      k7 = le32 key 28;
      n0 = le32 nonce 0;
      n1 = le32 nonce 4;
      n2 = le32 nonce 8;
    }

  let[@inline] rotl32 x k = (x lsl k) lor ((x land mask32) lsr (32 - k))

  let[@inline] store_le32 buf off v =
    Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set buf (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set buf (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set buf (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

  (* [counter] in [0, 2^32) and 64 bytes of [dst] from [off]: the row
     only calls it that way. *)
  let block_into t ~counter dst ~off =
    let x0 = ref 0x61707865 and x1 = ref 0x3320646e in
    let x2 = ref 0x79622d32 and x3 = ref 0x6b206574 in
    let x4 = ref t.k0 and x5 = ref t.k1 and x6 = ref t.k2 and x7 = ref t.k3 in
    let x8 = ref t.k4 and x9 = ref t.k5 and x10 = ref t.k6 and x11 = ref t.k7 in
    let x12 = ref counter and x13 = ref t.n0 and x14 = ref t.n1 and x15 = ref t.n2 in
    for _ = 1 to 10 do
      (* column rounds: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15) *)
      x0 := !x0 + !x4; x12 := rotl32 (!x12 lxor !x0) 16;
      x8 := !x8 + !x12; x4 := rotl32 (!x4 lxor !x8) 12;
      x0 := !x0 + !x4; x12 := rotl32 (!x12 lxor !x0) 8;
      x8 := !x8 + !x12; x4 := rotl32 (!x4 lxor !x8) 7;
      x1 := !x1 + !x5; x13 := rotl32 (!x13 lxor !x1) 16;
      x9 := !x9 + !x13; x5 := rotl32 (!x5 lxor !x9) 12;
      x1 := !x1 + !x5; x13 := rotl32 (!x13 lxor !x1) 8;
      x9 := !x9 + !x13; x5 := rotl32 (!x5 lxor !x9) 7;
      x2 := !x2 + !x6; x14 := rotl32 (!x14 lxor !x2) 16;
      x10 := !x10 + !x14; x6 := rotl32 (!x6 lxor !x10) 12;
      x2 := !x2 + !x6; x14 := rotl32 (!x14 lxor !x2) 8;
      x10 := !x10 + !x14; x6 := rotl32 (!x6 lxor !x10) 7;
      x3 := !x3 + !x7; x15 := rotl32 (!x15 lxor !x3) 16;
      x11 := !x11 + !x15; x7 := rotl32 (!x7 lxor !x11) 12;
      x3 := !x3 + !x7; x15 := rotl32 (!x15 lxor !x3) 8;
      x11 := !x11 + !x15; x7 := rotl32 (!x7 lxor !x11) 7;
      (* diagonal rounds: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14) *)
      x0 := !x0 + !x5; x15 := rotl32 (!x15 lxor !x0) 16;
      x10 := !x10 + !x15; x5 := rotl32 (!x5 lxor !x10) 12;
      x0 := !x0 + !x5; x15 := rotl32 (!x15 lxor !x0) 8;
      x10 := !x10 + !x15; x5 := rotl32 (!x5 lxor !x10) 7;
      x1 := !x1 + !x6; x12 := rotl32 (!x12 lxor !x1) 16;
      x11 := !x11 + !x12; x6 := rotl32 (!x6 lxor !x11) 12;
      x1 := !x1 + !x6; x12 := rotl32 (!x12 lxor !x1) 8;
      x11 := !x11 + !x12; x6 := rotl32 (!x6 lxor !x11) 7;
      x2 := !x2 + !x7; x13 := rotl32 (!x13 lxor !x2) 16;
      x8 := !x8 + !x13; x7 := rotl32 (!x7 lxor !x8) 12;
      x2 := !x2 + !x7; x13 := rotl32 (!x13 lxor !x2) 8;
      x8 := !x8 + !x13; x7 := rotl32 (!x7 lxor !x8) 7;
      x3 := !x3 + !x4; x14 := rotl32 (!x14 lxor !x3) 16;
      x9 := !x9 + !x14; x4 := rotl32 (!x4 lxor !x9) 12;
      x3 := !x3 + !x4; x14 := rotl32 (!x14 lxor !x3) 8;
      x9 := !x9 + !x14; x4 := rotl32 (!x4 lxor !x9) 7
    done;
    (* serialise state + initial state, word by word *)
    store_le32 dst off (!x0 + 0x61707865);
    store_le32 dst (off + 4) (!x1 + 0x3320646e);
    store_le32 dst (off + 8) (!x2 + 0x79622d32);
    store_le32 dst (off + 12) (!x3 + 0x6b206574);
    store_le32 dst (off + 16) (!x4 + t.k0);
    store_le32 dst (off + 20) (!x5 + t.k1);
    store_le32 dst (off + 24) (!x6 + t.k2);
    store_le32 dst (off + 28) (!x7 + t.k3);
    store_le32 dst (off + 32) (!x8 + t.k4);
    store_le32 dst (off + 36) (!x9 + t.k5);
    store_le32 dst (off + 40) (!x10 + t.k6);
    store_le32 dst (off + 44) (!x11 + t.k7);
    store_le32 dst (off + 48) (!x12 + counter);
    store_le32 dst (off + 52) (!x13 + t.n0);
    store_le32 dst (off + 56) (!x14 + t.n1);
    store_le32 dst (off + 60) (!x15 + t.n2)
  [@@ocamlformat "disable"]
end

(* Times [reference] and [kernel] in [passes] alternating passes, so
   load that comes and goes on a shared machine lands on both sides of
   the ratio whatever ran before the row.  Each side gets the pass
   number; [same] runs untimed after every pair and must hold.  Returns
   the two sides' total seconds. *)
let alternating ~what ~passes ~reference ~kernel ~same =
  let ref_s = ref 0.0 and ker_s = ref 0.0 in
  for p = 0 to passes - 1 do
    let (), dt = time_it (fun () -> reference p) in
    ref_s := !ref_s +. dt;
    let (), dt = time_it (fun () -> kernel p) in
    ker_s := !ker_s +. dt;
    if not (same ()) then failwith ("kernel bench: " ^ what ^ " differ")
  done;
  (!ref_s, !ker_s)

(* The regression gate: CI compares the speedup columns of this
   experiment's --json rows against bench/kernel_baseline.json.  The
   gate is on the *ratio* kernel-vs-reference (machine-independent),
   never on absolute nanoseconds.  The containment, equality, encode
   and recombine rows time the [Share] entry points the filters, the
   encoder and the router call, so the gate also covers their dispatch.
   Shares live in the evaluation domain; each reference side is the
   coefficient-domain path it replaced, fed the same polynomials
   through [Evals.to_cyclic] / [Evals.of_cyclic] outside the timed
   loops.  Every row runs through [alternating]. *)
let kernel () =
  heading
    "Flat field kernels vs reference (containment, equality, encode, keystream, regen, \
     reconstruct, recombine)";
  let db = xmark_db 100_000 in
  let ring = DB.ring db in
  let table = DB.table db in
  let tab =
    match ring.Secshare_poly.Ring.table with
    | Some tab -> tab
    | None -> failwith "kernel bench: ring has no byte tables"
  in
  let n = ring.Secshare_poly.Ring.n in
  let module Cyclic = Secshare_poly.Cyclic in
  let module Evals = Secshare_poly.Evals in
  let module Codec = Secshare_poly.Codec in
  let module Flat = Secshare_poly.Flat in
  let module Share = Secshare_core.Share in
  let module Table = Secshare_store.Node_table in
  (* a scan batch of real shares, as the server sees them *)
  let shares =
    let root = Option.get (Table.root table) in
    let acc = ref [] in
    let count = ref 0 in
    ignore
      (Table.fold_descendants table ~pre:root.Secshare_store.Page.pre
         ~post:root.Secshare_store.Page.post ~init:() ~f:(fun () row ->
           if !count < 2048 then begin
             acc := row.Secshare_store.Page.share :: !acc;
             incr count
           end));
    Array.of_list (List.rev !acc)
  in
  let batch = Array.length shares in
  let point = 5 in
  let pt = Share.point ring point in
  let reps = if !quick then 20 else 100 in
  (* containment: whole batch evaluated at one point per pass, one
     share at a time as the server's scan does.  The reference
     evaluates the same shares in coefficient form. *)
  let coeff_shares =
    Array.map
      (fun share -> Codec.pack_cyclic ring (Evals.to_cyclic ring (Codec.unpack_evals ring share)))
      shares
  in
  let expect = Array.make batch 0 and out = Array.make batch (-1) in
  let ref_s, ker_s =
    alternating ~what:"containment results" ~passes:reps
      ~reference:(fun _ ->
        for i = 0 to batch - 1 do
          let poly = Codec.unpack_cyclic ring (Array.unsafe_get coeff_shares i) in
          expect.(i) <- Cyclic.eval ring poly point
        done)
      ~kernel:(fun _ ->
        for i = 0 to batch - 1 do
          out.(i) <- Share.eval_packed ring pt (Array.unsafe_get shares i)
        done)
      ~same:(fun () -> out = expect)
  in
  let evals = float_of_int (reps * batch) in
  let ref_ns = ref_s /. evals *. 1e9 and ker_ns = ker_s /. evals *. 1e9 in
  let c_speedup = ref_ns /. ker_ns in
  printf "%-24s %12s %12s %9s\n" "op" "ref(ns)" "kernel(ns)" "speedup";
  printf "%-24s %12.1f %12.1f %8.2fx  (batch=%d, identical results)\n"
    "containment-eval" ref_ns ker_ns c_speedup batch;
  record "kernel"
    [
      ("op", J_str "containment");
      ("batch", J_int batch);
      ("ref_ns_per_eval", J_float ref_ns);
      ("kernel_ns_per_eval", J_float ker_ns);
      ("speedup", J_float c_speedup);
      ("identical", J_int 1);
    ];
  (* equality: the client-side product of child polynomials, ten
     products a pass; the kernel multiplies their values pointwise *)
  let rng = Secshare_prg.Xoshiro.create 83L in
  let random_poly () =
    Cyclic.random ring ~gen:(fun () -> Secshare_prg.Xoshiro.next_int rng ~bound:83)
  in
  let child_list = List.init 8 (fun _ -> random_poly ()) in
  let child_values = List.map (Evals.of_cyclic ring) child_list in
  let prods = if !quick then 200 else 1000 in
  let reference = ref (Cyclic.one ring) and kernel_result = ref (Evals.one ring) in
  let ref_s, ker_s =
    alternating ~what:"equality products" ~passes:(prods / 10)
      ~reference:(fun _ ->
        for _ = 1 to 10 do
          reference := List.fold_left (Cyclic.mul ring) (Cyclic.one ring) child_list
        done)
      ~kernel:(fun _ ->
        for _ = 1 to 10 do
          kernel_result := Share.product ring child_values
        done)
      ~same:(fun () -> Evals.equal (Evals.of_cyclic ring !reference) !kernel_result)
  in
  let ref_us = ref_s /. float_of_int prods *. 1e6 in
  let ker_us = ker_s /. float_of_int prods *. 1e6 in
  let e_speedup = ref_us /. ker_us in
  printf "%-24s %12.1f %12.1f %8.2fx  (8 children, identical products)\n"
    "equality-product(us)" ref_us ker_us e_speedup;
  record "kernel"
    [
      ("op", J_str "equality");
      ("children", J_int 8);
      ("ref_us_per_product", J_float ref_us);
      ("kernel_us_per_product", J_float ker_us);
      ("speedup", J_float e_speedup);
      ("identical", J_int 1);
    ];
  (* encode: one inner node of the encoder, f = (x - v) * prod f(child)
     over four children (two dense subtree products, two leaves), ten
     nodes a pass.  The reference is the coefficient-domain fold the
     encoder ran ([Cyclic.mul] child by child, then [Cyclic.mul_linear]);
     the kernel is the pointwise [Share.product] and
     [Share.encode_node]. *)
  let encode_children =
    [ random_poly (); Cyclic.linear ring ~root:7; random_poly (); Cyclic.linear ring ~root:40 ]
  in
  let encode_values = List.map (Evals.of_cyclic ring) encode_children in
  let root = 23 in
  let nodes = if !quick then 400 else 2000 in
  let reference = ref (Cyclic.one ring) and kernel_result = ref (Evals.one ring) in
  let ref_s, ker_s =
    alternating ~what:"encoded nodes" ~passes:(nodes / 10)
      ~reference:(fun _ ->
        for _ = 1 to 10 do
          reference :=
            Cyclic.mul_linear ring ~root
              (List.fold_left (Cyclic.mul ring) (Cyclic.one ring) encode_children)
        done)
      ~kernel:(fun _ ->
        for _ = 1 to 10 do
          kernel_result :=
            Share.encode_node ring ~root (Some (Share.product ring encode_values))
        done)
      ~same:(fun () -> Evals.equal (Evals.of_cyclic ring !reference) !kernel_result)
  in
  let ref_us = ref_s /. float_of_int nodes *. 1e6 in
  let ker_us = ker_s /. float_of_int nodes *. 1e6 in
  let n_speedup = ref_us /. ker_us in
  printf "%-24s %12.2f %12.2f %8.2fx  (4 children, identical node values)\n"
    "encode-node(us)" ref_us ker_us n_speedup;
  record "kernel"
    [
      ("op", J_str "encode");
      ("children", J_int 4);
      ("ref_us_per_node", J_float ref_us);
      ("kernel_us_per_node", J_float ker_us);
      ("speedup", J_float n_speedup);
      ("identical", J_int 1);
    ];
  (* keystream: the C block core against the OCaml core it replaced,
     over the same key, nonce and counters, 1 000 blocks a pass *)
  let blocks = if !quick then 20_000 else 100_000 in
  let key = Secshare_prg.Seed.to_bytes seed in
  let nonce = Bytes.of_string "kernel-bench" in
  let c_core = Secshare_prg.Chacha20.create ~key ~nonce in
  let ocaml_core = Ocaml_chacha20.create ~key ~nonce in
  let pass = 1000 in
  let ref_out = Bytes.create (64 * pass) and ker_out = Bytes.create (64 * pass) in
  let ref_s, ker_s =
    alternating ~what:"keystream blocks" ~passes:(blocks / pass)
      ~reference:(fun p ->
        for b = 0 to pass - 1 do
          Ocaml_chacha20.block_into ocaml_core ~counter:((p * pass) + b) ref_out
            ~off:(64 * b)
        done)
      ~kernel:(fun p ->
        for b = 0 to pass - 1 do
          Secshare_prg.Chacha20.block_into c_core ~counter:((p * pass) + b) ker_out
            ~off:(64 * b)
        done)
      ~same:(fun () -> Bytes.equal ref_out ker_out)
  in
  let ref_ns = ref_s /. float_of_int blocks *. 1e9 in
  let ker_ns = ker_s /. float_of_int blocks *. 1e9 in
  let k_speedup = ref_ns /. ker_ns in
  printf "%-24s %12.1f %12.1f %8.2fx  (%d blocks, identical keystream)\n"
    "keystream(ns/block)" ref_ns ker_ns k_speedup blocks;
  record "kernel"
    [
      ("op", J_str "keystream");
      ("blocks", J_int blocks);
      ("ref_ns_per_block", J_float ref_ns);
      ("kernel_ns_per_block", J_float ker_ns);
      ("speedup", J_float k_speedup);
      ("identical", J_int 1);
    ];
  (* regeneration: one whole client share from the seed, the per-miss
     cost of the client share cache.  The reference is the
     coefficient-domain sampler it replaced; the kernel's shares are
     checked against the slot sampler's transcription.  Passes of 200
     pres are small enough that the kept results never leave the minor
     heap: the row times regeneration, not promotion of a large result
     array. *)
  let regens = if !quick then 2000 else 10_000 in
  let chunk = 200 in
  let reference = Array.make chunk (Cyclic.one ring) in
  let regenerated = Array.make chunk (Evals.one ring) and regen_pass = ref 0 in
  let ref_s, ker_s =
    alternating ~what:"regenerated client polynomials" ~passes:(regens / chunk)
      ~reference:(fun c ->
        for i = 0 to chunk - 1 do
          reference.(i) <- reference_client_poly ring ~seed ~pre:((c * chunk) + i)
        done)
      ~kernel:(fun c ->
        regen_pass := c;
        for i = 0 to chunk - 1 do
          regenerated.(i) <-
            Secshare_prg.Node_prg.client_poly ~ring ~seed ~pre:((c * chunk) + i)
        done)
      ~same:(fun () ->
        Array.for_all
          (fun i ->
            Evals.to_int_array regenerated.(i)
            = reference_slots ring ~seed ~pre:((!regen_pass * chunk) + i))
          (Array.init chunk Fun.id))
  in
  let ref_us = ref_s /. float_of_int regens *. 1e6 in
  let ker_us = ker_s /. float_of_int regens *. 1e6 in
  let g_speedup = ref_us /. ker_us in
  printf "%-24s %12.2f %12.2f %8.2fx  (%d pres, shares = slot transcription)\n"
    "regen(us)" ref_us ker_us g_speedup regens;
  record "kernel"
    [
      ("op", J_str "regen");
      ("regens", J_int regens);
      ("ref_us_per_regen", J_float ref_us);
      ("kernel_us_per_regen", J_float ker_us);
      ("speedup", J_float g_speedup);
      ("identical", J_int 1);
    ];
  (* reconstruct: client half + packed server half, once per child of
     every equality test *)
  let clients = Array.init batch (fun pre -> Secshare_prg.Node_prg.client_poly ~ring ~seed ~pre) in
  (* the reference adds the same values as coefficient vectors:
     addition is coordinatewise in either domain *)
  let client_vectors =
    Array.map (fun c -> Cyclic.of_canonical ring (Evals.to_int_array c)) clients
  in
  let expect = Array.make batch (Cyclic.one ring) in
  let outs = Array.init batch (fun _ -> Array.make n 0) in
  let ref_s, ker_s =
    alternating ~what:"reconstructed polynomials" ~passes:reps
      ~reference:(fun _ ->
        for i = 0 to batch - 1 do
          expect.(i) <- Cyclic.add ring client_vectors.(i) (Codec.unpack_cyclic ring shares.(i))
        done)
      ~kernel:(fun _ ->
        for i = 0 to batch - 1 do
          Flat.reconstruct_into tab ~n ~client:(Evals.view clients.(i)) shares.(i)
            ~out:outs.(i)
        done)
      ~same:(fun () ->
        Array.for_all2 (fun e o -> Array.for_all2 Int.equal (Cyclic.view e) o) expect outs)
  in
  let ref_ns = ref_s /. evals *. 1e9 and ker_ns = ker_s /. evals *. 1e9 in
  let r_speedup = ref_ns /. ker_ns in
  printf "%-24s %12.1f %12.1f %8.2fx  (batch=%d, identical polynomials)\n"
    "reconstruct" ref_ns ker_ns r_speedup batch;
  record "kernel"
    [
      ("op", J_str "reconstruct");
      ("batch", J_int batch);
      ("ref_ns_per_share", J_float ref_ns);
      ("kernel_ns_per_share", J_float ker_ns);
      ("speedup", J_float r_speedup);
      ("identical", J_int 1);
    ];
  (* recombine: the router rebuilding one packed server share from the
     2-of-3 shard shares of every subset in turn, lambdas precomputed
     per subset as the router does per group call.  The reference is
     the unpack / combine_vectors / pack path [Share.reconstruct_packed]
     keeps for fields without byte tables. *)
  let module Shamir = Secshare_poly.Shamir in
  let polys = min batch 512 in
  let dealer = Secshare_prg.Xoshiro.create 3L in
  let dealt =
    Array.init polys (fun i ->
        Array.of_list
          (Share.shard_server_share ring ~threshold:2 ~shards:3
             ~gen:(fun () -> Secshare_prg.Xoshiro.next_int dealer ~bound:83)
             shares.(i)))
  in
  let subsets = [| [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ] |] in
  let lambdas = Array.map (fun xs -> Shamir.lambdas_at_zero ring ~xs) subsets in
  let members i = List.map (fun x -> dealt.(i).(x - 1)) subsets.(i mod 3) in
  let q = ring.Secshare_poly.Ring.order in
  let reference = Array.make polys Bytes.empty in
  let recombined = Array.make polys Bytes.empty in
  let ref_s, ker_s =
    alternating ~what:"recombined shares" ~passes:reps
      ~reference:(fun _ ->
        for i = 0 to polys - 1 do
          reference.(i) <-
            Codec.pack ~q
              (Shamir.combine_vectors ring ~lambdas:lambdas.(i mod 3)
                 (List.map (Codec.unpack ~q ~n) (members i)))
        done)
      ~kernel:(fun _ ->
        for i = 0 to polys - 1 do
          recombined.(i) <-
            Share.reconstruct_packed ring ~lambdas:lambdas.(i mod 3) (members i)
        done)
      ~same:(fun () ->
        Array.for_all2 Bytes.equal reference recombined
        && Array.for_all2 Bytes.equal recombined (Array.sub shares 0 polys))
  in
  let combos = float_of_int (reps * polys) in
  let ref_ns = ref_s /. combos *. 1e9 and ker_ns = ker_s /. combos *. 1e9 in
  let m_speedup = ref_ns /. ker_ns in
  printf "%-24s %12.1f %12.1f %8.2fx  (%d shares, 2-of-3, identical bytes)\n"
    "recombine" ref_ns ker_ns m_speedup polys;
  record "kernel"
    [
      ("op", J_str "recombine");
      ("polys", J_int polys);
      ("ref_ns_per_share", J_float ref_ns);
      ("kernel_ns_per_share", J_float ker_ns);
      ("speedup", J_float m_speedup);
      ("identical", J_int 1);
    ]

(* ------------------------------------------------------------------ *)
(* Open-loop load generator against the event-loop server             *)
(* ------------------------------------------------------------------ *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string s with Failure _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( try float_of_string s with Failure _ -> default)
  | None -> default

let loadgen () =
  heading "Open-loop load generation (event-loop server, forked)";
  let db = xmark_db 100_000 in
  let sessions = env_int "SSDB_LOADGEN_SESSIONS" (if !quick then 500 else 10_000) in
  let rate = env_float "SSDB_LOADGEN_RATE" (if !quick then 1000.0 else 4000.0) in
  let duration = env_float "SSDB_LOADGEN_DURATION" (if !quick then 3.0 else 10.0) in
  printf "target: %d sessions, %.0f req/s over %.0fs (Eval_batch, golden-checked)\n"
    sessions rate duration;
  let r = Loadgen.run ~sessions ~rate ~duration db () in
  printf "sessions connected:   %d / %d\n" r.Loadgen.sessions r.Loadgen.requested_sessions;
  printf "sent / received:      %d / %d (%d send errors)\n" r.Loadgen.sent
    r.Loadgen.received r.Loadgen.send_errors;
  printf "golden mismatches:    %d\n" r.Loadgen.golden_mismatches;
  printf "achieved rate:        %.0f resp/s\n" r.Loadgen.achieved_rate;
  printf "latency p50/p99/max:  %.2f / %.2f / %.2f ms (from scheduled send)\n"
    r.Loadgen.p50_ms r.Loadgen.p99_ms r.Loadgen.max_ms;
  if r.Loadgen.golden_mismatches > 0 then failwith "loadgen: golden mismatch";
  if r.Loadgen.received = 0 then failwith "loadgen: no responses";
  record "loadgen"
    [
      ("sessions", J_int r.Loadgen.sessions);
      ("requested_sessions", J_int r.Loadgen.requested_sessions);
      ("target_rate", J_float r.Loadgen.target_rate);
      ("duration_s", J_float r.Loadgen.duration);
      ("sent", J_int r.Loadgen.sent);
      ("received", J_int r.Loadgen.received);
      ("send_errors", J_int r.Loadgen.send_errors);
      ("golden_mismatches", J_int r.Loadgen.golden_mismatches);
      ("achieved_rate", J_float r.Loadgen.achieved_rate);
      ("p50_ms", J_float r.Loadgen.p50_ms);
      ("p99_ms", J_float r.Loadgen.p99_ms);
      ("max_ms", J_float r.Loadgen.max_ms);
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: sharded serving (pre-range router over Shamir shards)    *)
(* ------------------------------------------------------------------ *)

let shard_ablation () =
  heading "Ablation — sharded serving (pre-range router over Shamir t-of-n shards)";
  let module Split = Secshare_shard.Split in
  let module Manifest = Secshare_shard.Manifest in
  let module Router = Secshare_shard.Router in
  let module Node_table = Secshare_store.Node_table in
  let module Server_filter = Secshare_core.Server_filter in
  let module Transport = Secshare_rpc.Transport in
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let dealer_seed = Secshare_prg.Seed.of_passphrase "secshare-shard-dealer" in
  let doc = xmark_doc (if !quick then 100_000 else 300_000) in
  let queries = [ "/site/regions/europe/item"; "//bidder/date"; "/site/*/person//city" ] in
  let rounds = if !quick then 6 else 15 in
  let db = make_db doc in
  let pres (r : DB.query_result) =
    List.map
      (fun (m : Secshare_rpc.Protocol.node_meta) -> m.Secshare_rpc.Protocol.pre)
      (DB.result_nodes r)
  in
  let expected =
    List.map
      (fun q ->
        (q, pres (must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict db q))))
      queries
  in
  printf
    "%d rounds over %d queries through an in-process router; every routed\n\
     result set is asserted identical to the single server's.\n\n"
    rounds (List.length queries);
  printf "%8s %10s %12s %14s %12s\n" "shards" "t" "wall(s)" "queries/s" "speedup";
  let baseline = ref 0.0 in
  let run_deployment ~shards ~threshold =
    let tables = Array.init shards (fun _ -> Node_table.create ()) in
    let manifests =
      Split.split_table ring ~threshold ~shards ~dealer_seed ~source:(DB.table db)
        ~sinks:tables
    in
    let transports =
      List.init shards (fun i ->
          let filter =
            Server_filter.create ~manifest:(Manifest.to_info manifests.(i)) ring
              tables.(i)
          in
          Transport.local ~handler:(Server_filter.handler filter))
    in
    let router = must (Router.of_transports ring transports) in
    let client =
      must
        (DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db)
           (Transport.local ~handler:(Router.handler router)))
    in
    let (), wall =
      time_it (fun () ->
          for _ = 1 to rounds do
            List.iter
              (fun (q, want) ->
                let r =
                  must (DB.query ~engine:DB.Advanced ~strictness:QC.Strict client q)
                in
                if pres r <> want then
                  failwith
                    (Printf.sprintf "shard ablation: %s diverged at %d shards" q
                       shards))
              expected
          done)
    in
    if Router.open_cursors router <> 0 then failwith "shard ablation: cursors leaked";
    DB.close client;
    Router.close router;
    let total = rounds * List.length queries in
    let qps = float_of_int total /. wall in
    if shards = 1 then baseline := qps;
    let speedup = if !baseline > 0.0 then qps /. !baseline else 1.0 in
    printf "%8d %10d %12.3f %14.1f %11.2fx\n" shards threshold wall qps speedup;
    record "shard"
      [
        ("shards", J_int shards);
        ("threshold", J_int threshold);
        ("queries", J_int total);
        ("wall_seconds", J_float wall);
        ("queries_per_second", J_float qps);
        ("speedup", J_float speedup);
        ("golden_identical", J_int 1);
      ]
  in
  (* shard-count series: routing overhead vs the 1-shard deployment *)
  List.iter (fun shards -> run_deployment ~shards ~threshold:(min 2 shards)) [ 1; 2; 4 ];
  (* threshold series at a fixed 3-shard deployment: the t-of-n cost is
     the t-fold fan-out to the serving group plus the Lagrange fold *)
  List.iter (fun threshold -> run_deployment ~shards:3 ~threshold) [ 1; 2; 3 ];
  DB.close db;
  printf
    "\nEvery shard stores all rows and one serving group of t shards answers\n\
     every request, so a single client sees the t-fold call fan-out as\n\
     overhead, not a speedup; sharding buys no capacity, but survives n - t\n\
     dead shards — bit-identical answers throughout (asserted above).\n"

(* ------------------------------------------------------------------ *)
(* Extra ablation: server-side aggregation vs node-set fetch          *)
(* ------------------------------------------------------------------ *)

(* The oblivious-aggregation claim: a sum()/avg() answer costs one
   constant-size blinded reply however many rows it folds, where the
   node-set alternative hauls every matched node back to the client.
   Wire bytes are counted by re-encoding each request/response around
   an in-process handler (a local transport's own byte counters stay
   zero by design). *)
let aggregation_ablation () =
  heading "Ablation — server-side aggregation vs node-set fetch";
  let module Protocol = Secshare_rpc.Protocol in
  let module Transport = Secshare_rpc.Transport in
  let module Server_filter = Secshare_core.Server_filter in
  let selectivities = if !quick then [ 10; 100 ] else [ 10; 100; 1000; 5000 ] in
  printf
    "one document per row: N price leaves, query sum(//price) vs fetching\n\
     //price; the aggregate reply is asserted constant-size across N.\n\n";
  printf "%8s %10s %12s %12s %12s %12s %12s\n" "N" "matches" "fetch(B)" "agg(B)"
    "reply(B)" "fetch(s)" "agg(s)";
  let reply_sizes = ref [] in
  List.iter
    (fun n ->
      let doc =
        Tree.element "site"
          (List.init n (fun i ->
               Tree.element "item"
                 [
                   Tree.element "price"
                     [ Tree.text (Printf.sprintf "%d.%02d" (i mod 977) (i mod 100)) ];
                 ]))
      in
      let db = make_db doc in
      let numbers =
        match DB.numbers_table db with Some t -> t | None -> failwith "no nums"
      in
      let filter = Server_filter.create ~numbers (DB.ring db) (DB.table db) in
      let handler = Server_filter.handler filter in
      let wire_bytes = ref 0 in
      let agg_reply_bytes = ref 0 in
      let counting request =
        wire_bytes := !wire_bytes + String.length (Protocol.encode_request request);
        let response = handler request in
        let rbytes = String.length (Protocol.encode_response response) in
        wire_bytes := !wire_bytes + rbytes;
        (match response with
        | Protocol.Agg_partial _ -> agg_reply_bytes := rbytes
        | _ -> ());
        response
      in
      let client =
        must
          (DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db)
             (Transport.local ~handler:counting))
      in
      let measure q =
        wire_bytes := 0;
        let r, wall = time_it (fun () -> must (DB.query client q)) in
        (r, !wire_bytes, wall)
      in
      let fetch, fetch_bytes, fetch_wall = measure "//price" in
      let agg, agg_bytes, agg_wall = measure "sum(//price)" in
      let matches = List.length (DB.result_nodes fetch) in
      if matches <> n then failwith "aggregation ablation: fetch matched <> N";
      (match agg.DB.value with
      | QC.Sum _ -> ()
      | _ -> failwith "aggregation ablation: sum() did not return a Sum");
      reply_sizes := !agg_reply_bytes :: !reply_sizes;
      printf "%8d %10d %12d %12d %12d %12.4f %12.4f\n" n matches fetch_bytes
        agg_bytes !agg_reply_bytes fetch_wall agg_wall;
      record "aggregation"
        [
          ("selectivity", J_int n);
          ("matches", J_int matches);
          ("fetch_bytes", J_int fetch_bytes);
          ("agg_bytes", J_int agg_bytes);
          ("agg_reply_bytes", J_int !agg_reply_bytes);
          ("fetch_seconds", J_float fetch_wall);
          ("agg_seconds", J_float agg_wall);
        ];
      DB.close client;
      DB.close db)
    selectivities;
  (match !reply_sizes with
  | [] -> ()
  | first :: rest ->
      if List.exists (fun s -> s <> first) rest then
        failwith "aggregation ablation: aggregate reply size varied with selectivity";
      printf
        "\naggregate reply: %d bytes at every selectivity (the node-set bytes\n\
         above grow with N; the whole-query aggregate bytes grow only through\n\
         the pipeline that finds the matched set, never the reply).\n"
        first)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("trie", trie_ablation);
    ("transport", transport_ablation);
    ("batching", batching_ablation);
    ("field", field_ablation);
    ("swp", baseline_swp);
    ("concurrency", concurrency_ablation);
    ("shard", shard_ablation);
    ("aggregation", aggregation_ablation);
    ("durability", durability_ablation);
    ("micro", micro);
    ("kernel", kernel);
    ("loadgen", loadgen);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | [ "--json" ] ->
        prerr_endline "--json needs a FILE argument";
        exit 2
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected = if args = [] then List.map fst experiments else args in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          printf "unknown experiment %S (available: %s)\n" name
            (String.concat ", " (List.map fst experiments)))
    selected;
  (match !json_path with
  | Some path ->
      write_json path;
      printf "\nwrote %d result rows to %s\n" (List.length !json_rows) path
  | None -> ());
  printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
