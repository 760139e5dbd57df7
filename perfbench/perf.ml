(* The performance benchmark: five workloads, each measured end to end
   (throughput, latency, set-up time, memory, storage) and, with
   --trace, split into per-layer times and counts.

     dune exec perfbench/perf.exe -- [--workload W|all] [--seed N]
       (--seconds S | --smoke) [--trace] [--commit SHA] [--json FILE]
       [--spans FILE]

   Every layer is measured from outside: the benchmark times its own
   calls into public functions (the server filter's and the router's
   handlers, the transport, the codec, client share regeneration, the
   node table) and changes nothing in the program under test.
   perfbench/README.md maps each layer metric to the end-to-end metric
   and workload it should move.

   Each workload runs in a forked child, so it starts from a fresh
   heap, fresh caches and fresh GC state whatever ran before it.
   Inputs (the client's key, the dealer's randomness, the query and
   request orders) are drawn from --seed; the document is fixed.
   Results are rows of one schema,
   {experiment, layer, metric, unit, value, n, q1, q3, config, commit},
   printed as a table and written with --json.  The exit code is 1
   when any golden or leak check failed. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Metrics = Secshare_core.Metrics
module Reference = Secshare_core.Reference
module Server_filter = Secshare_core.Server_filter
module Lru = Secshare_core.Lru
module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Server = Secshare_rpc.Server
module Frame = Secshare_rpc.Frame
module Evloop = Secshare_rpc.Evloop
module Router = Secshare_shard.Router
module Split = Secshare_shard.Split
module Manifest = Secshare_shard.Manifest
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Node_prg = Secshare_prg.Node_prg
module Seed = Secshare_prg.Seed
module Xoshiro = Secshare_prg.Xoshiro
module Span = Secshare_obs.Span
module Trace = Secshare_obs.Trace
module Generate = Secshare_xmark.Generate
module Print = Secshare_xml.Print
module Ast = Secshare_xpath.Ast

external pin_one_cpu : unit -> unit = "perfbench_pin_one_cpu"

(* Seconds on the monotonic clock, at nanosecond resolution:
   Unix.gettimeofday has microsecond resolution, too coarse for the
   microsecond requests serve-pipelined times, and it jumps when the
   wall clock is set. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Spans carry epoch start times. *)
let epoch_offset = Unix.gettimeofday () -. now ()
let printf = Printf.printf
let must what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Options                                                            *)
(* ------------------------------------------------------------------ *)

let workload_names =
  [ "xmark-cold"; "xmark-socket"; "shard-agg"; "serve-pipelined"; "ingest-durable" ]

type opts = {
  workloads : string list;
  input_seed : int;  (** --seed: draws every input but the document *)
  seconds : float;
      (** measuring time per workload, after set-up and warm-up; no
          default, so that BENCHMARK.json's run_seconds is the one *)
  trace : bool;
  smoke : bool;
  commit : string;
  json : string option;
  spans : string option;
}

let usage =
  "usage: perf.exe [--workload W|all] [--seed N] (--seconds S | --smoke) [--trace]\n\
  \                [--commit SHA] [--json FILE] [--spans FILE]\n\
   workloads: " ^ String.concat ", " workload_names

let parse_args args =
  let fail msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let number conv flag v =
    match conv v with Some x -> x | None -> fail (flag ^ ": not a number: " ^ v)
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: "all" :: rest -> go { o with workloads = workload_names } rest
    | "--workload" :: w :: rest ->
        if List.mem w workload_names then go { o with workloads = [ w ] } rest
        else fail ("unknown workload " ^ w)
    | "--seed" :: v :: rest -> go { o with input_seed = number int_of_string_opt "--seed" v } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = number float_of_string_opt "--seconds" v } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--commit" :: v :: rest -> go { o with commit = v } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--spans" :: v :: rest -> go { o with spans = Some v } rest
    | arg :: _ -> fail ("unknown or incomplete argument " ^ arg)
  in
  let o =
    go
      {
        workloads = workload_names;
        input_seed = 1;
        seconds = nan;
        trace = false;
        smoke = false;
        commit = "unknown";
        json = None;
        spans = None;
      }
      args
  in
  (* smoke: the minimum number of passes, no timing *)
  if o.smoke then { o with seconds = 0.0 }
  else if Float.is_nan o.seconds then fail "--seconds is required (or --smoke)"
  else o

(* Document sizes are chosen against the client's default share cache
   of 4096 polynomials: xmark-cold's 1 MB document (15 377 nodes) is
   3.75x the cache, so regeneration stays on the critical path; the
   100 KB document (1 660 nodes) of xmark-socket and serve-pipelined
   fits it, so regeneration all but disappears there. *)
type sizes = {
  cold_bytes : int;
  socket_bytes : int;
  shard_bytes : int;
  ingest_bytes : int;
  ingest_blocks : int;  (** 512-row blocks per ingest round *)
  setup_reps : int;
  setup_budget : float;
}

let sizes_of opts =
  if opts.smoke then
    {
      cold_bytes = 20_000;
      socket_bytes = 20_000;
      shard_bytes = 20_000;
      ingest_bytes = 20_000;
      ingest_blocks = 1;
      setup_reps = 1;
      setup_budget = 0.0;
    }
  else
    {
      cold_bytes = 1_000_000;
      socket_bytes = 100_000;
      shard_bytes = 300_000;
      ingest_bytes = 100_000;
      ingest_blocks = 40;
      setup_reps = 3;
      setup_budget = 1.5;
    }

(* ------------------------------------------------------------------ *)
(* Result rows and statistics                                         *)
(* ------------------------------------------------------------------ *)

type row = {
  metric : string;
  unit_ : string;
  value : float;
  n : int;  (** samples behind [value] *)
  quart : (float * float) option;  (** q1, q3 when [value] is a median *)
}

(* A layer metric is named "<layer>.<what>"; an end-to-end metric has
   no dot. *)
let layer_of metric =
  match String.index_opt metric '.' with Some i -> String.sub metric 0 i | None -> "e2e"

let rows : row list ref = ref []
let emit ?(n = 1) ?quart metric unit_ value = rows := { metric; unit_; value; n; quart } :: !rows

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) (its default "exclusive"
   method), so q1/q3 here mean what they mean in compare.py. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let at i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (at 1, at 3)

let emit_median metric unit_ xs =
  emit ~n:(List.length xs) ~quart:(quartiles xs) metric unit_ (median xs)

(* Exact sample percentile, interpolating between closest ranks. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((a.(i + 1) -. a.(i)) *. (pos -. float_of_int i))

let emit_latencies samples_ms =
  let a = Array.copy samples_ms in
  Array.sort Float.compare a;
  let n = Array.length a in
  List.iter
    (fun (name, p) -> emit ~n name "ms" (percentile a p))
    [ ("lat_p50_ms", 0.50); ("lat_p90_ms", 0.90); ("lat_p99_ms", 0.99) ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let heap_mb words = fi (words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Correctness accounting                                             *)
(* ------------------------------------------------------------------ *)

(* Every operation a workload performs is counted as attempted; a
   wrong answer, an error or a leaked cursor counts as failed. *)
let attempted = ref 0
let failed = ref 0

let miss fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("perf: " ^ msg))
    fmt

(* ------------------------------------------------------------------ *)
(* Spans: the traced run's timing wrappers                            *)
(* ------------------------------------------------------------------ *)

(* Tracing is switched per block; untraced blocks go through the same
   wrappers at the cost of one flag test. *)
let tracing = ref false
let spans : Span.t list ref = ref []
let parent_span : int option ref = ref None

let with_span ~kind name f =
  if not !tracing then f ()
  else begin
    let span_id = Trace.next_span_id () in
    let parent_id = !parent_span in
    parent_span := Some span_id;
    let start = now () in
    let finish () =
      spans :=
        {
          Span.trace_id = Trace.current_id ();
          span_id;
          parent_id;
          name;
          start = start +. epoch_offset;
          duration = now () -. start;
          kind;
        }
        :: !spans;
      parent_span := parent_id
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Messages seen at each transport hop during the warm-up pass; the
   codec layer is costed by re-encoding exactly these. *)
let capture = ref false
let captured : (string, (Protocol.request * Protocol.response) list) Hashtbl.t = Hashtbl.create 4

(* A handler wrapped with a span named [span_prefix ^ op].  Span names
   carry op names only, never query text or tag names. *)
let instrument ~hop ~kind ~span_prefix handler request =
  let response =
    with_span ~kind (span_prefix ^ Protocol.request_name request) (fun () -> handler request)
  in
  if !capture then
    Hashtbl.replace captured hop
      ((request, response) :: Option.value (Hashtbl.find_opt captured hop) ~default:[]);
  response

(* Mean seconds of one codec pass (request and response, each encoded
   and decoded) over a hop's captured messages. *)
let codec_seconds ~smoke hop =
  match Hashtbl.find_opt captured hop with
  | None | Some [] -> 0.0
  | Some msgs ->
      let pass () =
        List.iter
          (fun (req, resp) ->
            ignore (Protocol.decode_request (Protocol.encode_request req));
            ignore (Protocol.decode_response (Protocol.encode_response resp)))
          msgs
      in
      let reps = ref 0 in
      let (), elapsed =
        timed (fun () ->
            let t0 = now () in
            while !reps = 0 || ((not smoke) && now () -. t0 < 0.2) do
              pass ();
              incr reps
            done)
      in
      elapsed /. fi (!reps * List.length msgs)

(* Sum of [f span] over spans whose name has [prefix]. *)
let sum_spans prefix f =
  List.fold_left
    (fun acc (s : Span.t) -> if String.starts_with ~prefix s.Span.name then acc +. f s else acc)
    0.0 !spans

let count_spans prefix = int_of_float (sum_spans prefix (fun _ -> 1.0))

(* Total self time of the spans named [prefix]: duration minus the time
   covered by child spans (a layer's children run sequentially inside
   it). *)
let self_spans prefix =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun (c : Span.t) ->
      Option.iter
        (fun p ->
          Hashtbl.replace covered p
            (c.Span.duration +. Option.value (Hashtbl.find_opt covered p) ~default:0.0))
        c.Span.parent_id)
    !spans;
  sum_spans prefix (fun s ->
      s.Span.duration -. Option.value (Hashtbl.find_opt covered s.Span.span_id) ~default:0.0)

let write_spans path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  List.iter
    (fun s ->
      output_string oc (Span.to_json s);
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Documents, queries and their golden answers                        *)
(* ------------------------------------------------------------------ *)

(* Table 1 of the paper: chain queries of growing length. *)
let table1 =
  [
    "/site";
    "/site/regions";
    "/site/regions/europe";
    "/site/regions/europe/item";
    "/site/regions/europe/item/description";
    "/site/regions/europe/item/description/parlist";
    "/site/regions/europe/item/description/parlist/listitem";
    "/site/regions/europe/item/description/parlist/listitem/text";
    "/site/regions/europe/item/description/parlist/listitem/text/keyword";
  ]

(* Table 2: descendant steps and wildcards. *)
let table2 =
  [
    "/site//europe/item";
    "/site//europe//item";
    "/site/*/person//city";
    "/*/*/open_auction/bidder/date";
    "//bidder/date";
  ]

let aggregates =
  [ "count(//bidder)"; "count(//person)"; "sum(//price)"; "avg(//initial)"; "sum(//current)" ]

let three_configs =
  [ (DB.Advanced, QC.Strict); (DB.Advanced, QC.Non_strict); (DB.Simple, QC.Non_strict) ]

type job = {
  text : string;
  engine : DB.engine;
  strictness : QC.strictness;
  expect : QC.value;
}

(* Golden answers from the plaintext reference: strict results are the
   exact semantics, non-strict ones the containment semantics, the
   pairing the engine tests pin. *)
let jobs_of doc configs texts =
  List.concat_map
    (fun text ->
      let q = must text (Secshare_xpath.Parser.parse_query text) in
      List.map
        (fun (engine, strictness) ->
          let semantics =
            match strictness with QC.Strict -> Reference.Exact | QC.Non_strict -> Reference.Containment
          in
          let expect =
            match q.Ast.func with
            | None -> QC.Nodes (Reference.run_meta ~semantics doc q.Ast.path)
            | Some func -> Reference.run_agg ~semantics ~func doc q.Ast.path
          in
          { text; engine; strictness; expect })
        configs)
    texts

(* The document is the same for every --seed: at 100 KB, documents
   drawn from different generator seeds differ by +-10% in throughput
   and +-8% in encoded size, wider than any useful regression bound.
   The seed draws the client's secret key, the dealer's randomness and
   the order of every query and request mix. *)
let xmark bytes = Generate.generate_bytes ~seed:20050905L ~target_bytes:bytes ()
let encode opts doc =
  let key = Seed.of_passphrase (Printf.sprintf "perfbench-%d" opts.input_seed) in
  must "encode" (DB.create_tree ~config:{ DB.default_config with seed = Some key } doc)

let input_bytes doc = String.length (Print.to_string doc)

let storage_ratio db doc =
  let s = DB.storage_stats db in
  fi (s.DB.data_bytes + s.DB.index_bytes) /. fi (input_bytes doc)

let client_of ~db transport =
  must "client" (DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) transport)

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

let setup_phases = [ "generate_s"; "encode_s"; "split_s"; "spawn_s" ]

(* Set-up time is gated like any other metric, and one sample of it is
   noisy: build the deployment at least [setup_reps] times and until
   [setup_budget] seconds have gone into it, report medians, keep the
   last deployment and tear the others down. *)
let repeated_setup sizes ~teardown build =
  let t_start = now () in
  let rec go i acc =
    let (v, phases), total = timed build in
    let acc = (total, phases) :: acc in
    if i < sizes.setup_reps || (now () -. t_start < sizes.setup_budget && i < 20) then begin
      teardown v;
      Gc.compact ();
      go (i + 1) acc
    end
    else (v, acc)
  in
  let v, samples = go 1 [] in
  emit_median "setup_s" "s" (List.map fst samples);
  List.iter
    (fun phase ->
      emit_median ("setup." ^ phase) "s"
        (List.map (fun (_, ps) -> Option.value (List.assoc_opt phase ps) ~default:0.0) samples))
    setup_phases;
  Gc.full_major ();
  v

(* ------------------------------------------------------------------ *)
(* The forked socket server (xmark-socket, serve-pipelined)           *)
(* ------------------------------------------------------------------ *)

(* Ops whose server time is reported per op. *)
let server_ops = [| "scan_eval"; "scan_next"; "eval_batch"; "shares"; "children"; "agg_eval" |]

type server_stats = {
  requests : int;
  busy : float;  (** seconds inside the filter's handler *)
  op_calls : int array;
  op_busy : float array;
  open_cursors : int;
  top_heap_words : int;
}

(* Counters combined with [fi]/[ff]; the gauges are taken from [a]. *)
let stats_map2 fi ff a b =
  {
    requests = fi a.requests b.requests;
    busy = ff a.busy b.busy;
    op_calls = Array.map2 fi a.op_calls b.op_calls;
    op_busy = Array.map2 ff a.op_busy b.op_busy;
    open_cursors = a.open_cursors;
    top_heap_words = a.top_heap_words;
  }

let stats_diff = stats_map2 ( - ) ( -. )

let zero_stats =
  {
    requests = 0;
    busy = 0.0;
    op_calls = Array.map (fun _ -> 0) server_ops;
    op_busy = Array.map (fun _ -> 0.0) server_ops;
    open_cursors = 0;
    top_heap_words = 0;
  }

type child = {
  pid : int;
  cmd : out_channel;
  reply : in_channel;
  path : string;
  bundle : string;
  reopen_s : float;  (** the child's bundle open time *)
}

(* The child serves a saved bundle (the file-backed pager, as
   ssdb_server --db does) and times every handler call; the handler
   runs on the server's loop domain and the counters are read from the
   control loop, hence atomics.  Commands on the control pipe: "s"
   answers a counter snapshot, "q" (or EOF) drains and exits. *)
let serve_child ~bundle ~path ~cmd ~reply =
  let db, reopen_s = timed (fun () -> must "open_bundle" (DB.open_bundle ~dir:bundle ())) in
  let filter = Server_filter.create ?numbers:(DB.numbers_table db) (DB.ring db) (DB.table db) in
  let requests = Atomic.make 0 and busy_ns = Atomic.make 0 in
  let op_calls = Array.map (fun _ -> Atomic.make 0) server_ops in
  let op_ns = Array.map (fun _ -> Atomic.make 0) server_ops in
  let op_index = Hashtbl.create 8 in
  Array.iteri (fun i op -> Hashtbl.replace op_index op i) server_ops;
  let timed_handler handler request =
    let response, dt = timed (fun () -> handler request) in
    let ns = int_of_float (dt *. 1e9) in
    Atomic.incr requests;
    ignore (Atomic.fetch_and_add busy_ns ns);
    (match Hashtbl.find_opt op_index (Protocol.request_name request) with
    | Some i ->
        Atomic.incr op_calls.(i);
        ignore (Atomic.fetch_and_add op_ns.(i) ns)
    | None -> ());
    response
  in
  let server =
    Server.start_sessions ~path
      ~session:(fun () ->
        let on_request, on_close = Server_filter.connection filter in
        { Server.on_request = timed_handler on_request; on_close })
      ()
  in
  let say line =
    output_string reply (line ^ "\n");
    flush reply
  in
  say (Printf.sprintf "ready %d" (int_of_float (reopen_s *. 1e9)));
  let rec loop () =
    match input_line cmd with
    | "s" ->
        let per_op =
          Array.to_list
            (Array.mapi
               (fun i c -> Printf.sprintf "%d %d" (Atomic.get c) (Atomic.get op_ns.(i)))
               op_calls)
        in
        say
          (String.concat " "
             ((string_of_int (Atomic.get requests) :: string_of_int (Atomic.get busy_ns) :: per_op)
             @ [
                 string_of_int (Server_filter.open_cursors filter);
                 string_of_int (Gc.quick_stat ()).Gc.top_heap_words;
               ]));
        loop ()
    | _ | (exception End_of_file) -> ()
  in
  loop ();
  Server.stop server;
  Server_filter.close filter;
  DB.close db

let socket_counter = ref 0

let spawn_server ~bundle =
  incr socket_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pb-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let cmd_r, cmd_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close cmd_w;
      Unix.close rep_r;
      let code =
        match
          serve_child ~bundle ~path ~cmd:(Unix.in_channel_of_descr cmd_r)
            ~reply:(Unix.out_channel_of_descr rep_w)
        with
        | () -> 0
        | exception e ->
            prerr_endline ("perf: server child: " ^ Printexc.to_string e);
            2
      in
      flush stderr;
      (* not [exit]: the child must not run the parent's at_exit hooks *)
      Unix._exit code
  | pid -> (
      Unix.close cmd_r;
      Unix.close rep_w;
      let cmd = Unix.out_channel_of_descr cmd_w and reply = Unix.in_channel_of_descr rep_r in
      match String.split_on_char ' ' (input_line reply) with
      | [ "ready"; ns ] -> { pid; cmd; reply; path; bundle; reopen_s = fi (int_of_string ns) /. 1e9 }
      | _ | (exception End_of_file) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          failwith "server child failed to start")

let server_sample child =
  output_string child.cmd "s\n";
  flush child.cmd;
  let ints = Array.of_list (List.map int_of_string (String.split_on_char ' ' (input_line child.reply))) in
  let k = Array.length server_ops in
  {
    requests = ints.(0);
    busy = fi ints.(1) /. 1e9;
    op_calls = Array.init k (fun i -> ints.(2 + (2 * i)));
    op_busy = Array.init k (fun i -> fi ints.(3 + (2 * i)) /. 1e9);
    open_cursors = ints.(2 + (2 * k));
    top_heap_words = ints.(3 + (2 * k));
  }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let stop_server child =
  (try
     output_string child.cmd "q\n";
     close_out child.cmd
   with Sys_error _ -> ());
  (match Unix.waitpid [] child.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> miss "server child exited abnormally"
  | exception Unix.Unix_error _ -> ());
  close_in_noerr child.reply;
  remove_tree child.bundle

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* ------------------------------------------------------------------ *)
(* The closed loop shared by the three query workloads                *)
(* ------------------------------------------------------------------ *)

(* What a traced block adds up, besides spans. *)
type traced_totals = {
  mutable queries : int;
  mutable calls : int;
  mutable bytes : int;
  metrics : Metrics.t;
  mutable result_nodes : int;  (** node-set queries only *)
  mutable examined : int;  (** node-set queries only *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable server : server_stats;  (** socket deployments *)
}

type loop_result = {
  latencies_ms : float list;  (** untraced queries *)
  block_qps : float list;  (** untraced passes *)
  traced_qps : float list;
  totals : traced_totals;
}

let run_job ~traced client job =
  incr attempted;
  let go () = DB.query ~engine:job.engine ~strictness:job.strictness client job.text in
  let result =
    if not traced then go ()
    else begin
      let span_id = Trace.next_span_id () in
      parent_span := Some span_id;
      let r, duration = timed go in
      parent_span := None;
      (match r with
      | Ok r ->
          spans :=
            {
              Span.trace_id = r.DB.trace_id;
              span_id;
              parent_id = None;
              name = "query";
              start = now () -. duration +. epoch_offset;
              duration;
              kind = Span.Client;
            }
            :: !spans
      | Error _ -> ());
      r
    end
  in
  match result with
  | Ok r when r.DB.value = job.expect -> Some r
  | Ok _ ->
      miss "wrong answer: %s" job.text;
      None
  | Error msg ->
      miss "query failed: %s: %s" job.text msg;
      None

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro.next_int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let cache_counts client =
  match DB.share_cache_stats client with
  | Some s -> (s.Lru.hits, s.Lru.misses)
  | None -> (0, 0)

(* One untimed warm-up pass fills caches and lazy state; then whole
   passes over a seeded shuffle of the mix run until the time budget
   is spent.  In trace mode passes alternate untraced/traced;
   end-to-end numbers come from the untraced ones only. *)
let closed_loop ~opts ~jobs ~client ?server () =
  let jobs = Array.of_list jobs in
  let warm c = Array.iter (fun j -> ignore (run_job ~traced:false c j)) jobs in
  warm (client ~traced:false);
  if opts.trace then begin
    capture := true;
    if client ~traced:true != client ~traced:false then warm (client ~traced:true)
    else warm (client ~traced:false);
    capture := false
  end;
  let totals =
    {
      queries = 0;
      calls = 0;
      bytes = 0;
      metrics = Metrics.create ();
      result_nodes = 0;
      examined = 0;
      cache_hits = 0;
      cache_misses = 0;
      server = zero_stats;
    }
  in
  let rng = Xoshiro.create (Int64.of_int opts.input_seed) in
  let order = Array.init (Array.length jobs) Fun.id in
  let block_qps = ref [] and traced_qps = ref [] and latencies = ref [] in
  let min_passes = if opts.trace then 2 else 1 in
  let t_start = now () in
  let pass = ref 0 in
  while !pass < min_passes || now () -. t_start < opts.seconds do
    incr pass;
    let traced = opts.trace && !pass mod 2 = 0 in
    let c = client ~traced in
    shuffle rng order;
    let server_before = Option.map (fun f -> f ()) server in
    let hits0, misses0 = cache_counts c in
    tracing := traced;
    let t0 = now () in
    Array.iter
      (fun i ->
        let r, dt = timed (fun () -> run_job ~traced c jobs.(i)) in
        if not traced then latencies := (dt *. 1000.0) :: !latencies
        else
          Option.iter
            (fun r ->
              totals.queries <- totals.queries + 1;
              totals.calls <- totals.calls + r.DB.rpc_calls;
              totals.bytes <- totals.bytes + r.DB.rpc_bytes;
              Metrics.add totals.metrics r.DB.metrics;
              match r.DB.value with
              | QC.Nodes nodes ->
                  totals.result_nodes <- totals.result_nodes + List.length nodes;
                  totals.examined <- totals.examined + r.DB.metrics.Metrics.nodes_examined
              | _ -> ())
            r)
      order;
    let qps = fi (Array.length jobs) /. (now () -. t0) in
    tracing := false;
    if traced then begin
      traced_qps := qps :: !traced_qps;
      let hits1, misses1 = cache_counts c in
      totals.cache_hits <- totals.cache_hits + hits1 - hits0;
      totals.cache_misses <- totals.cache_misses + misses1 - misses0;
      match (server, server_before) with
      | Some f, Some before ->
          totals.server <- stats_map2 ( + ) ( +. ) (stats_diff (f ()) before) totals.server
      | _ -> ()
    end
    else block_qps := qps :: !block_qps
  done;
  { latencies_ms = !latencies; block_qps = !block_qps; traced_qps = !traced_qps; totals }

(* A pass is a block: throughput is the median over passes, so a slow
   stretch of the host moves some blocks, not the result. *)
let emit_end_to_end ~loop ~storage =
  emit_median "ops_per_s" "1/s" loop.block_qps;
  emit_latencies (Array.of_list loop.latencies_ms);
  emit "bytes_per_input_byte" "B/B" storage

(* Per-op handler time, as the server child counts it or as spans named
   [prefix ^ op] record it. *)
let stats_of_spans prefix =
  let busy name = sum_spans name (fun s -> s.Span.duration) in
  {
    requests = count_spans prefix;
    busy = busy prefix;
    op_calls = Array.map (fun op -> count_spans (prefix ^ op)) server_ops;
    op_busy = Array.map (fun op -> busy (prefix ^ op)) server_ops;
    open_cursors = 0;
    top_heap_words = 0;
  }

let emit_server_ops (s : server_stats) ~units =
  emit ~n:s.requests "server.handler_us" "us" (ratio s.busy (fi s.requests) *. 1e6);
  Array.iteri
    (fun i op ->
      emit ~n:units ("server." ^ op ^ ".calls") "count" (fi s.op_calls.(i) /. fi (max 1 units));
      emit ~n:s.op_calls.(i) ("server." ^ op ^ ".us") "us"
        (ratio s.op_busy.(i) (fi s.op_calls.(i)) *. 1e6))
    server_ops

(* Where a traced query's wall time went.  Each in-process transport
   hop runs one codec pass inside its caller's span, so the codec
   estimate (calls x measured pass time) is moved out of that caller's
   self time; with the server's handler time the parts add up to the
   traced wall time by construction. *)
type ledger = {
  wall : float;
  client_self : float;
  codec : float;
  transport : float;
  router_self : float;
}

let emit_ledger ~(t : traced_totals) ~codec_pass ~(server : server_stats) (l : ledger) =
  let nq = fi (max 1 t.queries) and calls = fi (max 1 t.calls) in
  let ms x = x /. nq *. 1000.0 and us_per_call x = x /. calls *. 1e6 in
  emit ~n:t.queries "trace.wall_ms" "ms" (ms l.wall);
  emit ~n:t.queries "client.self_ms" "ms" (ms l.client_self);
  emit ~n:t.calls "rpc.codec_us" "us" (codec_pass *. 1e6);
  emit ~n:t.calls "rpc.roundtrip_us" "us" (us_per_call (l.wall -. l.client_self));
  emit ~n:t.calls "rpc.transport_us" "us" (us_per_call l.transport);
  emit ~n:t.queries "server.self_ms" "ms" (ms server.busy);
  emit_server_ops server ~units:t.queries;
  emit ~n:t.queries "rpc.calls" "count" (fi t.calls /. nq);
  emit ~n:t.queries "rpc.bytes" "B" (fi t.bytes /. nq);
  let m = t.metrics in
  emit ~n:t.queries "core.evaluations" "count" (fi m.Metrics.evaluations /. nq);
  emit ~n:t.queries "core.equality_tests" "count" (fi m.Metrics.equality_tests /. nq);
  emit ~n:t.queries "core.nodes_examined" "count" (fi m.Metrics.nodes_examined /. nq);
  emit ~n:t.queries "core.useful_ratio" "ratio" (ratio (fi t.result_nodes) (fi t.examined));
  emit ~n:(t.cache_hits + t.cache_misses) "client.share_cache.hit_ratio" "ratio"
    (ratio (fi t.cache_hits) (fi (t.cache_hits + t.cache_misses)));
  emit ~n:t.queries "prg.regens" "count" (fi t.cache_misses /. nq);
  let parts =
    [
      ("client", l.client_self);
      ("codec", l.codec);
      ("transport", l.transport);
      ("router", l.router_self);
      ("server", server.busy);
    ]
  in
  printf "  ledger over %d traced queries (ms/query; parts sum to wall %.3f):\n" t.queries
    (ms l.wall);
  List.iter
    (fun (name, v) -> printf "    %-10s %9.3f  %5.1f%%\n" name (ms v) (100.0 *. ratio v l.wall))
    parts

let emit_overhead loop =
  emit ~n:(List.length loop.traced_qps) "trace.overhead_pct" "%"
    (100.0 *. (ratio (median loop.block_qps) (median loop.traced_qps) -. 1.0))

(* Client share regeneration timed directly over the workload's own
   node numbers. *)
let emit_client_poly ~opts db =
  let pres = ref [] in
  Node_table.iter (DB.table db) ~f:(fun r -> pres := r.Page.pre :: !pres);
  let pres = Array.of_list !pres in
  let ring = DB.ring db and seed = DB.seed db in
  let polys = ref 0 in
  let (), elapsed =
    timed (fun () ->
        let t0 = now () in
        while !polys = 0 || ((not opts.smoke) && now () -. t0 < 0.2) do
          Array.iter
            (fun pre ->
              ignore (Node_prg.client_poly ~ring ~seed ~pre);
              incr polys)
            pres
        done)
  in
  emit ~n:!polys "prg.client_poly_us" "us" (elapsed /. fi !polys *. 1e6)

(* ------------------------------------------------------------------ *)
(* Workload: xmark-cold                                               *)
(* ------------------------------------------------------------------ *)

(* In-process deployment over a 1 MB document whose 15 377 nodes are
   3.75x the share cache: client share regeneration and the query
   engines do most of the work, and no socket is involved. *)
let xmark_cold opts sizes =
  let doc, db, filter, client =
    repeated_setup sizes
      ~teardown:(fun (_, db, filter, client) ->
        DB.close client;
        Server_filter.close filter;
        DB.close db)
      (fun () ->
        let doc, generate_s = timed (fun () -> xmark sizes.cold_bytes) in
        let (db, filter, client), encode_s =
          timed (fun () ->
              let db = encode opts doc in
              let filter =
                Server_filter.create ?numbers:(DB.numbers_table db) (DB.ring db) (DB.table db)
              in
              let handler =
                instrument ~hop:"client" ~kind:Span.Server ~span_prefix:"server."
                  (Server_filter.handler filter)
              in
              (db, filter, client_of ~db (Transport.local ~handler)))
        in
        ((doc, db, filter, client), [ ("generate_s", generate_s); ("encode_s", encode_s) ]))
  in
  let jobs = jobs_of doc three_configs (table1 @ table2) in
  let loop = closed_loop ~opts ~jobs ~client:(fun ~traced:_ -> client) () in
  if Server_filter.open_cursors filter <> 0 then miss "leaked server cursors";
  emit_end_to_end ~loop ~storage:(storage_ratio db doc);
  if opts.trace then begin
    let t = loop.totals in
    let codec_pass = codec_seconds ~smoke:opts.smoke "client" in
    let codec = fi t.calls *. codec_pass in
    emit_ledger ~t ~codec_pass ~server:(stats_of_spans "server.")
      {
        wall = sum_spans "query" (fun s -> s.Span.duration);
        client_self = self_spans "query" -. codec;
        codec;
        transport = 0.0;
        router_self = 0.0;
      };
    emit_client_poly ~opts db;
    emit_overhead loop
  end;
  DB.close client;
  Server_filter.close filter;
  DB.close db

(* ------------------------------------------------------------------ *)
(* Workload: xmark-socket                                             *)
(* ------------------------------------------------------------------ *)

let save_bundle db =
  let dir = temp_dir "perfbench-bundle" in
  must "save_bundle" (DB.save_bundle db ~dir);
  dir

(* Set up a forked server over a saved bundle of the 100 KB document and
   run [f doc db child]; the server is stopped however [f] ends. *)
let with_socket_server opts sizes f =
  let doc, db, child =
    repeated_setup sizes
      ~teardown:(fun (_, db, child) ->
        stop_server child;
        DB.close db)
      (fun () ->
        let doc, generate_s = timed (fun () -> xmark sizes.socket_bytes) in
        let db, encode_s = timed (fun () -> encode opts doc) in
        let child, spawn_s = timed (fun () -> spawn_server ~bundle:(save_bundle db)) in
        ((doc, db, child), [ ("generate_s", generate_s); ("encode_s", encode_s); ("spawn_s", spawn_s) ]))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server child;
      DB.close db)
    (fun () -> f doc db child)

(* The same mix against a forked server over a 100 KB document that
   fits the share cache: frames, syscalls, the event loop and per-call
   server work dominate, and regeneration all but disappears. *)
let xmark_socket opts sizes =
  with_socket_server opts sizes (fun doc db child ->
    let direct =
      must "connect"
        (DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path:child.path ())
    in
    (* traced: Transport.call on a socket, inside a local transport
       so each round trip gets a span *)
    let socket = if opts.trace then Some (must "socket" (Transport.socket child.path)) else None in
    let traced =
      match socket with
      | None -> direct
      | Some socket ->
          client_of ~db
            (Transport.local
               ~handler:
                 (instrument ~hop:"client" ~kind:Span.Client ~span_prefix:"rpc.call."
                    (Transport.call socket)))
    in
    let jobs = jobs_of doc three_configs (table1 @ table2) in
    let loop =
      closed_loop ~opts ~jobs
        ~client:(fun ~traced:t -> if t then traced else direct)
        ~server:(fun () -> server_sample child)
        ()
    in
    if (server_sample child).open_cursors <> 0 then miss "leaked server cursors";
    emit_end_to_end ~loop ~storage:(storage_ratio db doc);
    emit "store.reopen_ms" "ms" (child.reopen_s *. 1000.0);
    if opts.trace then begin
      let t = loop.totals in
      let codec_pass = codec_seconds ~smoke:opts.smoke "client" in
      let one_pass = fi t.calls *. codec_pass in
      let round_trips = sum_spans "rpc.call." (fun s -> s.Span.duration) in
      emit_ledger ~t ~codec_pass ~server:t.server
        {
          wall = sum_spans "query" (fun s -> s.Span.duration);
          (* the local wrapper's codec pass runs in the client's span,
             the socket's own pass inside each round trip *)
          client_self = self_spans "query" -. one_pass;
          codec = 2.0 *. one_pass;
          transport = round_trips -. t.server.busy -. one_pass;
          router_self = 0.0;
        };
      emit_client_poly ~opts db;
      emit_overhead loop
    end;
    Option.iter
      (fun socket ->
        DB.close traced;
        Transport.close socket)
      socket;
    DB.close direct)

(* ------------------------------------------------------------------ *)
(* Workload: shard-agg                                                *)
(* ------------------------------------------------------------------ *)

(* An in-process 2-of-3 Shamir deployment: the only workload that runs
   router fan-out, Lagrange recombination and the F_(2^61-1)
   aggregate path. *)
let shard_agg opts sizes =
  let shards = 3 and threshold = 2 in
  let doc, db, members, router, client =
    repeated_setup sizes
      ~teardown:(fun (_, db, members, router, client) ->
        DB.close client;
        Router.close router;
        Array.iter Server_filter.close members;
        DB.close db)
      (fun () ->
        let doc, generate_s = timed (fun () -> xmark sizes.shard_bytes) in
        let db, encode_s = timed (fun () -> encode opts doc) in
        let ring = DB.ring db in
        let (tables, nums, manifests), split_s =
          timed (fun () ->
              let dealer_seed = Seed.of_passphrase (Printf.sprintf "perfbench-dealer-%d" opts.input_seed) in
              let tables = Array.init shards (fun _ -> Node_table.create ()) in
              let nums = Array.init shards (fun _ -> Node_table.create ()) in
              let manifests =
                Split.split_table ring ~threshold ~shards ~dealer_seed ~source:(DB.table db)
                  ~sinks:tables
              in
              Option.iter
                (fun source -> Split.split_numbers ~threshold ~shards ~dealer_seed ~source ~sinks:nums)
                (DB.numbers_table db);
              (tables, nums, manifests))
        in
        let (members, router, client), spawn_s =
          timed (fun () ->
              let members =
                Array.init shards (fun i ->
                    Server_filter.create ~manifest:(Manifest.to_info manifests.(i))
                      ~numbers:nums.(i) ring tables.(i))
              in
              let transports =
                Array.to_list
                  (Array.map
                     (fun f ->
                       Transport.local
                         ~handler:
                           (instrument ~hop:"member" ~kind:Span.Server ~span_prefix:"shard.member."
                              (Server_filter.handler f)))
                     members)
              in
              let router = must "router" (Router.of_transports ring transports) in
              let handler =
                instrument ~hop:"client" ~kind:Span.Server ~span_prefix:"server."
                  (Router.handler router)
              in
              (members, router, client_of ~db (Transport.local ~handler)))
        in
        ( (doc, db, members, router, client),
          [
            ("generate_s", generate_s);
            ("encode_s", encode_s);
            ("split_s", split_s);
            ("spawn_s", spawn_s);
          ] ))
  in
  let jobs = jobs_of doc [ (DB.Advanced, QC.Strict) ] (table2 @ aggregates) in
  let loop = closed_loop ~opts ~jobs ~client:(fun ~traced:_ -> client) () in
  if Router.open_cursors router <> 0 then miss "leaked router cursors";
  if Array.exists (fun m -> Server_filter.open_cursors m <> 0) members then
    miss "leaked shard cursors";
  emit_end_to_end ~loop ~storage:(storage_ratio db doc);
  if opts.trace then begin
    let t = loop.totals in
    let codec_pass = codec_seconds ~smoke:opts.smoke "client" in
    (* the client's server is the router; the members are the
       Server_filter instances behind it *)
    let member_stats = stats_of_spans "shard.member." in
    let client_codec = fi t.calls *. codec_pass in
    let member_codec = fi member_stats.requests *. codec_seconds ~smoke:opts.smoke "member" in
    let router_self = self_spans "server." -. member_codec in
    emit_ledger ~t ~codec_pass ~server:member_stats
      {
        wall = sum_spans "query" (fun s -> s.Span.duration);
        client_self = self_spans "query" -. client_codec;
        codec = client_codec +. member_codec;
        transport = 0.0;
        router_self;
      };
    let nq = fi (max 1 t.queries) in
    emit ~n:t.queries "shard.router_self_ms" "ms" (router_self /. nq *. 1000.0);
    emit ~n:t.queries "shard.member_ms" "ms" (member_stats.busy /. nq *. 1000.0);
    emit ~n:t.queries "shard.member_calls" "count" (fi member_stats.requests /. nq);
    emit ~n:t.calls "shard.fanout" "count" (ratio (fi member_stats.requests) (fi t.calls));
    emit_client_poly ~opts db;
    emit_overhead loop
  end;
  DB.close client;
  Router.close router;
  Array.iter Server_filter.close members;
  DB.close db

(* ------------------------------------------------------------------ *)
(* Workload: serve-pipelined                                          *)
(* ------------------------------------------------------------------ *)

(* Requests that leave no server state behind, so any of them can be
   replayed in any order: a fused scan qualifies when its reply opened
   no cursor. *)
let stateless request response =
  match (request, response) with
  | ( ( Protocol.Root | Protocol.Children _ | Protocol.Eval_batch _ | Protocol.Shares _
      | Protocol.Agg_eval _ ),
      _ ) ->
      true
  | Protocol.Scan_eval _, Protocol.Scan_batch { cursor = None; _ } -> true
  | _ -> false

type conn = {
  fd : Unix.file_descr;
  mutable obuf : Bytes.t;
  mutable olen : int;
  mutable ooff : int;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  pending : int Queue.t;  (** request numbers awaiting their reply *)
}

let frame_of payload =
  let b = Bytes.create (Frame.header_bytes + String.length payload) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.set_int64_be b 4 0L;
  Bytes.blit_string payload 0 b Frame.header_bytes (String.length payload);
  b

let append c frame =
  let len = Bytes.length frame in
  if c.olen + len > Bytes.length c.obuf then begin
    let live = c.olen - c.ooff in
    let fresh = Bytes.create (max (2 * Bytes.length c.obuf) (live + len)) in
    Bytes.blit c.obuf c.ooff fresh 0 live;
    c.obuf <- fresh;
    c.olen <- live;
    c.ooff <- 0
  end;
  Bytes.blit frame 0 c.obuf c.olen len;
  c.olen <- c.olen + len

let flush_out c =
  if c.olen > c.ooff then
    match Unix.single_write c.fd c.obuf c.ooff (c.olen - c.ooff) with
    | n ->
        c.ooff <- c.ooff + n;
        if c.ooff = c.olen then begin
          c.ooff <- 0;
          c.olen <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let equal_at buf off s =
  let n = String.length s in
  let rec go i = i = n || (Bytes.get buf (off + i) = String.get s i && go (i + 1)) in
  go 0

(* Send and reply times, indexed by request number, in float arrays:
   the generator keeps no per-request heap blocks alive, so its own GC
   stays out of the latencies it measures. *)
type generated = {
  sent : int;
  sent_at : float array;
  done_at : float array;  (** reply time; nan when unanswered *)
  started : float;
}

(* Latencies of the answered requests, in ms. *)
let latencies_ms g =
  List.filter_map
    (fun k ->
      if Float.is_nan g.done_at.(k) then None else Some ((g.done_at.(k) -. g.sent_at.(k)) *. 1000.0))
    (List.init g.sent Fun.id)

(* Replies per second in each half second of a run, or over the whole
   of a run shorter than a second, so that a short stall cannot read as
   no throughput at all. *)
let window_rates g ~seconds =
  let windows = max 1 (int_of_float (seconds /. 0.5)) in
  let w = Array.make windows 0 in
  Array.iter
    (fun t ->
      if not (Float.is_nan t) then begin
        let i = int_of_float ((t -. g.started) /. seconds *. fi windows) in
        if i >= 0 && i < windows then w.(i) <- w.(i) + 1
      end)
    (Array.sub g.done_at 0 g.sent);
  Array.to_list (Array.map (fun n -> fi n /. (seconds /. fi windows)) w)

(* Requests each connection keeps in flight: enough that the server
   always finds the next request waiting when it finishes one. *)
let pipeline_depth = 16

(* The load generator: one thread, two connections, a closed loop that
   sends a connection's next request as each reply arrives, so the
   reply rate is the server's capacity.  Every reply is byte-compared
   with its golden encoding. *)
let generate ~path ~seconds ~frames ~goldens ~order =
  let conns =
    Array.init 2 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Unix.set_nonblock fd;
        {
          fd;
          obuf = Bytes.create 65536;
          olen = 0;
          ooff = 0;
          rbuf = Bytes.create 65536;
          rlen = 0;
          pending = Queue.create ();
        })
  in
  let ev = Evloop.create () in
  Array.iter (fun c -> Evloop.add ev c.fd ~read:true ~write:false) conns;
  let cap = ref (1 lsl 16) in
  let sent_at = ref (Array.make !cap nan) and done_at = ref (Array.make !cap nan) in
  let closed = ref false in
  let started = now () in
  let t_end = started +. seconds in
  let k = ref 0 in
  let send c ~at =
    if !k = !cap then begin
      let grow a = Array.append !a (Array.make !cap nan) in
      sent_at := grow sent_at;
      done_at := grow done_at;
      cap := 2 * !cap
    end;
    !sent_at.(!k) <- at;
    append c frames.(order.(!k mod Array.length order));
    Queue.push !k c.pending;
    flush_out c;
    incr k
  in
  let on_readable c =
    let continue = ref true in
    while !continue do
      if Bytes.length c.rbuf - c.rlen < 4096 then begin
        let fresh = Bytes.create (2 * Bytes.length c.rbuf) in
        Bytes.blit c.rbuf 0 fresh 0 c.rlen;
        c.rbuf <- fresh
      end;
      match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
      | 0 ->
          closed := true;
          continue := false
      | got ->
          c.rlen <- c.rlen + got;
          let t = now () in
          let off = ref 0 in
          let rec frames_in () =
            if c.rlen - !off >= Frame.header_bytes then begin
              let len = Int32.to_int (Bytes.get_int32_be c.rbuf !off) in
              if c.rlen - !off >= Frame.header_bytes + len then begin
                (match Queue.take_opt c.pending with
                | None -> miss "serve-pipelined: unsolicited reply"
                | Some j ->
                    let golden = goldens.(order.(j mod Array.length order)) in
                    if not (len = String.length golden && equal_at c.rbuf (!off + Frame.header_bytes) golden)
                    then miss "serve-pipelined: golden mismatch";
                    !done_at.(j) <- t;
                    if t < t_end then send c ~at:t);
                off := !off + Frame.header_bytes + len;
                frames_in ()
              end
            end
          in
          frames_in ();
          Bytes.blit c.rbuf !off c.rbuf 0 (c.rlen - !off);
          c.rlen <- c.rlen - !off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
          closed := true;
          continue := false
    done
  in
  let by_fd fd = if fd = conns.(0).fd then conns.(0) else conns.(1) in
  let poll timeout_ms =
    Array.iter (fun c -> Evloop.modify ev c.fd ~read:true ~write:(c.olen > c.ooff)) conns;
    ignore
      (Evloop.wait ev ~timeout_ms ~f:(fun fd ~readable ~writable ~error ->
           let c = by_fd fd in
           if writable then flush_out c;
           if readable || error then on_readable c))
  in
  let t = now () in
  Array.iter (fun c -> for _ = 1 to pipeline_depth do send c ~at:t done) conns;
  while now () < t_end && not !closed do
    poll 10
  done;
  let deadline = now () +. 5.0 in
  while
    (not !closed) && Array.exists (fun c -> not (Queue.is_empty c.pending)) conns && now () < deadline
  do
    poll 10
  done;
  let unanswered = Array.fold_left (fun acc c -> acc + Queue.length c.pending) 0 conns in
  if unanswered > 0 then miss "serve-pipelined: %d requests unanswered" unanswered;
  Array.iter (fun c -> Unix.close c.fd) conns;
  attempted := !attempted + !k;
  { sent = !k; sent_at = !sent_at; done_at = !done_at; started }

(* Pipelined load against a forked event-loop server over the 100 KB
   document, replaying the stateless requests of one in-process pass of
   the xmark mix plus the aggregates, in their captured proportions.
   No client is in the loop: this is server and event-loop capacity,
   and a request's latency is its wait behind the others in flight
   plus its own service. *)
let serve_pipelined opts sizes =
  with_socket_server opts sizes (fun doc db child ->
    (* capture: one in-process pass, goldens from the same filter logic *)
    let filter =
      Server_filter.create ?numbers:(DB.numbers_table db) (DB.ring db) (DB.table db)
    in
    let log = ref [] in
    let client =
      client_of ~db
        (Transport.local ~handler:(fun req ->
             let resp = Server_filter.handler filter req in
             if stateless req resp then log := (req, resp) :: !log;
             resp))
    in
    List.iter
      (fun j -> ignore (run_job ~traced:false client j))
      (jobs_of doc three_configs (table1 @ table2)
      @ jobs_of doc [ (DB.Advanced, QC.Strict) ] aggregates);
    DB.close client;
    Server_filter.close filter;
    let captured = Array.of_list (List.rev !log) in
    let frames = Array.map (fun (req, _) -> frame_of (Protocol.encode_request req)) captured in
    let goldens = Array.map (fun (_, resp) -> Protocol.encode_response resp) captured in
    let order = Array.init (Array.length captured) Fun.id in
    shuffle (Xoshiro.create (Int64.of_int opts.input_seed)) order;
    let run seconds = generate ~path:child.path ~seconds ~frames ~goldens ~order in
    ignore (run (if opts.smoke then 0.05 else 0.3));
    let before = server_sample child in
    let seconds = Float.max opts.seconds 0.1 in
    let g = run seconds in
    let s = stats_diff (server_sample child) before in
    if s.open_cursors <> 0 then miss "leaked server cursors";
    (* the process under load is the server, not the generator *)
    emit "heap_peak_mb" "MB" (heap_mb s.top_heap_words);
    emit_median "ops_per_s" "1/s" (window_rates g ~seconds);
    let latencies = latencies_ms g in
    emit_latencies (Array.of_list latencies);
    emit "bytes_per_input_byte" "B/B" (storage_ratio db doc);
    let handler_ms = ratio s.busy (fi s.requests) *. 1000.0 in
    let n = List.length latencies in
    emit ~n "rpc.queue_ms" "ms" ((List.fold_left ( +. ) 0.0 latencies /. fi (max 1 n)) -. handler_ms);
    emit_server_ops s ~units:s.requests;
    emit "store.reopen_ms" "ms" (child.reopen_s *. 1000.0))

(* ------------------------------------------------------------------ *)
(* Workload: ingest-durable                                           *)
(* ------------------------------------------------------------------ *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* The store's write path: real encoded rows replayed (with shifted
   pre/post/parent numbers) into a durable page file — a WAL fsync on
   every insert and an explicit flush (checkpoint) every 512 rows —
   then closed, reopened and read back.  Rounds of a fixed row count
   repeat until the time is spent, so memory does not grow with the
   speed of the disk. *)
let ingest_durable opts sizes =
  let flush_every = 512 in
  let doc, base, dir =
    repeated_setup sizes
      ~teardown:(fun (_, _, dir) -> remove_tree dir)
      (fun () ->
        let doc, generate_s = timed (fun () -> xmark sizes.ingest_bytes) in
        let base, encode_s =
          timed (fun () ->
              let db = encode opts doc in
              let rows = ref [] in
              Node_table.iter (DB.table db) ~f:(fun r -> rows := r :: !rows);
              DB.close db;
              Array.of_list (List.rev !rows))
        in
        ((doc, base, temp_dir "perfbench-ingest"), [ ("generate_s", generate_s); ("encode_s", encode_s) ]))
  in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let stride = Array.fold_left (fun acc r -> max acc (max r.Page.pre r.Page.post)) 0 base in
      let row_at i =
        let r = base.(i mod Array.length base) in
        let off = i / Array.length base * stride in
        {
          r with
          Page.pre = r.Page.pre + off;
          post = r.Page.post + off;
          parent = (if r.Page.parent = 0 then 0 else r.Page.parent + off);
        }
      in
      let rows = sizes.ingest_blocks * flush_every in
      (* per-round percentiles only: memory stays flat however many
         rounds the time allows *)
      let pct = Hashtbl.create 8 in
      let record name v = Hashtbl.replace pct name (v :: Option.value (Hashtbl.find_opt pct name) ~default:[]) in
      let us = Array.make rows 0.0 in
      let flushes = ref [] and blocks = ref [] and reopens = ref [] in
      let wal_bytes = ref 0 and stored = ref 0 in
      let t_start = now () in
      let round = ref 0 in
      while !round = 0 || now () -. t_start < opts.seconds do
        let path = Filename.concat dir (Printf.sprintf "ingest-%d.db" !round) in
        let table = Node_table.create_file ~durable:true path in
        let block_start = ref (now ()) in
        for i = 0 to rows - 1 do
          let (), dt = timed (fun () -> Node_table.insert table (row_at i)) in
          us.(i) <- dt *. 1e6;
          if (i + 1) mod flush_every = 0 then begin
            wal_bytes := !wal_bytes + file_size (path ^ ".wal");
            let (), ft = timed (fun () -> Node_table.flush table) in
            flushes := (ft *. 1000.0) :: !flushes;
            let t = now () in
            blocks := (fi flush_every /. (t -. !block_start)) :: !blocks;
            block_start := t
          end
        done;
        attempted := !attempted + rows;
        Array.sort Float.compare us;
        List.iter (fun p -> record p (percentile us p)) [ 0.5; 0.9; 0.99 ];
        Node_table.close table;
        let reopened, reopen_s = timed (fun () -> must "reopen" (Node_table.open_file path)) in
        reopens := (reopen_s *. 1000.0) :: !reopens;
        (* golden: every row reads back as written *)
        if Node_table.row_count reopened <> rows then
          miss "ingest: %d rows reopened, %d written" (Node_table.row_count reopened) rows;
        for i = 0 to rows - 1 do
          let want = row_at i in
          match Node_table.find_by_pre reopened want.Page.pre with
          | Some got when got = want -> ()
          | _ -> miss "ingest: row %d differs after reopen" want.Page.pre
        done;
        stored := Node_table.data_bytes reopened + Node_table.index_bytes reopened;
        Node_table.close reopened;
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; path ^ ".wal" ];
        incr round
      done;
      let total = !round * rows in
      let input = fi (input_bytes doc) *. fi rows /. fi (Array.length base) in
      let at p = median (Hashtbl.find pct p) in
      emit_median "ops_per_s" "1/s" !blocks;
      List.iter
        (fun (name, p) -> emit ~n:total name "ms" (at p /. 1000.0))
        [ ("lat_p50_ms", 0.5); ("lat_p90_ms", 0.9); ("lat_p99_ms", 0.99) ];
      emit "bytes_per_input_byte" "B/B" (fi !stored /. input);
      emit ~n:total "store.insert_us_p50" "us" (at 0.5);
      emit ~n:total "store.insert_us_p99" "us" (at 0.99);
      emit ~n:(List.length !flushes) "store.flush_ms_p50" "ms" (percentile (sorted !flushes) 0.5);
      emit ~n:total "store.wal_bytes_per_row" "B" (fi !wal_bytes /. fi total);
      emit ~n:rows "store.bytes_per_row" "B" (fi !stored /. fi rows);
      emit_median "store.reopen_ms" "ms" !reopens)

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric, with its unit.  A workload that does not
   exercise a layer reports it as 0 in a traced run, so every run
   carries the same names (BENCHMARK.json lists the same set; the
   smoke check holds the two together). *)
let layer_metrics =
  [
    ("trace.wall_ms", "ms");
    ("client.self_ms", "ms");
    ("core.evaluations", "count");
    ("core.equality_tests", "count");
    ("core.nodes_examined", "count");
    ("core.useful_ratio", "ratio");
    ("client.share_cache.hit_ratio", "ratio");
    ("prg.regens", "count");
    ("prg.client_poly_us", "us");
    ("rpc.calls", "count");
    ("rpc.bytes", "B");
    ("rpc.codec_us", "us");
    ("rpc.roundtrip_us", "us");
    ("rpc.transport_us", "us");
    ("rpc.queue_ms", "ms");
    ("server.self_ms", "ms");
    ("server.handler_us", "us");
  ]
  @ List.concat_map
      (fun op -> [ ("server." ^ op ^ ".calls", "count"); ("server." ^ op ^ ".us", "us") ])
      (Array.to_list server_ops)
  @ [
      ("shard.router_self_ms", "ms");
      ("shard.member_ms", "ms");
      ("shard.member_calls", "count");
      ("shard.fanout", "count");
      ("store.insert_us_p50", "us");
      ("store.insert_us_p99", "us");
      ("store.flush_ms_p50", "ms");
      ("store.wal_bytes_per_row", "B");
      ("store.bytes_per_row", "B");
      ("store.reopen_ms", "ms");
      ("setup.generate_s", "s");
      ("setup.encode_s", "s");
      ("setup.split_s", "s");
      ("setup.spawn_s", "s");
      ("trace.overhead_pct", "%");
    ]

let run_workload opts name =
  (* One CPU for the workload and every process it forks: a round trip
     then hands the CPU from client to server directly, and nothing
     migrates.  On a virtual machine a cross-CPU wake-up costs more,
     and varies far more between runs, than much of the work measured. *)
  pin_one_cpu ();
  let sizes = sizes_of opts in
  (match name with
  | "xmark-cold" -> xmark_cold opts sizes
  | "xmark-socket" -> xmark_socket opts sizes
  | "shard-agg" -> shard_agg opts sizes
  | "serve-pipelined" -> serve_pipelined opts sizes
  | "ingest-durable" -> ingest_durable opts sizes
  | other -> failwith ("unknown workload " ^ other));
  if not (List.exists (fun r -> r.metric = "heap_peak_mb") !rows) then
    emit "heap_peak_mb" "MB" (heap_mb (Gc.quick_stat ()).Gc.top_heap_words);
  if opts.trace then
    List.iter
      (fun (metric, unit_) ->
        if not (List.exists (fun r -> r.metric = metric) !rows) then emit ~n:0 metric unit_ 0.0)
      layer_metrics;
  Option.iter write_spans (if opts.trace then opts.spans else None)

(* Run one workload in a forked child; its rows and counters come back
   over a pipe. *)
let run_forked opts name =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match run_workload opts name with
        | () -> 0
        | exception e ->
            miss "%s aborted: %s" name (Printexc.to_string e);
            1
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (List.rev !rows, !attempted, !failed) [];
      close_out oc;
      flush stdout;
      flush stderr;
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result = try Some (Marshal.from_channel ic : row list * int * int) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with Some res -> res | None -> ([], 1, 1))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let row_json ~experiment ~config ~commit r =
  let q1, q3 =
    match r.quart with
    | Some (a, b) -> (json_float a, json_float b)
    | None -> ("null", "null")
  in
  Printf.sprintf
    "{\"experiment\": %s, \"layer\": %s, \"metric\": %s, \"unit\": %s, \"value\": %s, \"n\": \
     %d, \"q1\": %s, \"q3\": %s, \"config\": %s, \"commit\": %s}"
    (json_string experiment) (json_string (layer_of r.metric)) (json_string r.metric)
    (json_string r.unit_) (json_float r.value) r.n q1 q3 (json_string config) (json_string commit)

let print_rows name rows =
  printf "\n%s\n%s\n" name (String.make (String.length name) '=');
  printf "%-34s %14s %-6s %8s %14s %14s\n" "metric" "value" "unit" "n" "q1" "q3";
  List.iter
    (fun r ->
      let q1, q3 =
        match r.quart with
        | Some (a, b) -> (Printf.sprintf "%.6g" a, Printf.sprintf "%.6g" b)
        | None -> ("-", "-")
      in
      printf "%-34s %14.6g %-6s %8d %14s %14s\n" r.metric r.value r.unit_ r.n q1 q3)
    rows

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) opts.spans;
  let config =
    Printf.sprintf "seed=%d seconds=%g trace=%b smoke=%b" opts.input_seed opts.seconds opts.trace
      opts.smoke
  in
  let results =
    List.map
      (fun name ->
        let rows, attempted, failed = run_forked opts name in
        let rows =
          rows
          @ [
              { metric = "attempted"; unit_ = "count"; value = fi attempted; n = 1; quart = None };
              { metric = "failed"; unit_ = "count"; value = fi failed; n = 1; quart = None };
              {
                metric = "error_rate";
                unit_ = "ratio";
                value = ratio (fi failed) (fi (max 1 attempted));
                n = attempted;
                quart = None;
              };
            ]
        in
        print_rows name rows;
        (name, rows, failed))
      opts.workloads
  in
  Option.iter
    (fun path ->
      let lines =
        List.concat_map
          (fun (name, rows, _) ->
            List.map (row_json ~experiment:name ~config ~commit:opts.commit) rows)
          results
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc ("[\n  " ^ String.concat ",\n  " lines ^ "\n]\n")))
    opts.json;
  let failures = List.fold_left (fun acc (_, _, f) -> acc + f) 0 results in
  if failures > 0 then begin
    Printf.eprintf "perf: %d failed operations\n" failures;
    exit 1
  end
