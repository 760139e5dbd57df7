(* Tests for the observability subsystem (lib/obs) and its wiring:
   histogram bucket semantics and mergeability, registry exposition
   well-formedness, trace-id propagation across the transport's
   retry/reconnect machinery and across a real client/server split,
   the /metrics + /healthz endpoint, the JSONL trace sink, and the
   slow-query log's redaction guarantee. *)

module Obs = Secshare_obs
module Registry = Obs.Registry
module Histogram = Obs.Histogram
module Trace = Obs.Trace
module Span = Obs.Span
module Events = Obs.Events
module DB = Secshare_core.Database
module Tree = Secshare_xml.Tree
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Flaky = Test_support.Flaky

let must = function Ok v -> v | Error m -> Alcotest.fail m

(* --- histograms --------------------------------------------------- *)

let test_bucket_boundaries () =
  let h = Histogram.create ~bounds:[| 1.0; 2.0; 4.0 |] () in
  (* bounds are inclusive upper limits (the Prometheus [le]
     convention): 1.0 lands in the first bucket, 4.0 in the last
     bounded one, anything above in the overflow bucket *)
  List.iter (Histogram.observe h) [ 1.0; 1.5; 4.0; 9.0 ];
  Alcotest.(check (array int)) "per-bucket counts" [| 1; 1; 1; 1 |] (Histogram.counts h);
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 15.5 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "max is exact" 9.0 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "p50 is its bucket's bound" 2.0 (Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9))
    "overflow quantile is the exact max" 9.0 (Histogram.quantile h 0.99);
  let empty = Histogram.create ~bounds:[| 1.0 |] () in
  Alcotest.(check (float 1e-9)) "empty quantile" 0.0 (Histogram.p50 empty);
  (match Histogram.create ~bounds:[| 2.0; 1.0 |] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "descending bounds accepted");
  match Histogram.merge ~into:h (Histogram.create ~bounds:[| 1.0 |] ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "merge across layouts accepted"

let hist_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) xs;
  h

let hist_key h =
  (Histogram.counts h, Histogram.count h, Histogram.max_value h, Histogram.sum h)

let gen_samples =
  QCheck2.Gen.(small_list (map (fun i -> float_of_int i /. 7.0) (int_bound 100_000)))

let merge_associative =
  QCheck2.Test.make ~count:200 ~name:"histogram merge is associative"
    QCheck2.Gen.(triple gen_samples gen_samples gen_samples)
    (fun (a, b, c) ->
      let left =
        let ab = hist_of a in
        Histogram.merge ~into:ab (hist_of b);
        Histogram.merge ~into:ab (hist_of c);
        ab
      in
      let right =
        let bc = hist_of b in
        Histogram.merge ~into:bc (hist_of c);
        let h = hist_of a in
        Histogram.merge ~into:h bc;
        h
      in
      let flat = hist_of (a @ b @ c) in
      let close x y = Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x) in
      let eq (counts1, n1, max1, sum1) (counts2, n2, max2, sum2) =
        counts1 = counts2 && n1 = n2 && close max1 max2 && close sum1 sum2
      in
      eq (hist_key left) (hist_key right) && eq (hist_key left) (hist_key flat))

(* --- registry exposition ------------------------------------------ *)

let test_render_wellformed () =
  let r = Registry.create () in
  let c =
    Registry.counter ~registry:r ~help:"Requests handled."
      ~labels:[ ("op", "scan\"1\nx\\y") ]
      "t_requests_total"
  in
  Registry.inc ~by:3 c;
  let g = Registry.gauge ~registry:r ~help:"Open things." "t_open" in
  Registry.gauge_set g 5;
  let h = Registry.histogram ~registry:r ~help:"Latency." "t_seconds" in
  Histogram.observe h 0.01;
  let text = Registry.render r in
  let check_has what needle =
    Alcotest.(check bool) what true (Test_support.contains ~sub:needle text)
  in
  check_has "counter HELP" "# HELP t_requests_total Requests handled.";
  check_has "counter TYPE" "# TYPE t_requests_total counter";
  check_has "gauge TYPE" "# TYPE t_open gauge";
  check_has "histogram TYPE" "# TYPE t_seconds histogram";
  (* label values escape backslash, quote and newline *)
  check_has "label escaping" "op=\"scan\\\"1\\nx\\\\y\"";
  check_has "counter sample" "} 3";
  check_has "+Inf bucket" "t_seconds_bucket{le=\"+Inf\"} 1";
  check_has "histogram sum" "t_seconds_sum";
  check_has "histogram count" "t_seconds_count 1";
  (* every non-comment line is "name_or_labels SP value" with a
     numeric value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.fail ("no sample value: " ^ line)
        | Some i -> (
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some _ -> ()
            | None -> Alcotest.fail ("non-numeric sample value: " ^ line)))
    (String.split_on_char '\n' text)

let test_counter_and_gauge_values () =
  let r = Registry.create () in
  let c = Registry.counter ~registry:r "t_c" in
  Registry.inc c;
  Registry.inc ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (Registry.counter_value c);
  let c' = Registry.counter ~registry:r "t_c" in
  Alcotest.(check int) "same family, same child" 42 (Registry.counter_value c');
  let g = Registry.gauge ~registry:r "t_g" in
  Registry.gauge_set g 10;
  Registry.gauge_add g (-3);
  Alcotest.(check int) "gauge arithmetic" 7 (Registry.gauge_value g)

(* A refused query's work still reaches the process registry: strict
   //a over a full map (four names at p = 5) divides by a zero child
   product at the root, so each refusal adds one degenerate division. *)
let test_failed_query_counts () =
  let degenerate = Registry.counter "ssdb_client_degenerate_divisions_total" in
  let tree = must (Tree.of_string "<a><a/><b/><c/><d/></a>") in
  let db = Test_support.db_of_tree ~p:5 tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      List.iter
        (fun engine ->
          let before = Registry.counter_value degenerate in
          (match DB.query ~engine db "//a" with
          | Ok _ -> Alcotest.fail "strict //a answered on a full map"
          | Error _ -> ());
          Alcotest.(check int)
            "one degenerate division per refused query" (before + 1)
            (Registry.counter_value degenerate))
        [ DB.Simple; DB.Advanced ])

(* --- trace propagation -------------------------------------------- *)

let fast_policy =
  {
    Transport.call_timeout = Some 1.0;
    max_retries = 2;
    backoff_base = 0.02;
    backoff_max = 0.1;
    backoff_jitter = 0.5;
  }

let with_flaky ?handler plan f =
  let path = Filename.temp_file "ssdb-obs-flaky" ".sock" in
  Sys.remove path;
  let flaky = Flaky.start ?handler ~plan path in
  Fun.protect ~finally:(fun () -> Flaky.stop flaky) (fun () -> f flaky path)

let test_trace_id_survives_retry () =
  (* the first attempt dies before the reply; the retry must carry the
     same trace id over the re-established connection *)
  with_flaky
    (fun n -> if n = 1 then Some Flaky.Close_before_reply else None)
    (fun flaky path ->
      let t =
        match Transport.socket ~policy:fast_policy path with
        | Ok t -> t
        | Error e -> Alcotest.fail ("connect: " ^ e)
      in
      let tid = Trace.genid () in
      let response = Trace.with_ambient tid (fun () -> Transport.call t Protocol.Ping) in
      Transport.close t;
      (match response with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "expected Pong after retry");
      let ids = Flaky.trace_ids flaky in
      Alcotest.(check int) "server saw both attempts" 2 (List.length ids);
      List.iter (fun id -> Alcotest.(check int64) "same trace id" tid id) ids)

let test_untraced_calls_send_zero () =
  with_flaky
    (fun _ -> None)
    (fun flaky path ->
      let t =
        match Transport.socket ~policy:fast_policy path with
        | Ok t -> t
        | Error e -> Alcotest.fail ("connect: " ^ e)
      in
      ignore (Transport.call t Protocol.Ping);
      Transport.close t;
      Alcotest.(check (list int64)) "no ambient trace -> id 0" [ 0L ]
        (Flaky.trace_ids flaky))

let small_tree =
  Tree.element "alpha"
    [
      Tree.element "beta" [ Tree.element "gamma" [] ];
      Tree.element "beta" [];
      Tree.element "delta" [ Tree.element "beta" [] ];
    ]

let test_trace_joins_client_and_server () =
  (* the acceptance criterion: one query over a real socket produces
     client-side and server-side spans under a single trace id *)
  let db = Test_support.db_of_tree small_tree in
  let path = Filename.temp_file "ssdb-obs-e2e" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () ->
      Secshare_rpc.Server.stop server;
      DB.close db)
    (fun () ->
      let session =
        must (DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path ())
      in
      Fun.protect
        ~finally:(fun () -> DB.close session)
        (fun () ->
          Trace.clear_recent ();
          let r = must (DB.query session "/alpha/beta") in
          Alcotest.(check bool) "nonzero trace id" true (r.DB.trace_id <> 0L);
          let spans =
            List.filter
              (fun (s : Span.t) -> s.Span.trace_id = r.DB.trace_id)
              (Trace.recent ())
          in
          let has kind = List.exists (fun (s : Span.t) -> s.Span.kind = kind) spans in
          Alcotest.(check bool) "client-side spans recorded" true (has Span.Client);
          Alcotest.(check bool) "server-side spans joined the trace" true
            (has Span.Server);
          let root =
            List.exists
              (fun (s : Span.t) -> s.Span.name = "query" && s.Span.parent_id = None)
              spans
          in
          Alcotest.(check bool) "root query span" true root))

let test_trace_log_jsonl () =
  let file = Filename.temp_file "ssdb-obs-trace" ".jsonl" in
  Trace.set_log_file (Some file);
  let tid = Trace.genid () in
  Trace.with_ambient tid (fun () ->
      Trace.with_span ~kind:Span.Internal "unit-test-span" (fun () -> ()));
  Trace.set_log_file None;
  let ic = open_in file in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove file;
  Alcotest.(check bool) "sink wrote at least one line" true (lines <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool) "JSON object shape" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
      Alcotest.(check bool) "carries the trace id" true
        (Test_support.contains ~sub:(Span.trace_id_to_hex tid) line))
    lines

(* --- the metrics endpoint ----------------------------------------- *)

let http_get port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request = "GET " ^ target ^ " HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd request 0 (String.length request));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let test_metrics_endpoint_live () =
  (* scrape /metrics while queries are actually running; the scrape
     must be well-formed and expose the full ssdb_ metric surface *)
  let db = Test_support.db_of_tree small_tree in
  let path = Filename.temp_file "ssdb-obs-scrape" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let healthy = ref true in
  let http = Obs.Metrics_http.start ~port:0 ~healthy:(fun () -> !healthy) () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics_http.stop http;
      Secshare_rpc.Server.stop server;
      DB.close db)
    (fun () ->
      let stop_queries = ref false in
      let worker =
        Thread.create
          (fun () ->
            let session =
              must
                (DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db)
                   ~path ())
            in
            Fun.protect
              ~finally:(fun () -> DB.close session)
              (fun () ->
                while not !stop_queries do
                  ignore (must (DB.query session "//beta"))
                done))
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          stop_queries := true;
          Thread.join worker)
        (fun () ->
          let port = Obs.Metrics_http.port http in
          let body = http_get port "/metrics" in
          Alcotest.(check bool) "200" true (Test_support.contains ~sub:"200" body);
          let type_lines =
            List.filter
              (fun l ->
                String.length l > 12 && String.sub l 0 12 = "# TYPE ssdb_")
              (String.split_on_char '\n' body)
          in
          Alcotest.(check bool)
            (Printf.sprintf "at least 12 ssdb_ families (got %d)"
               (List.length type_lines))
            true
            (List.length type_lines >= 12);
          let health = http_get port "/healthz" in
          Alcotest.(check bool) "healthy" true (Test_support.contains ~sub:"ok" health);
          healthy := false;
          let drained = http_get port "/healthz" in
          Alcotest.(check bool) "503 while draining" true
            (Test_support.contains ~sub:"503" drained);
          Alcotest.(check bool) "draining body" true
            (Test_support.contains ~sub:"draining" drained)))

let test_metrics_handler_reaping () =
  (* a long-lived endpoint must not accumulate one dead Thread.t per
     scrape: handlers self-remove on completion, so after a burst of
     scrapes the tracked-handler count settles back to zero *)
  let http = Obs.Metrics_http.start ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics_http.stop http)
    (fun () ->
      let port = Obs.Metrics_http.port http in
      let scrapes = 50 in
      for _ = 1 to scrapes do
        let body = http_get port "/metrics" in
        Alcotest.(check bool) "scrape ok" true (Test_support.contains ~sub:"200" body)
      done;
      (* each handler reaps itself just after writing its response; give
         the last few a moment to get there *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec settle () =
        let pending = Obs.Metrics_http.pending_handlers http in
        if pending = 0 then 0
        else if Unix.gettimeofday () > deadline then pending
        else begin
          Thread.yield ();
          Unix.sleepf 0.01;
          settle ()
        end
      in
      let remaining = settle () in
      Alcotest.(check int)
        (Printf.sprintf "handlers reaped after %d scrapes" scrapes)
        0 remaining)

(* --- slow-query log redaction ------------------------------------- *)

let test_slow_query_redaction () =
  (* with a zero threshold every query is "slow"; the logged line must
     carry only trace/opcode/count/duration fields — never tag names
     or anything derived from shares *)
  let captured = ref [] in
  let previous_level = Events.level () in
  Events.set_level Events.Info;
  Events.set_sink (Some (fun _level message -> captured := message :: !captured));
  Fun.protect
    ~finally:(fun () ->
      Events.set_sink None;
      Events.set_level previous_level)
    (fun () ->
      let config =
        {
          DB.default_config with
          seed = Some Test_support.test_seed;
          mapping = `From_document;
          client = { DB.default_client_config with slow_query_ms = Some 0.0 };
        }
      in
      let db = must (DB.create_tree ~config small_tree) in
      Fun.protect
        ~finally:(fun () -> DB.close db)
        (fun () ->
          ignore (must (DB.query db "/alpha/beta"));
          ignore (must (DB.query db "//gamma"))));
  let slow_lines = List.filter (Test_support.contains ~sub:"slow-query") !captured in
  Alcotest.(check bool) "slow-query lines were emitted" true (slow_lines <> []);
  List.iter
    (fun line ->
      List.iter
        (fun tag ->
          Alcotest.(check bool) ("no tag name leaks: " ^ tag) false
            (Test_support.contains ~sub:tag line))
        Test_support.small_tags;
      List.iter
        (fun field ->
          Alcotest.(check bool) ("has " ^ field) true
            (Test_support.contains ~sub:field line))
        [ "trace="; "ops="; "batches="; "rows="; "bytes="; "duration_ms="; "reason=" ])
    slow_lines

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          QCheck_alcotest.to_alcotest merge_associative;
        ] );
      ( "registry",
        [
          Alcotest.test_case "render well-formed" `Quick test_render_wellformed;
          Alcotest.test_case "counter and gauge values" `Quick
            test_counter_and_gauge_values;
          Alcotest.test_case "a failed query counts" `Quick test_failed_query_counts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "id survives retry/reconnect" `Quick
            test_trace_id_survives_retry;
          Alcotest.test_case "untraced calls send zero" `Quick
            test_untraced_calls_send_zero;
          Alcotest.test_case "client and server spans join" `Quick
            test_trace_joins_client_and_server;
          Alcotest.test_case "JSONL sink" `Quick test_trace_log_jsonl;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "scrape while serving" `Quick test_metrics_endpoint_live;
          Alcotest.test_case "handler threads are reaped" `Quick
            test_metrics_handler_reaping;
        ] );
      ( "slow-query",
        [ Alcotest.test_case "redaction" `Quick test_slow_query_redaction ] );
    ]
