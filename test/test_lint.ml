(* ssdb_lint: every rule has a positive fixture (must fire) and a
   negative fixture (must stay silent), the suppression machinery is
   honoured, and — the check that keeps CI green — the real tree under
   lib/ bin/ test/ bench/ carries zero unsuppressed errors.

   The fixture corpus lives in test/lint_fixtures/, excluded from the
   dune build (the files are deliberately ill-typed), so the suite
   resolves it in the source tree by stripping the _build prefix from
   the test runner's working directory. *)

module Driver = Secshare_lint.Driver
module Finding = Secshare_lint.Finding

let repo_root =
  let cwd = Sys.getcwd () in
  let rec strip dir =
    if String.equal (Filename.basename dir) "_build" then Filename.dirname dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then cwd else strip parent
  in
  strip cwd

let fixtures_dir = Filename.concat repo_root "test/lint_fixtures"
let fixture name = Filename.concat fixtures_dir name
let report_of name = Driver.lint_paths [ fixture name ]
let rules (r : Driver.report) = List.map (fun f -> f.Finding.rule) r.Driver.findings
let texts (r : Driver.report) = List.map Finding.to_text r.Driver.findings

let count rule rs = List.length (List.filter (String.equal rule) rs)

let check_fires name rule expected () =
  let rs = rules (report_of name) in
  Alcotest.(check int) (name ^ ": " ^ rule) expected (count rule rs)

let check_silent name () =
  Alcotest.(check (list string)) (name ^ ": no findings") [] (texts (report_of name))

(* Every rule id the corpus must exercise end to end. *)
let all_rules =
  [
    "secret-flow/sink";
    "secret-flow/label";
    "secret-flow/agg-sink";
    "lock-order/inversion";
    "lock-order/undeclared";
    "banned/random";
    "banned/obj-magic";
    "banned/poly-compare";
    "banned/hashtbl-hash";
    "banned/unguarded-hashtbl";
    "banned/thread-in-rpc";
    "banned/thread-in-shard";
    "banned/kernel-alloc";
    "accounting/cursor-removal";
    "accounting/metrics-merge";
    "parse/error";
    "races/unguarded-access";
    "races/confinement-escape";
    "races/undeclared-root";
    "races/bad-decl";
    "races/unguarded-call";
    "lint/stale-suppression";
    "lint-coverage/lock-order-skip";
  ]

let corpus_covers_all_rules () =
  let r = Driver.lint_paths ~include_fixtures:true [ fixtures_dir ] in
  Alcotest.(check int) "corpus exits 1" 1 (Driver.exit_code r);
  let rs = rules r in
  List.iter
    (fun rule ->
      Alcotest.(check bool) ("corpus represents " ^ rule) true (List.mem rule rs))
    all_rules

let suppression_is_honoured () =
  let r = report_of "bad_suppressed.ml" in
  Alcotest.(check (list string)) "no unsuppressed findings" [] (texts r);
  Alcotest.(check int) "exit 0" 0 (Driver.exit_code r);
  Alcotest.(check int) "one suppressed" 1 (List.length r.Driver.suppressed);
  match r.Driver.suppressed with
  | [ s ] ->
      Alcotest.(check string)
        "suppressed rule" "secret-flow/sink" s.Driver.finding.Finding.rule;
      Alcotest.(check bool) "reason recorded" true (String.length s.Driver.reason > 0)
  | _ -> Alcotest.fail "expected exactly one suppressed finding"

let unused_allow_is_flagged () =
  (* good_secret_flow has no directives; a suppressed fixture's
     directive is used.  An unused one must surface in the report. *)
  let r = report_of "bad_suppressed.ml" in
  Alcotest.(check int) "no unused allows" 0 (List.length r.Driver.unused_allows)

let pass_selection () =
  (* --pass races: only the races pass runs, and stale-suppression
     hygiene is deferred to full runs *)
  let r = Driver.lint_paths ~passes:[ "races" ] [ fixture "bad_race_spawn.ml" ] in
  Alcotest.(check (list string))
    "races pass alone fires" [ "races/unguarded-access" ] (rules r);
  let r = Driver.lint_paths ~passes:[ "races" ] [ fixture "bad_banned.ml" ] in
  Alcotest.(check (list string)) "other passes stay off" [] (texts r);
  let r = Driver.lint_paths ~passes:[ "races" ] [ fixture "bad_stale_suppress.ml" ] in
  Alcotest.(check (list string)) "no stale-suppression on partial runs" [] (texts r)

let tree_is_clean () =
  let r =
    Driver.lint_paths
      (List.map (Filename.concat repo_root) [ "lib"; "bin"; "test"; "bench" ])
  in
  Alcotest.(check (list string)) "whole tree carries no findings" [] (texts r);
  Alcotest.(check int) "exit 0" 0 (Driver.exit_code r);
  Alcotest.(check bool) "scanned a real tree" true (r.Driver.files_scanned > 50)

(* Every (module, function) a secret-flow producer list names must be a
   [val] of that module's one .mli under lib/: an entry naming a
   function that does not exist tracks nothing. *)
let producers_exist () =
  let rec mlis dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then mlis path @ acc
        else if Filename.check_suffix entry ".mli" then path :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  let all = mlis (Filename.concat repo_root "lib") in
  let declares path f =
    let ic = open_in path in
    let rec scan () =
      match input_line ic with
      | line ->
          let line = String.trim line in
          let prefix = "val " ^ f in
          let n = String.length prefix in
          (String.length line > n
          && String.equal (String.sub line 0 n) prefix
          && (line.[n] = ' ' || line.[n] = ':'))
          || scan ()
      | exception End_of_file -> false
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  List.iter
    (fun (m, f) ->
      let file = String.uncapitalize_ascii m ^ ".mli" in
      match List.filter (fun p -> String.equal (Filename.basename p) file) all with
      | [ path ] ->
          Alcotest.(check bool) (Printf.sprintf "%s.%s is a val of %s" m f path) true
            (declares path f)
      | found ->
          Alcotest.failf "%s: expected one %s under lib/, found %d" m file
            (List.length found))
    Secshare_lint.Pass_secret_flow.(secret_producers @ agg_secret_producers)

let positive_cases =
  [
    ("bad_secret_flow.ml", "secret-flow/sink", 8);
    ("bad_secret_flow.ml", "secret-flow/label", 1);
    ("bad_agg_log.ml", "secret-flow/agg-sink", 3);
    ("bad_lock_order.ml", "lock-order/inversion", 2);
    ("bad_lock_order.ml", "lock-order/undeclared", 1);
    ("bad_banned.ml", "banned/random", 1);
    ("bad_banned.ml", "banned/obj-magic", 1);
    ("bad_banned.ml", "banned/poly-compare", 3);
    ("bad_banned.ml", "banned/hashtbl-hash", 2);
    ("bad_unguarded.ml", "banned/unguarded-hashtbl", 1);
    ("bad_thread_rpc.ml", "banned/thread-in-rpc", 1);
    ("bad_thread_shard.ml", "banned/thread-in-shard", 1);
    ("bad_thread_shard.ml", "banned/unguarded-hashtbl", 1);
    ("bad_kernel_alloc.ml", "banned/kernel-alloc", 3);
    ("bad_accounting.ml", "accounting/cursor-removal", 1);
    ("bad_accounting.ml", "accounting/metrics-merge", 1);
    ("bad_parse.ml", "parse/error", 1);
    ("bad_race_spawn.ml", "races/unguarded-access", 1);
    ("bad_race_asym.ml", "races/unguarded-access", 1);
    ("bad_race_confined.ml", "races/confinement-escape", 1);
    ("bad_race_undeclared.ml", "races/undeclared-root", 1);
    ("bad_race_baddecl.ml", "races/bad-decl", 1);
    ("bad_race_requires.ml", "races/unguarded-call", 1);
    ("bad_stale_suppress.ml", "lint/stale-suppression", 1);
    ("bad_lock_coverage.ml", "lint-coverage/lock-order-skip", 1);
  ]

let negative_cases =
  [
    "good_secret_flow.ml";
    "good_agg_log.ml";
    "good_lock_order.ml";
    "good_banned.ml";
    "good_unguarded.ml";
    "good_thread_rpc.ml";
    "good_thread_shard.ml";
    "good_kernel_alloc.ml";
    "good_accounting.ml";
    "good_race_guarded.ml";
    "good_race_atomic.ml";
    "good_race_confined.ml";
  ]

let () =
  Alcotest.run "lint"
    [
      ( "positive",
        List.map
          (fun (name, rule, n) ->
            Alcotest.test_case (name ^ " " ^ rule) `Quick (check_fires name rule n))
          positive_cases );
      ( "negative",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_silent name))
          negative_cases );
      ( "corpus",
        [
          Alcotest.test_case "all rules represented" `Quick corpus_covers_all_rules;
          Alcotest.test_case "suppression honoured" `Quick suppression_is_honoured;
          Alcotest.test_case "no unused allows" `Quick unused_allow_is_flagged;
          Alcotest.test_case "pass selection" `Quick pass_selection;
          Alcotest.test_case "secret producers are real vals" `Quick producers_exist;
        ] );
      ("tree", [ Alcotest.test_case "lib/bin/test/bench clean" `Quick tree_is_clean ]);
    ]
