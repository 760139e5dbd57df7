(* The paper's evaluation claims (§4, §6) as tier-1 checks over one
   fixed generated document.  Only counts are asserted, never times:
   the counters are deterministic, so each figure's numbers are pinned
   exactly, and each qualitative claim is checked from those counts.
   bench/main.exe prints the same figures (over larger documents) from
   the same query lists. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Metrics = Secshare_core.Metrics
module Generate = Secshare_xmark.Generate
module Paper_queries = Secshare_xmark.Paper_queries
module Node_table = Secshare_store.Node_table

let check = Alcotest.check

(* 3 306 nodes, encoded at p = 83 with the default map *)
let db =
  lazy
    (let doc = Generate.generate_bytes ~seed:20050905L ~target_bytes:200_000 () in
     let config = { DB.default_config with seed = Some Test_support.test_seed } in
     match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e)

let run engine strictness q =
  Test_support.must_query ~engine ~strictness (Lazy.force db) q

(* (evaluations, nodes examined, equality tests) of one query *)
let counts (r : DB.query_result) =
  let m = r.DB.metrics in
  (m.Metrics.evaluations, m.Metrics.nodes_examined, m.Metrics.equality_tests)

let evaluations r =
  let e, _, _ = counts r in
  e

let size r = List.length (DB.result_nodes r)
let ratio a b = float_of_int a /. float_of_int b

(* --- Table 1 / figure 5: containment evaluations vs query length --- *)

(* (simple, advanced) per table-1 query, lengths 1 to 9 *)
let fig5_pinned =
  [
    (1, 1); (7, 8); (13, 16); (27, 33); (139, 162); (153, 97); (156, 112); (159, 130); (164, 108);
  ]

let fig5 =
  lazy
    (List.map
       (fun q ->
         ( evaluations (run DB.Simple QC.Non_strict q),
           evaluations (run DB.Advanced QC.Non_strict q) ))
       Paper_queries.table1)

let test_fig5_pinned () =
  check
    Alcotest.(list (pair int int))
    "evaluations (simple, advanced)" fig5_pinned (Lazy.force fig5)

(* "comparable … differ by at most a constant factor": on chain
   queries the look-ahead has no dead branches to kill *)
let test_fig5_constant_factor () =
  List.iter2
    (fun q (simple, advanced) ->
      let r = ratio advanced simple in
      if r < 0.5 || r > 2.0 then
        Alcotest.failf "%s: advanced/simple = %.2f, outside [0.5, 2]" q r)
    Paper_queries.table1 (Lazy.force fig5)

(* --- Table 2 / figure 6: equality vs containment, both engines --- *)

let configs =
  [
    (DB.Simple, QC.Strict);
    (DB.Simple, QC.Non_strict);
    (DB.Advanced, QC.Strict);
    (DB.Advanced, QC.Non_strict);
  ]

(* per table-2 query, in [configs] order *)
let fig6_pinned =
  [
    [ (0, 3320, 3320); (3326, 3326, 0); (45, 62, 17); (51, 51, 0) ];
    [ (0, 3533, 3533); (5018, 5018, 0); (157, 174, 17); (919, 919, 0) ];
    [ (0, 868, 868); (868, 868, 0); (586, 728, 142); (586, 586, 0) ];
    [ (0, 695, 695); (695, 695, 0); (622, 759, 137); (622, 622, 0) ];
    [ (0, 3538, 3538); (3817, 3817, 0); (825, 964, 139); (1104, 1104, 0) ];
  ]

let fig6 =
  lazy
    (List.map
       (fun q -> List.map (fun (engine, strictness) -> run engine strictness q) configs)
       Paper_queries.table2)

let test_fig6_pinned () =
  List.iter2
    (fun (q, pinned) results ->
      check
        Alcotest.(list (triple int int int))
        (q ^ ": (evaluations, nodes examined, equality tests)")
        pinned (List.map counts results))
    (List.combine Paper_queries.table2 fig6_pinned)
    (Lazy.force fig6)

(* "for all queries the advanced algorithm outperforms the simple
   algorithm", in the count of the test each column runs: equality
   tests in the strict columns (each one reconstructs a node and its
   children; the simple engine then evaluates nothing), containment
   evaluations in the non-strict ones.  Both engines answer alike. *)
let test_fig6_advanced_wins () =
  List.iter2
    (fun q results ->
      match List.map (fun r -> (counts r, DB.result_nodes r)) results with
      | [
       ((_, _, eq_simple), strict_simple);
       ((ev_simple, _, _), loose_simple);
       ((_, _, eq_advanced), strict_advanced);
       ((ev_advanced, _, _), loose_advanced);
      ] ->
          if eq_advanced > eq_simple then
            Alcotest.failf "%s strict: %d equality tests on advanced, %d on simple" q
              eq_advanced eq_simple;
          if ev_advanced > ev_simple then
            Alcotest.failf "%s non-strict: %d evaluations on advanced, %d on simple" q
              ev_advanced ev_simple;
          check Alcotest.bool (q ^ ": engines agree, strict") true
            (strict_simple = strict_advanced);
          check Alcotest.bool (q ^ ": engines agree, non-strict") true
            (loose_simple = loose_advanced)
      | _ -> assert false)
    Paper_queries.table2 (Lazy.force fig6)

(* --- Figure 7: accuracy E/C of the containment test --- *)

(* (E, C) per table-2 query: strict and non-strict result sizes *)
let fig7_pinned = [ (14, 20); (14, 90); (47, 94); (58, 58); (58, 140) ]

let fig7 =
  lazy
    (List.map
       (function [ _; _; strict; loose ] -> (size strict, size loose) | _ -> assert false)
       (Lazy.force fig6))

let test_fig7_pinned () =
  check Alcotest.(list (pair int int)) "(E, C)" fig7_pinned (Lazy.force fig7)

(* "for absolute queries which do not contain //, the accuracy …
   reaches 100%", and it "drops for each // in the query": every
   query with k + 1 descendant steps is less accurate than every
   query with k. *)
let test_fig7_accuracy_drops () =
  let rows =
    List.map2
      (fun q (e, c) -> (Paper_queries.descendant_steps q, q, ratio e c))
      Paper_queries.table2 (Lazy.force fig7)
  in
  List.iter
    (fun (k, q, acc) ->
      if k = 0 && acc <> 1.0 then Alcotest.failf "%s: accuracy %.3f without //" q acc;
      List.iter
        (fun (k', q', acc') ->
          if k' = k + 1 && acc' >= acc then
            Alcotest.failf "%s (%d //) is no less accurate than %s (%d //)" q' k' q k)
        rows)
    rows

(* --- §4: one polynomial at p = 29 is "17 bytes" --- *)

(* 28 coefficients of 5 bits pack into 18 whole bytes (the paper
   rounds 17.5 down); every stored share at p = 29 is that long. *)
let test_polynomial_size_p29 () =
  let doc =
    Secshare_xml.Tree.(element "a" [ element "b" []; element "c" [ element "b" [] ] ])
  in
  let db = Test_support.db_of_tree ~p:29 doc in
  Node_table.iter (DB.table db) ~f:(fun row ->
      check Alcotest.int "share bytes" 18 (Bytes.length row.Secshare_store.Page.share));
  DB.close db

let () =
  Alcotest.run "paper"
    [
      ( "fig5",
        [
          Alcotest.test_case "evaluations pinned" `Quick test_fig5_pinned;
          Alcotest.test_case "engines within a constant factor" `Quick test_fig5_constant_factor;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "counters pinned" `Quick test_fig6_pinned;
          Alcotest.test_case "advanced wins on every query" `Quick test_fig6_advanced_wins;
        ] );
      ( "fig7",
        [
          Alcotest.test_case "E and C pinned" `Quick test_fig7_pinned;
          Alcotest.test_case "accuracy drops with each //" `Quick test_fig7_accuracy_drops;
        ] );
      ( "section 4",
        [ Alcotest.test_case "polynomial size at p = 29" `Quick test_polynomial_size_p29 ] );
    ]
