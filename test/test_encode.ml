module Mapping = Secshare_core.Mapping
module Encode = Secshare_core.Encode
module Share = Secshare_core.Share
module Ring = Secshare_poly.Ring
module Cyclic = Secshare_poly.Cyclic
module Codec = Secshare_poly.Codec
module Evals = Secshare_poly.Evals
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Tree = Secshare_xml.Tree
module Seed = Secshare_prg.Seed

let check = Alcotest.check
let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed = Seed.of_passphrase "encode-tests"

let mapping_of_string s =
  match Mapping.of_file_string s with Ok m -> m | Error e -> failwith e

(* --- mapping --- *)

let test_mapping_of_names () =
  match Mapping.of_names ~q:5 [ "a"; "b"; "c"; "b" ] with
  | Error e -> Alcotest.fail e
  | Ok m ->
      check Alcotest.int "size" 3 (Mapping.size m);
      check Alcotest.(option int) "a" (Some 1) (Mapping.value m "a");
      check Alcotest.(option int) "b" (Some 2) (Mapping.value m "b");
      check Alcotest.(option int) "c" (Some 3) (Mapping.value m "c");
      check Alcotest.(option string) "reverse" (Some "b") (Mapping.name_of m 2);
      check Alcotest.(option int) "missing" None (Mapping.value m "z")

let test_mapping_overflow () =
  match Mapping.of_names ~q:3 [ "a"; "b"; "c" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "3 names cannot fit in F_3 (only 2 nonzero values)"

let test_mapping_zero_never_used () =
  match Mapping.of_names ~q:83 (List.init 82 (fun i -> Printf.sprintf "t%d" i)) with
  | Error e -> Alcotest.fail e
  | Ok m ->
      List.iter
        (fun name ->
          match Mapping.value m name with
          | Some v -> if v = 0 then Alcotest.failf "%s mapped to zero" name
          | None -> Alcotest.failf "%s unmapped" name)
        (Mapping.names m)

let test_mapping_file_roundtrip () =
  let m = mapping_of_string "q = 83\nsite = 1\nregions = 2\n# comment\ncity = 40\n" in
  check Alcotest.int "q" 83 (Mapping.field_order m);
  check Alcotest.(option int) "city" (Some 40) (Mapping.value m "city");
  let m' = mapping_of_string (Mapping.to_file_string m) in
  check Alcotest.bool "roundtrip" true (Mapping.equal m m')

let test_mapping_file_errors () =
  let bad = [ "site = 1"; "q = 83\nsite = 0"; "q = 83\nsite = 83"; "q = 83\na = 1\na = 2";
              "q = 83\na = 1\nb = 1"; "q = 83\nnovalue"; "q = 1\na = 1"; "" ] in
  List.iter
    (fun src ->
      match Mapping.of_file_string src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" src)
    bad

let test_mapping_trie_alphabet () =
  match Mapping.of_names ~q:83 [ "name"; "person" ] with
  | Error e -> Alcotest.fail e
  | Ok m -> (
      match Mapping.with_trie_alphabet m with
      | Error e -> Alcotest.fail e
      | Ok m ->
          check Alcotest.int "2 tags + 26 letters + marker" 29 (Mapping.size m);
          check Alcotest.bool "a mapped" true (Mapping.value m "a" <> None);
          check Alcotest.bool "marker mapped" true (Mapping.value m "$" <> None))

let test_mapping_dtd () =
  let dtd =
    match Secshare_xml.Dtd.parse Secshare_xml.Dtd.xmark with Ok d -> d | Error e -> failwith e
  in
  match Mapping.of_dtd ~q:83 dtd with
  | Error e -> Alcotest.fail e
  | Ok m ->
      check Alcotest.int "77 mapped" 77 (Mapping.size m);
      check Alcotest.(option int) "site first" (Some 1) (Mapping.value m "site")

(* --- figure 1 golden test --- *)

(* The tree of figure 1(a): root a { b { c }, c { a, b } } with map
   a=2, b=1, c=3 over F_5, reduced in F_5[x]/(x^4 - 1).

   Note: figure 1(d) of the paper lists the root as 2x^3+3x^2+2x+3,
   which is 2 * (x^3+4x^2+x+4) — a non-monic scaling of the true monic
   product (x-1)^2 (x-2)^2 (x-3)^2 mod (x^4-1) (the client and server
   shares in figures 1(e)/(f) sum to the same scaled value, so the
   figure is internally consistent; the root set — all that matters to
   the scheme — is unchanged).  We pin the monic values. *)
let fig1_expected =
  [
    (1, [| 4; 1; 4; 1 |]); (* root a: (x-1)^2(x-2)^2(x-3)^2, monic *)
    (2, [| 3; 1; 1; 0 |]); (* b { c }: (x-1)(x-3) = x^2+x+3 *)
    (3, [| 2; 1; 0; 0 |]); (* leaf c: x + 2 *)
    (4, [| 4; 1; 4; 1 |]); (* c { a, b }: (x-3)(x-2)(x-1) *)
    (5, [| 3; 1; 0; 0 |]); (* leaf a: x + 3 *)
    (6, [| 4; 1; 0; 0 |]); (* leaf b: x + 4 *)
  ]

let fig1_setup () =
  let ring = Ring.of_prime ~p:5 in
  let mapping = mapping_of_string "q = 5\na = 2\nb = 1\nc = 3\n" in
  let table = Node_table.create () in
  let stats =
    match
      Encode.encode_string ring ~mapping ~seed ~table "<a><b><c/></b><c><a/><b/></c></a>"
    with
    | Ok s -> s
    | Error e -> failwith (Encode.error_to_string e)
  in
  (ring, table, stats)

let test_fig1_polynomials () =
  let ring, table, stats = fig1_setup () in
  check Alcotest.int "6 nodes" 6 stats.Encode.nodes;
  List.iter
    (fun (pre, expected) ->
      match Node_table.find_by_pre table pre with
      | None -> Alcotest.failf "missing node %d" pre
      | Some row ->
          let server = Codec.unpack_evals ring row.Page.share in
          let full = Share.reconstruct ring ~seed ~pre ~server in
          check Alcotest.(array int)
            (Printf.sprintf "node %d" pre)
            expected
            (Cyclic.to_int_array (Evals.to_cyclic ring full)))
    fig1_expected

let test_fig1_structure () =
  let _, table, _ = fig1_setup () in
  let row pre = Option.get (Node_table.find_by_pre table pre) in
  (* pre/post/parent of the paper's numbering convention *)
  check Alcotest.int "root parent" 0 (row 1).Page.parent;
  check Alcotest.int "root post" 6 (row 1).Page.post;
  check Alcotest.int "b parent" 1 (row 2).Page.parent;
  check Alcotest.int "c post (first close)" 1 (row 3).Page.post;
  check Alcotest.int "second c parent" 1 (row 4).Page.parent;
  check Alcotest.int "leaf a parent" 4 (row 5).Page.parent

let test_fig1_share_hiding () =
  (* server shares alone are not the node polynomials: splitting with
     two different seeds yields different shares for identical input *)
  let ring = Ring.of_prime ~p:5 in
  let mapping = mapping_of_string "q = 5\na = 2\nb = 1\nc = 3\n" in
  let encode_with seed =
    let table = Node_table.create () in
    match Encode.encode_string ring ~mapping ~seed ~table "<a><b><c/></b><c><a/><b/></c></a>" with
    | Ok _ -> table
    | Error e -> failwith (Encode.error_to_string e)
  in
  let t1 = encode_with (Seed.of_passphrase "one") in
  let t2 = encode_with (Seed.of_passphrase "two") in
  let differs = ref false in
  for pre = 1 to 6 do
    let s1 = (Option.get (Node_table.find_by_pre t1 pre)).Page.share in
    let s2 = (Option.get (Node_table.find_by_pre t2 pre)).Page.share in
    if not (Bytes.equal s1 s2) then differs := true
  done;
  check Alcotest.bool "shares depend on the seed" true !differs

(* --- general encoding properties --- *)

let encode_tree_with ?trie tree =
  let ring = Ring.of_prime ~p:83 in
  let mapping =
    match Mapping.of_tree ~q:83 tree with
    | Ok m -> ( match trie with None -> m | Some _ -> Result.get_ok (Mapping.with_trie_alphabet m))
    | Error e -> failwith e
  in
  let table = Node_table.create () in
  match Encode.encode_tree ring ~mapping ~seed ~table ?trie tree with
  | Ok stats -> (ring, mapping, table, stats)
  | Error e -> failwith (Encode.error_to_string e)

(* Reconstructed node polynomial = monic product of the subtree's
   mapped values, for every node of random documents. *)
let encode_matches_spec tree =
  let ring, mapping, table, _ = encode_tree_with tree in
  let ok = ref true in
  let pre_counter = ref 0 in
  let rec walk node =
    match node with
    | Tree.Text _ -> []
    | Tree.Element { name; children; _ } ->
        incr pre_counter;
        let pre = !pre_counter in
        let child_values = List.concat_map walk children in
        let values = Mapping.value_exn mapping name :: child_values in
        let expected =
          Cyclic.of_dense ring (Secshare_poly.Dense.of_roots ring values)
        in
        let row = Option.get (Node_table.find_by_pre table pre) in
        let server = Codec.unpack_evals ring row.Page.share in
        let full = Share.reconstruct ring ~seed ~pre ~server in
        if not (Cyclic.equal (Evals.to_cyclic ring full) expected) then ok := false;
        values
  in
  ignore (walk tree);
  !ok

let encode_property_suite =
  [
    qtest ~count:60 "reconstructed polynomials match the spec" Test_support.gen_tree
      encode_matches_spec;
    qtest ~count:60 "row count = element count (no trie)" Test_support.gen_tree (fun tree ->
        let _, _, table, stats = encode_tree_with tree in
        Node_table.row_count table = Tree.element_count tree
        && stats.Encode.nodes = Tree.element_count tree);
    qtest ~count:30 "trie encoding rows = expanded tree elements" Test_support.gen_tree
      (fun tree ->
        let _, _, table, _ =
          encode_tree_with ~trie:Secshare_trie.Expand.Compressed tree
        in
        let expanded, _ = Secshare_trie.Expand.expand ~mode:Secshare_trie.Expand.Compressed tree in
        Node_table.row_count table = Tree.element_count expanded);
  ]

(* MD5 of the node table the encoder writes for a 20 KB ssdb_gen
   document (its default generator seed), pinned so a change to the
   pointwise node encoding ([Share.encode_node], [Share.product]) or to
   the client slot stream cannot move a single stored byte: at the
   paper's prime, an extension field and a field too large for byte
   tables.  Re-pinned once, when shares moved to the evaluation
   domain. *)
let pinned_table_digests =
  [
    ((83, 1), "22f92dd88d323bea9912467e7dd9bdd1");
    ((3, 4), "0b4629ca7821e50ebd7a0d7352b2f4ee");
    ((257, 1), "6d6883ff5f6d1cb4f0f5438a860fee8c");
  ]

let test_encoded_table_digests () =
  let tree =
    Secshare_xmark.Generate.generate_bytes ~seed:20050905L ~target_bytes:(20 * 1024) ()
  in
  List.iter
    (fun ((p, e), want) ->
      let ring = Ring.of_prime_power ~p ~e in
      let mapping = Result.get_ok (Mapping.of_tree ~q:ring.Ring.order tree) in
      let table = Node_table.create () in
      (match Encode.encode_tree ring ~mapping ~seed ~table tree with
      | Ok _ -> ()
      | Error err -> Alcotest.fail (Encode.error_to_string err));
      check Alcotest.string
        (Printf.sprintf "p = %d, e = %d" p e)
        want
        (Test_support.digest_tables [| table |]))
    pinned_table_digests

let test_encode_unmapped_tag () =
  let ring = Ring.of_prime ~p:83 in
  let mapping = mapping_of_string "q = 83\na = 1\n" in
  let table = Node_table.create () in
  match Encode.encode_string ring ~mapping ~seed ~table "<a><b/></a>" with
  | Error (Encode.Unmapped_name "b") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Encode.error_to_string e)
  | Ok _ -> Alcotest.fail "unmapped tag accepted"

let test_encode_malformed_xml () =
  let ring = Ring.of_prime ~p:83 in
  let mapping = mapping_of_string "q = 83\na = 1\n" in
  let table = Node_table.create () in
  match Encode.encode_string ring ~mapping ~seed ~table "<a><a>" with
  | Error (Encode.Xml_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Encode.error_to_string e)
  | Ok _ -> Alcotest.fail "malformed XML accepted"

let test_encode_share_sizes () =
  (* every stored share is exactly (q-1) * bits(q) bits, bit-packed *)
  let tree = Tree.element "a" [ Tree.element "b" []; Tree.element "c" [] ] in
  let _, _, table, _ = encode_tree_with tree in
  let expected = Codec.byte_length ~q:83 ~n:82 in
  Node_table.iter table ~f:(fun row ->
      check Alcotest.int "share bytes" expected (Bytes.length row.Page.share))

let test_encode_text_ignored_without_trie () =
  let tree = Tree.element "a" [ Tree.text "joan johnson" ] in
  let _, _, table, stats = encode_tree_with tree in
  check Alcotest.int "one row" 1 (Node_table.row_count table);
  check Alcotest.int "no trie nodes" 0 stats.Encode.trie_nodes

let test_encode_trie_nodes_searchable () =
  let tree = Tree.element "name" [ Tree.text "joan" ] in
  let ring, mapping, table, stats =
    encode_tree_with ~trie:Secshare_trie.Expand.Compressed tree
  in
  check Alcotest.int "1 element + 4 chars + marker" 6 stats.Encode.nodes;
  (* the root polynomial must contain the mapped value of each letter *)
  let root = Option.get (Node_table.root table) in
  let server = Codec.unpack_evals ring root.Page.share in
  let full = Share.reconstruct ring ~seed ~pre:root.Page.pre ~server in
  let at v = Evals.get full (Evals.slot ring v) in
  List.iter
    (fun letter ->
      let v = Option.get (Mapping.value mapping letter) in
      check Alcotest.int (Printf.sprintf "contains %s" letter) 0 (at v))
    [ "j"; "o"; "a"; "n"; "$" ];
  let unused = Option.get (Mapping.value mapping "z") in
  check Alcotest.bool "does not contain z" true (at unused <> 0)

(* The hiding property rests on server shares being uniform: for any
   fixed document, share coefficients across nodes must be close to
   uniformly distributed over F_q.  A crude frequency test (20%
   tolerance per value over ~16k draws for q=5). *)
let test_share_uniformity () =
  let ring = Ring.of_prime ~p:5 in
  let mapping = mapping_of_string "q = 5\na = 2\nb = 1\nc = 3\n" in
  let table = Node_table.create () in
  (* a deep chain of 200 nodes gives 200 shares x 4 coefficients *)
  let deep =
    let rec build n = if n = 0 then "<c/>" else "<a><b>" ^ build (n - 1) ^ "</b></a>" in
    build 100
  in
  (match Encode.encode_string ring ~mapping ~seed ~table deep with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Encode.error_to_string e));
  let counts = Array.make 5 0 in
  let total = ref 0 in
  Node_table.iter table ~f:(fun row ->
      let share = Codec.unpack ~q:5 ~n:4 row.Page.share in
      Array.iter
        (fun c ->
          counts.(c) <- counts.(c) + 1;
          incr total)
        share);
  Array.iteri
    (fun v n ->
      let expected = !total / 5 in
      if abs (n - expected) > expected / 4 then
        Alcotest.failf "share coefficient %d appears %d times (expected ~%d of %d)" v n
          expected !total)
    counts

(* Two documents with the same shape but different tags must yield
   share tables that are indistinguishable at the level of sizes and
   structure (the server's whole view). *)
let test_server_view_shape_only () =
  let encode_with xml =
    let ring = Ring.of_prime ~p:83 in
    let tree = Result.get_ok (Tree.of_string xml) in
    let mapping = Result.get_ok (Mapping.of_names ~q:83 [ "u"; "v"; "w"; "x"; "y"; "z" ]) in
    let table = Node_table.create () in
    (match Encode.encode_tree ring ~mapping ~seed ~table tree with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Encode.error_to_string e));
    let rows = ref [] in
    Node_table.iter table ~f:(fun row ->
        rows := (row.Page.pre, row.Page.post, row.Page.parent, Bytes.length row.Page.share) :: !rows);
    List.rev !rows
  in
  let a = encode_with "<u><v/><w><x/></w></u>" in
  let b = encode_with "<z><y/><x><u/></x></z>" in
  check
    Alcotest.(list (pair (pair int int) (pair int int)))
    "same structural view"
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) a)
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) b)

let test_encoder_reuse_rejected () =
  let ring = Ring.of_prime ~p:83 in
  let mapping = mapping_of_string "q = 83\na = 1\n" in
  let table = Node_table.create () in
  let encoder = Encode.create ring ~mapping ~seed ~table () in
  Encode.feed encoder (Secshare_xml.Sax.Start_element ("a", []));
  Encode.feed encoder (Secshare_xml.Sax.End_element "a");
  ignore (Encode.finish encoder);
  match Encode.feed encoder (Secshare_xml.Sax.Start_element ("a", [])) with
  | exception Encode.Encode_error (Encode.Xml_error _) -> ()
  | () -> Alcotest.fail "finished encoder accepted events"

let () =
  Alcotest.run "encode"
    [
      ( "mapping",
        [
          Alcotest.test_case "of_names" `Quick test_mapping_of_names;
          Alcotest.test_case "overflow" `Quick test_mapping_overflow;
          Alcotest.test_case "zero never assigned" `Quick test_mapping_zero_never_used;
          Alcotest.test_case "map file roundtrip" `Quick test_mapping_file_roundtrip;
          Alcotest.test_case "map file errors" `Quick test_mapping_file_errors;
          Alcotest.test_case "trie alphabet" `Quick test_mapping_trie_alphabet;
          Alcotest.test_case "from the XMark DTD" `Quick test_mapping_dtd;
        ] );
      ( "figure 1",
        [
          Alcotest.test_case "polynomials" `Quick test_fig1_polynomials;
          Alcotest.test_case "pre/post/parent" `Quick test_fig1_structure;
          Alcotest.test_case "shares depend on seed" `Quick test_fig1_share_hiding;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "unmapped tag" `Quick test_encode_unmapped_tag;
          Alcotest.test_case "malformed XML" `Quick test_encode_malformed_xml;
          Alcotest.test_case "share sizes" `Quick test_encode_share_sizes;
          Alcotest.test_case "text ignored without trie" `Quick
            test_encode_text_ignored_without_trie;
          Alcotest.test_case "trie letters searchable" `Quick test_encode_trie_nodes_searchable;
          Alcotest.test_case "finished encoder rejects events" `Quick
            test_encoder_reuse_rejected;
          Alcotest.test_case "share coefficients look uniform" `Quick test_share_uniformity;
          Alcotest.test_case "server view is shape only" `Quick test_server_view_shape_only;
          Alcotest.test_case "20 KB document tables pinned" `Quick
            test_encoded_table_digests;
        ]
        @ encode_property_suite );
    ]
