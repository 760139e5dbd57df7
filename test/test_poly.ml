module Ring = Secshare_poly.Ring
module Dense = Secshare_poly.Dense
module Cyclic = Secshare_poly.Cyclic
module Codec = Secshare_poly.Codec
module Evals = Secshare_poly.Evals
module Flat = Secshare_poly.Flat

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let r5 = Ring.of_prime ~p:5
let r83 = Ring.of_prime ~p:83
let r9 = Ring.of_prime_power ~p:3 ~e:2
let r81 = Ring.of_prime_power ~p:3 ~e:4
let r257 = Ring.of_prime ~p:257

let gen_dense ring =
  let open QCheck2.Gen in
  let* degree = int_range (-1) 8 in
  if degree < 0 then return Dense.zero
  else
    let* coeffs = array_repeat (degree + 1) (int_range 0 (ring.Ring.order - 1)) in
    return (Dense.of_coeffs ring coeffs)

let gen_cyclic ring =
  let open QCheck2.Gen in
  let* coeffs = array_repeat ring.Ring.n (int_range 0 (ring.Ring.order - 1)) in
  return (Cyclic.of_int_array ring coeffs)

let gen_point ring = QCheck2.Gen.int_range 1 (ring.Ring.order - 1)
let dense_testable = Alcotest.testable Dense.pp Dense.equal

(* --- dense --- *)

let dense_suite ring name =
  let gp = gen_dense ring and gpt = gen_point ring in
  [
    qtest (name ^ ": add commutative") (QCheck2.Gen.pair gp gp) (fun (a, b) ->
        Dense.equal (Dense.add ring a b) (Dense.add ring b a));
    qtest (name ^ ": mul commutative") (QCheck2.Gen.pair gp gp) (fun (a, b) ->
        Dense.equal (Dense.mul ring a b) (Dense.mul ring b a));
    qtest (name ^ ": mul associative") (QCheck2.Gen.triple gp gp gp) (fun (a, b, c) ->
        Dense.equal (Dense.mul ring (Dense.mul ring a b) c)
          (Dense.mul ring a (Dense.mul ring b c)));
    qtest (name ^ ": distributive") (QCheck2.Gen.triple gp gp gp) (fun (a, b, c) ->
        Dense.equal (Dense.mul ring a (Dense.add ring b c))
          (Dense.add ring (Dense.mul ring a b) (Dense.mul ring a c)));
    qtest (name ^ ": eval is a ring hom (add)")
      (QCheck2.Gen.triple gp gp gpt)
      (fun (a, b, x) ->
        Dense.eval ring (Dense.add ring a b) x
        = ring.Ring.add (Dense.eval ring a x) (Dense.eval ring b x));
    qtest (name ^ ": eval is a ring hom (mul)")
      (QCheck2.Gen.triple gp gp gpt)
      (fun (a, b, x) ->
        Dense.eval ring (Dense.mul ring a b) x
        = ring.Ring.mul (Dense.eval ring a x) (Dense.eval ring b x));
    qtest (name ^ ": divmod identity") (QCheck2.Gen.pair gp gp) (fun (a, b) ->
        if Dense.is_zero b then true
        else begin
          let q, rem = Dense.divmod ring a b in
          Dense.equal a (Dense.add ring (Dense.mul ring q b) rem)
          && Dense.degree rem < Dense.degree b
        end);
    qtest (name ^ ": sub self is zero") gp (fun a -> Dense.is_zero (Dense.sub ring a a));
    qtest (name ^ ": degree of product")
      (QCheck2.Gen.pair gp gp)
      (fun (a, b) ->
        if Dense.is_zero a || Dense.is_zero b then Dense.is_zero (Dense.mul ring a b)
        else Dense.degree (Dense.mul ring a b) = Dense.degree a + Dense.degree b);
    qtest (name ^ ": gcd divides both") (QCheck2.Gen.pair gp gp) (fun (a, b) ->
        let g = Dense.gcd ring a b in
        if Dense.is_zero g then Dense.is_zero a && Dense.is_zero b
        else begin
          let _, ra = Dense.divmod ring a g and _, rb = Dense.divmod ring b g in
          Dense.is_zero ra && Dense.is_zero rb
        end);
  ]

let test_dense_of_roots () =
  let p = Dense.of_roots r5 [ 1; 2; 3 ] in
  check dense_testable "(x-1)(x-2)(x-3) mod 5" (Dense.of_coeffs r5 [| 4; 1; 4; 1 |]) p;
  List.iter (fun root -> check Alcotest.int "root" 0 (Dense.eval r5 p root)) [ 1; 2; 3 ];
  check Alcotest.bool "4 is not a root" true (Dense.eval r5 p 4 <> 0);
  check Alcotest.(list int) "roots found" [ 1; 2; 3 ] (Dense.roots r5 p)

let test_dense_linear () =
  let l = Dense.linear r83 ~root:42 in
  check Alcotest.int "degree" 1 (Dense.degree l);
  check Alcotest.int "eval at root" 0 (Dense.eval r83 l 42);
  check Alcotest.int "eval at 0" (83 - 42) (Dense.eval r83 l 0)

let test_interpolate_examples () =
  (* through (1,2) and (2,4): the line 2x over F_5 *)
  match Dense.interpolate r5 [ (1, 2); (2, 4) ] with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      check dense_testable "2x" (Dense.of_coeffs r5 [| 0; 2 |]) p;
      match Dense.interpolate r5 [ (1, 1); (1, 2) ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "duplicate x accepted")

let interpolation_suite ring name =
  [
    qtest ~count:100
      (name ^ ": interpolation recovers sampled polynomials")
      (gen_dense ring)
      (fun f ->
        let degree = Dense.degree f in
        if degree + 1 > ring.Ring.order then true
        else begin
          (* sample at degree+1 distinct points *)
          let points =
            List.init (max 1 (degree + 1)) (fun i -> (i, Dense.eval ring f i))
          in
          match Dense.interpolate ring points with
          | Ok g -> Dense.equal f g
          | Error _ -> false
        end);
    qtest ~count:100
      (name ^ ": interpolant passes through the points")
      QCheck2.Gen.(
        let* n = int_range 1 (min 8 (ring.Ring.order - 1)) in
        let* ys = list_repeat n (int_range 0 (ring.Ring.order - 1)) in
        return (List.mapi (fun i y -> (i, y)) ys))
      (fun points ->
        match Dense.interpolate ring points with
        | Ok g -> List.for_all (fun (x, y) -> Dense.eval ring g x = y) points
        | Error _ -> false);
  ]

let test_dense_division_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (Dense.divmod r5 (Dense.one r5) Dense.zero))

(* --- cyclic --- *)

let cyclic_suite ring name =
  let gc = gen_cyclic ring and gd = gen_dense ring and gpt = gen_point ring in
  (* [Cyclic.mul] runs its convolution from the operand with fewer
     nonzero coefficients, so operands also come as tree-shaped factors
     and the product is checked in both orders *)
  let operand =
    QCheck2.Gen.oneof
      [ QCheck2.Gen.map (Cyclic.of_dense ring) gd; Test_support.gen_tree_factor ring; gc ]
  in
  [
    qtest (name ^ ": reduction preserves eval at nonzero points")
      (QCheck2.Gen.pair gd gpt)
      (fun (f, x) -> Cyclic.eval ring (Cyclic.of_dense ring f) x = Dense.eval ring f x);
    qtest (name ^ ": mul agrees with dense mul then reduce")
      (QCheck2.Gen.pair operand operand)
      (fun (a, b) ->
        let expected =
          Cyclic.of_dense ring (Dense.mul ring (Cyclic.to_dense ring a) (Cyclic.to_dense ring b))
        in
        Cyclic.equal (Cyclic.mul ring a b) expected
        && Cyclic.equal (Cyclic.mul ring b a) expected);
    qtest (name ^ ": mul_linear = mul by (x - root)")
      (QCheck2.Gen.pair gc gpt)
      (fun (f, root) ->
        Cyclic.equal
          (Cyclic.mul_linear ring ~root f)
          (Cyclic.mul ring (Cyclic.linear ring ~root) f));
    qtest (name ^ ": mul_x = mul by x") gc (fun f ->
        let x = Cyclic.of_dense ring (Dense.of_coeffs ring [| 0; 1 |]) in
        Cyclic.equal (Cyclic.mul_x ring f) (Cyclic.mul ring x f));
    qtest (name ^ ": add/sub inverse") (QCheck2.Gen.pair gc gc) (fun (a, b) ->
        Cyclic.equal a (Cyclic.sub ring (Cyclic.add ring a b) b));
    qtest (name ^ ": one is neutral") gc (fun a ->
        Cyclic.equal a (Cyclic.mul ring (Cyclic.one ring) a));
    qtest (name ^ ": recover_linear_factor recovers the root")
      (QCheck2.Gen.pair gc gpt)
      (fun (g, root) ->
        match
          Cyclic.recover_linear_factor ring ~product:g
            ~node:(Cyclic.mul_linear ring ~root g)
        with
        | Ok t -> (not (Cyclic.is_zero g)) && t = root
        | Error `Degenerate -> Cyclic.is_zero g
        | Error `Not_linear -> false);
    qtest (name ^ ": to/from int array") gc (fun a ->
        Cyclic.equal a (Cyclic.of_int_array ring (Cyclic.to_int_array a)));
  ]

let test_cyclic_eval_zero_rejected () =
  Alcotest.check_raises "eval at 0"
    (Invalid_argument "Cyclic.eval: evaluation at 0 is not preserved by reduction")
    (fun () -> ignore (Cyclic.eval r5 (Cyclic.one r5) 0))

let test_cyclic_wrong_length () =
  Alcotest.check_raises "of_int_array length"
    (Invalid_argument "Cyclic.of_int_array: expected 4 coefficients, got 2") (fun () ->
      ignore (Cyclic.of_int_array r5 [| 1; 2 |]))

let test_recover_not_linear () =
  let node = Cyclic.linear r5 ~root:1 in
  let product = Cyclic.of_dense r5 (Dense.of_roots r5 [ 2; 3 ]) in
  match Cyclic.recover_linear_factor r5 ~product ~node with
  | Error `Not_linear -> ()
  | Ok t -> Alcotest.failf "unexpected Ok %d" t
  | Error `Degenerate -> Alcotest.fail "unexpected Degenerate"

let test_recover_degenerate () =
  (* a product with every nonzero element as a root reduces to the
     zero ring element: (x-1)(x-2)(x-3)(x-4) = x^4 - 1 = 0 *)
  let product = Cyclic.of_dense r5 (Dense.of_roots r5 [ 1; 2; 3; 4 ]) in
  check Alcotest.bool "product is the zero ring element" true (Cyclic.is_zero product);
  match Cyclic.recover_linear_factor r5 ~product ~node:(Cyclic.zero r5) with
  | Error `Degenerate -> ()
  | Ok t -> Alcotest.failf "unexpected Ok %d" t
  | Error `Not_linear -> Alcotest.fail "unexpected Not_linear"

(* The containment test's foundation: f(subtree) evaluates to zero at
   v iff v is among the subtree's mapped values. *)
let test_subtree_root_semantics () =
  let values = [ 7; 13; 42; 7; 80 ] in
  let poly = Cyclic.of_dense r83 (Dense.of_roots r83 values) in
  List.iter
    (fun v ->
      let expected = List.mem v values in
      check Alcotest.bool (Printf.sprintf "contains %d" v) expected
        (Cyclic.eval r83 poly v = 0))
    [ 7; 13; 42; 80; 1; 2; 82; 50 ]

(* --- codec --- *)

let test_bits_per_coeff () =
  check Alcotest.int "q=2" 1 (Codec.bits_per_coeff 2);
  check Alcotest.int "q=5" 3 (Codec.bits_per_coeff 5);
  check Alcotest.int "q=29" 5 (Codec.bits_per_coeff 29);
  check Alcotest.int "q=83" 7 (Codec.bits_per_coeff 83);
  check Alcotest.int "q=256" 8 (Codec.bits_per_coeff 256)

let test_paper_byte_counts () =
  (* §4: "In case p = 29 a polynomial costs 17 bytes" — 28 coefficients
     of 5 bits each = 140 bits; the paper rounds 17.5 down.  We pack to
     18 bytes; stay within a byte of the paper's figure. *)
  let bytes_29 = Codec.byte_length ~q:29 ~n:28 in
  check Alcotest.bool "p=29 close to 17 bytes" true (abs (bytes_29 - 17) <= 1);
  (* p = 83: 82 coefficients of 7 bits = 574 bits -> 72 bytes *)
  check Alcotest.int "p=83" 72 (Codec.byte_length ~q:83 ~n:82)

let test_codec_roundtrip_unit () =
  let coeffs = [| 0; 1; 2; 3; 4 |] in
  let packed = Codec.pack ~q:5 coeffs in
  check Alcotest.(array int) "roundtrip" coeffs (Codec.unpack ~q:5 ~n:5 packed)

let test_codec_rejects () =
  Alcotest.check_raises "coefficient out of range"
    (Invalid_argument "Codec.pack: coefficient 5 out of [0,5)") (fun () ->
      ignore (Codec.pack ~q:5 [| 5 |]));
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Codec.unpack: need 3 bytes, got 1") (fun () ->
      ignore (Codec.unpack ~q:5 ~n:8 (Bytes.make 1 '\000')))

let test_codec_corruption_guard () =
  let buf = Bytes.make 4 '\xFF' in
  match Codec.unpack ~q:5 ~n:4 buf with
  | exception Invalid_argument _ -> ()
  | coeffs ->
      Alcotest.failf "expected corruption error, got [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int coeffs)))

let codec_roundtrip_suite =
  List.map
    (fun q ->
      qtest
        (Printf.sprintf "codec roundtrip q=%d" q)
        QCheck2.Gen.(
          let* n = int_range 0 100 in
          array_repeat n (int_range 0 (q - 1)))
        (fun coeffs ->
          Codec.unpack ~q ~n:(Array.length coeffs) (Codec.pack ~q coeffs) = coeffs))
    [ 2; 3; 5; 29; 83; 127; 1021 ]

let cyclic_codec_suite ring name =
  [
    qtest (name ^ ": pack_cyclic roundtrip") (gen_cyclic ring) (fun v ->
        Cyclic.equal v (Codec.unpack_cyclic ring (Codec.pack_cyclic ring v)));
  ]

(* --- the evaluation domain: phi is a ring isomorphism ------------- *)

let r131 = Ring.of_prime ~p:131

(* phi respects both operations and the unit on [a] and [b], and
   [to_cyclic] undoes it. *)
let homomorphic ring a b =
  let phi = Evals.of_cyclic ring in
  Evals.equal (phi (Cyclic.mul ring a b)) (Evals.mul ring (phi a) (phi b))
  && Evals.equal (phi (Cyclic.add ring a b)) (Evals.add ring (phi a) (phi b))
  && Cyclic.equal (Evals.to_cyclic ring (phi a)) a

(* Every element of F_5[x]/(x^4 - 1), every pair of them: phi maps 1 to
   1, is a bijection (625 distinct images, each mapped back) and
   multiplies and adds pointwise. *)
let test_phi_exhaustive_f5 () =
  let ring = r5 in
  let n = ring.Ring.n in
  let elements =
    Array.init 625 (fun k ->
        Cyclic.of_int_array ring (Array.init n (fun i -> k / int_of_float (5. ** float i) mod 5)))
  in
  let images = Array.map (Evals.of_cyclic ring) elements in
  check Alcotest.bool "phi 1 = 1" true
    (Evals.equal (Evals.of_cyclic ring (Cyclic.one ring)) (Evals.one ring));
  let distinct = Hashtbl.create 625 in
  Array.iteri
    (fun k v ->
      Hashtbl.replace distinct (Evals.to_int_array v) ();
      if not (Cyclic.equal (Evals.to_cyclic ring v) elements.(k)) then
        Alcotest.failf "element %d: to_cyclic does not undo phi" k)
    images;
  check Alcotest.int "625 distinct images" 625 (Hashtbl.length distinct);
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if
            not
              (Evals.equal (Evals.of_cyclic ring (Cyclic.mul ring a b))
                 (Evals.mul ring images.(i) images.(j))
              && Evals.equal (Evals.of_cyclic ring (Cyclic.add ring a b))
                   (Evals.add ring images.(i) images.(j)))
          then Alcotest.failf "pair (%d, %d): phi is not a homomorphism" i j)
        elements)
    elements

(* GF(3^2)[x]/(x^8 - 1) has 9^8 elements, too many for every pair.
   But phi and phi^-1 are linear (evaluation and interpolation are),
   so checking every scaled monomial c x^i settles every element: each
   pair of them (72^2) multiplies and adds pointwise, and phi^-1 undoes
   phi on each, so phi^-1 . phi is the identity and phi a bijection. *)
let test_phi_exhaustive_gf9 () =
  let ring = r9 in
  let n = ring.Ring.n in
  let scaled =
    List.concat_map
      (fun c ->
        List.init n (fun i ->
            let v = Array.make n 0 in
            v.(i) <- c;
            Cyclic.of_int_array ring v))
      (List.init 9 Fun.id)
  in
  check Alcotest.bool "phi 1 = 1" true
    (Evals.equal (Evals.of_cyclic ring (Cyclic.one ring)) (Evals.one ring));
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (homomorphic ring a b) then
            Alcotest.failf "%s, %s: phi is not a homomorphism"
              (Format.asprintf "%a" Cyclic.pp a)
              (Format.asprintf "%a" Cyclic.pp b))
        scaled)
    scaled

let phi_qcheck ring name =
  let gc = gen_cyclic ring in
  qtest ~count:100
    (name ^ ": phi is a ring isomorphism")
    (QCheck2.Gen.pair gc gc)
    (fun (a, b) ->
      homomorphic ring a b
      && Evals.equal
           (Evals.of_cyclic ring (Evals.to_cyclic ring (Evals.of_cyclic ring b)))
           (Evals.of_cyclic ring b))

(* One (node, product) pair of a tree: the node's polynomial and its
   children's product, in coefficient form, from the encoder's fold. *)
let rec tree_nodes ring value (tree : Secshare_xml.Tree.t) acc =
  match tree with
  | Secshare_xml.Tree.Text _ -> (None, acc)
  | Secshare_xml.Tree.Element { name; children; _ } ->
      let child_polys, acc =
        List.fold_left
          (fun (polys, acc) child ->
            match tree_nodes ring value child acc with
            | Some f, acc -> (f :: polys, acc)
            | None, acc -> (polys, acc))
          ([], acc) children
      in
      let product = List.fold_left (Cyclic.mul ring) (Cyclic.one ring) child_polys in
      let node = Cyclic.mul_linear ring ~root:(value name) product in
      (Some node, (node, product) :: acc)

(* Random trees whose nodes carry random values (a map with a name per
   node): the pointwise recovery ([Evals] and, with byte tables,
   [Flat]) returns the coefficient form's verdict for every node, on
   its own polynomial and with one value of it moved; so every (node,
   tag) verdict of the equality test agrees.  F_5 and GF(3^2) have at
   most 8 nonzero points, so such maps are full and make degenerate
   products; the counts prove that each verdict occurred. *)
let test_recovery_matches_cyclic ring name () =
  let q = ring.Ring.order and n = ring.Ring.n in
  let rand = Random.State.make [| q |] in
  let trees = QCheck2.Gen.generate ~rand ~n:60 Test_support.gen_tree in
  let seen = Hashtbl.create 3 in
  List.iter
    (fun tree ->
      let value _ = 1 + Random.State.int rand (q - 1) in
      let _, pairs = tree_nodes ring value tree [] in
      List.iter
        (fun (node, product) ->
          let slot = Random.State.int rand n in
          let moved = Evals.to_int_array (Evals.of_cyclic ring node) in
          moved.(slot) <- ring.Ring.add moved.(slot) (1 + Random.State.int rand (q - 1));
          List.iter
            (fun (node, node_values) ->
              let expected = Cyclic.recover_linear_factor ring ~product ~node in
              let product_values = Evals.of_cyclic ring product in
              let got = Evals.recover_linear_factor ring ~product:product_values ~node:node_values in
              if got <> expected then Alcotest.failf "%s: Evals verdict differs" name;
              Hashtbl.replace seen
                (match expected with
                | Ok _ -> "ok"
                | Error `Degenerate -> "degenerate"
                | Error `Not_linear -> "not linear")
                ())
            [
              (node, Evals.of_cyclic ring node);
              (Evals.to_cyclic ring (Evals.of_canonical ring (Array.copy moved)),
               Evals.of_canonical ring moved);
            ])
        pairs)
    trees;
  List.iter
    (fun verdict ->
      check Alcotest.bool (Printf.sprintf "%s: a %s verdict occurred" name verdict) true
        (Hashtbl.mem seen verdict))
    ("ok" :: "not linear" :: (if q <= 9 then [ "degenerate" ] else []))

let () =
  Alcotest.run "poly"
    [
      ("dense F_5", dense_suite r5 "F5");
      ("dense F_83", dense_suite r83 "F83");
      ("dense F_9", dense_suite r9 "F9");
      ( "dense units",
        [
          Alcotest.test_case "of_roots worked example" `Quick test_dense_of_roots;
          Alcotest.test_case "linear factors" `Quick test_dense_linear;
          Alcotest.test_case "division by zero" `Quick test_dense_division_by_zero;
          Alcotest.test_case "interpolation examples" `Quick test_interpolate_examples;
        ]
        @ interpolation_suite r83 "F83"
        @ interpolation_suite r9 "F9" );
      ("cyclic F_5", cyclic_suite r5 "F5");
      ("cyclic F_83", cyclic_suite r83 "F83");
      ("cyclic F_9", cyclic_suite r9 "F9");
      ("cyclic GF_81", cyclic_suite r81 "GF81");
      ("cyclic F_257", cyclic_suite r257 "F257");
      ( "cyclic units",
        [
          Alcotest.test_case "eval at zero rejected" `Quick test_cyclic_eval_zero_rejected;
          Alcotest.test_case "wrong length rejected" `Quick test_cyclic_wrong_length;
          Alcotest.test_case "not-linear detected" `Quick test_recover_not_linear;
          Alcotest.test_case "degenerate division detected" `Quick test_recover_degenerate;
          Alcotest.test_case "subtree root semantics" `Quick test_subtree_root_semantics;
        ] );
      ( "codec",
        [
          Alcotest.test_case "bits per coefficient" `Quick test_bits_per_coeff;
          Alcotest.test_case "paper byte counts" `Quick test_paper_byte_counts;
          Alcotest.test_case "roundtrip example" `Quick test_codec_roundtrip_unit;
          Alcotest.test_case "rejects bad input" `Quick test_codec_rejects;
          Alcotest.test_case "corruption guard" `Quick test_codec_corruption_guard;
        ]
        @ codec_roundtrip_suite
        @ cyclic_codec_suite r83 "F83"
        @ cyclic_codec_suite r9 "F9" );
      ( "phi",
        [
          Alcotest.test_case "phi is a ring isomorphism, F5 exhaustive" `Quick
            test_phi_exhaustive_f5;
          Alcotest.test_case "phi is a ring isomorphism, GF9 every scaled monomial" `Quick
            test_phi_exhaustive_gf9;
          phi_qcheck r83 "F83";
        ]
        @ List.map
            (fun (ring, name) ->
              Alcotest.test_case
                (name ^ ": pointwise recovery = Cyclic.recover_linear_factor")
                `Quick
                (test_recovery_matches_cyclic ring name))
            [ (r5, "F5"); (r9, "GF9"); (r83, "F83"); (r131, "F131") ] );
    ]
