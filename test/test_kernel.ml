(* Equivalence of the flat byte-table kernels (Secshare_poly.Flat /
   Secshare_field.Table) against the closure-based reference path
   (Evals / Codec.unpack) and, through phi (Evals.of_cyclic), against
   the coefficient form (Dense.eval / Cyclic.eval / Cyclic.mul).  The
   kernels must be BIT-IDENTICAL to the reference — the server swaps
   them in underneath Scan_eval/Eval_batch without renegotiating
   anything with the client, so any divergence is silent data
   corruption.  Exercised over the paper field F_83 and the extension
   field GF(3^4), whose canonical encodings are not integer arithmetic
   mod q and therefore catch any table built from the wrong ops. *)

module Ring = Secshare_poly.Ring
module Dense = Secshare_poly.Dense
module Cyclic = Secshare_poly.Cyclic
module Evals = Secshare_poly.Evals
module Codec = Secshare_poly.Codec
module Flat = Secshare_poly.Flat
module Table = Secshare_field.Table

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let r83 = Ring.of_prime ~p:83
let r81 = Ring.of_prime_power ~p:3 ~e:4

let table_of ring =
  match ring.Ring.table with
  | Some tab -> tab
  | None -> Alcotest.failf "expected an op table for order %d" ring.Ring.order

let gen_cyclic ring =
  let open QCheck2.Gen in
  let* coeffs = array_repeat ring.Ring.n (int_range 0 (ring.Ring.order - 1)) in
  return (Cyclic.of_int_array ring coeffs)

let gen_point ring = QCheck2.Gen.int_range 1 (ring.Ring.order - 1)

(* [c]'s values at every nonzero point in slot order: phi, by Horner
   through the byte tables where the ring has them (an oracle
   independent of [Evals.of_cyclic], which "of_cyclic = Cyclic.eval"
   checks against [Cyclic.eval]), else [Evals.of_cyclic]. *)
let values ring c =
  match ring.Ring.table with
  | None -> Evals.to_int_array (Evals.of_cyclic ring c)
  | Some tab ->
      let a = Cyclic.view c in
      Array.init ring.Ring.n (fun j ->
          let acc = ref 0 in
          for i = Array.length a - 1 downto 0 do
            acc := Table.add tab (Table.mul tab !acc (j + 1)) a.(i)
          done;
          !acc)

let phi ring c = Evals.of_canonical ring (values ring c)

(* A share in the evaluation domain, packed. *)
let pack_values ring c = Codec.pack_evals ring (phi ring c)

(* --- the tables themselves ----------------------------------------- *)

(* Exhaustive, not sampled: both tables are only q * q entries. *)
let test_table_matches_field ring name () =
  let tab = table_of ring in
  let q = ring.Ring.order in
  Alcotest.(check int) (name ^ ": order") q (Table.order tab);
  Alcotest.(check int) (name ^ ": bits") (Codec.bits_per_coeff q) (Table.bits tab);
  for a = 0 to q - 1 do
    for b = 0 to q - 1 do
      if Table.add tab a b <> ring.Ring.add a b then
        Alcotest.failf "%s: add table wrong at (%d, %d)" name a b;
      if Table.mul tab a b <> ring.Ring.mul a b then
        Alcotest.failf "%s: mul table wrong at (%d, %d)" name a b
    done;
    if Table.unsafe_neg tab a <> ring.Ring.neg a then
      Alcotest.failf "%s: neg table wrong at %d" name a
  done

let test_no_table_above_256 () =
  let ring = Ring.of_prime ~p:257 in
  Alcotest.(check bool) "order 257 has no byte table" true (ring.Ring.table = None)

(* --- the slot read kernel vs unpack + interpolate + Cyclic.eval ---- *)

let eval_suite ring name =
  let tab = table_of ring in
  let n = ring.Ring.n in
  let gc = gen_cyclic ring and gpt = gen_point ring in
  let share_agrees buf point expected =
    Flat.eval_share tab ~n ~slot:(Evals.slot ring point) buf = expected
  in
  [
    qtest
      (name ^ ": of_cyclic = Cyclic.eval = Dense.eval")
      (QCheck2.Gen.pair gc gpt)
      (fun (c, point) ->
        let reference = Cyclic.eval ring c point in
        reference = Dense.eval ring (Cyclic.to_dense ring c) point
        && Evals.get (Evals.of_cyclic ring c) (Evals.slot ring point) = reference);
    qtest
      (name ^ ": eval_share = unpack + Cyclic.eval")
      (QCheck2.Gen.pair gc gpt)
      (fun (c, point) ->
        let buf = pack_values ring c in
        let reference = Cyclic.eval ring c point in
        Evals.get (Codec.unpack_evals ring buf) (Evals.slot ring point) = reference
        && share_agrees buf point reference);
    (* degree edges: a constant share evaluates to its constant
       everywhere, and a share with every coefficient live (max degree
       in the quotient) still matches the reference *)
    qtest
      (name ^ ": degree-0 share is constant")
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 (ring.Ring.order - 1)) gpt)
      (fun (const, point) ->
        let coeffs = Array.make n 0 in
        coeffs.(0) <- const;
        share_agrees (pack_values ring (Cyclic.of_int_array ring coeffs)) point const);
    qtest
      (name ^ ": max-degree share matches reference")
      (QCheck2.Gen.pair gc gpt)
      (fun (c, point) ->
        let coeffs = Cyclic.to_int_array c in
        (* force the top coefficient live so degree is exactly n-1 *)
        if coeffs.(n - 1) = 0 then coeffs.(n - 1) <- 1;
        let full = Cyclic.of_int_array ring coeffs in
        share_agrees (pack_values ring full) point (Cyclic.eval ring full point));
  ]

let test_eval_share_rejects_bad_coeff () =
  (* an all-ones buffer decodes coefficients of 2^bits - 1 = 127,
     outside F_83 — the kernel must validate exactly like
     Codec.unpack rather than index off the table *)
  let tab = table_of r83 in
  let n = r83.Ring.n in
  let buf = Bytes.make (Codec.byte_length ~q:83 ~n) '\xff' in
  List.iter
    (fun slot ->
      match Flat.eval_share tab ~n ~slot buf with
      | (_ : int) -> Alcotest.fail "expected Invalid_argument on coefficient >= q"
      | exception Invalid_argument _ -> ())
    [ 0; 1; n - 1 ]

(* --- reconstruct kernel vs unpack + Cyclic.add ---------------------- *)

let reference_reconstruct ring ~client buf = Cyclic.add ring client (Codec.unpack_cyclic ring buf)

let flat_reconstruct ring ~client buf =
  let n = ring.Ring.n in
  let out = Array.make n (-1) in
  Flat.reconstruct_into (table_of ring) ~n ~client:(Cyclic.view client) buf ~out;
  Cyclic.of_int_array ring out

(* Exhaustive per coefficient value: coefficient i of the client half
   is (u + i) mod q and of the server half (v + 3i) mod q, so across
   all (u, v) every position sees every (client, server) value pair. *)
let test_reconstruct_exhaustive ring name () =
  let q = ring.Ring.order and n = ring.Ring.n in
  for u = 0 to q - 1 do
    for v = 0 to q - 1 do
      let client = Cyclic.of_int_array ring (Array.init n (fun i -> (u + i) mod q)) in
      let server = Cyclic.of_int_array ring (Array.init n (fun i -> (v + (3 * i)) mod q)) in
      let buf = Codec.pack_cyclic ring server in
      if
        not
          (Cyclic.equal (flat_reconstruct ring ~client buf)
             (reference_reconstruct ring ~client buf))
      then Alcotest.failf "%s: reconstruct differs at (u=%d, v=%d)" name u v
    done
  done

let reconstruct_suite ring name =
  let gc = gen_cyclic ring in
  [
    Alcotest.test_case (name ^ ": every coefficient pair") `Quick
      (test_reconstruct_exhaustive ring name);
    qtest
      (name ^ ": reconstruct_into = unpack + Cyclic.add")
      (QCheck2.Gen.pair gc gc)
      (fun (client, server) ->
        let buf = Codec.pack_cyclic ring server in
        Cyclic.equal (flat_reconstruct ring ~client buf) (reference_reconstruct ring ~client buf));
  ]

let test_reconstruct_rejects ring name () =
  let tab = table_of ring in
  let n = ring.Ring.n and q = ring.Ring.order in
  let client = Cyclic.view (Cyclic.one ring) in
  let out = Array.make n 0 in
  let rejects what buf =
    match Flat.reconstruct_into tab ~n ~client buf ~out with
    | () -> Alcotest.failf "%s: %s accepted" name what
    | exception Invalid_argument _ -> ()
  in
  let len = Codec.byte_length ~q ~n in
  rejects "short buffer" (Bytes.make (len - 1) '\000');
  rejects "empty buffer" Bytes.empty;
  (* all-ones decodes 2^bits - 1 >= q in every coefficient *)
  rejects "coefficient >= q" (Bytes.make len '\xff');
  (* a single bad coefficient, in the last position *)
  let coeffs = Array.make n 0 in
  let buf = Codec.pack ~q coeffs in
  let bits = Codec.bits_per_coeff q in
  for b = 0 to bits - 1 do
    let pos = ((n - 1) * bits) + b in
    Bytes.set_uint8 buf (pos lsr 3) (Bytes.get_uint8 buf (pos lsr 3) lor (1 lsl (pos land 7)))
  done;
  rejects "last coefficient >= q" buf;
  (* both reference and kernel reject the same buffers *)
  match Codec.unpack_cyclic ring buf with
  | (_ : Cyclic.t) -> Alcotest.failf "%s: reference accepted a bad buffer" name
  | exception Invalid_argument _ -> ()

(* --- pointwise kernels vs the coefficient form, through phi -------- *)

(* Operands also come as tree-shaped factors ((x - v), short products
   of linear factors, one, zero), and every product is checked in both
   operand orders. *)
let mul_suite ring name =
  let tab = table_of ring in
  let n = ring.Ring.n and q = ring.Ring.order in
  let gc = gen_cyclic ring in
  let operand = QCheck2.Gen.oneof [ gc; Test_support.gen_tree_factor ring ] in
  let mul_agrees a b =
    let out = Array.make n (-1) in
    Flat.pointwise_mul_into tab ~n ~a:(values ring a) ~b:(values ring b) ~out;
    out = values ring (Cyclic.mul ring a b)
  in
  let fold_agrees children =
    let reference = List.fold_left (Cyclic.mul ring) (Cyclic.one ring) children in
    let acc = values ring (Cyclic.one ring) in
    List.iter
      (fun child -> Flat.pointwise_mul_into tab ~n ~a:acc ~b:(values ring child) ~out:acc)
      children;
    acc = values ring reference
  in
  [
    qtest (name ^ ": pointwise_mul_into = Cyclic.mul") (QCheck2.Gen.pair operand gc)
      (fun (a, b) -> mul_agrees a b && mul_agrees b a);
    qtest ~count:50
      (name ^ ": in-place product fold = Cyclic.mul fold")
      QCheck2.Gen.(
        let* k = int_range 0 6 in
        list_repeat k operand)
      (fun children -> fold_agrees children && fold_agrees (List.rev children));
    qtest
      (name ^ ": linear_mul_into = Cyclic.mul_linear")
      QCheck2.Gen.(pair operand (int_range 0 (q - 1)))
      (fun (a, root) ->
        let out = values ring a in
        Flat.linear_mul_into tab ~n ~root ~a:out ~out;
        out = values ring (Cyclic.mul_linear ring ~root a));
    qtest (name ^ ": sub_into = Cyclic.sub") (QCheck2.Gen.pair gc operand) (fun (a, b) ->
        let out = Array.make n (-1) in
        Flat.sub_into tab ~n ~a:(values ring a) ~b:(values ring b) ~out;
        out = values ring (Cyclic.sub ring a b));
  ]

(* --- Shamir recombination kernel vs unpack + combine_vectors + pack -- *)

module Shamir = Secshare_poly.Shamir

let r5 = Ring.of_prime ~p:5
let r9 = Ring.of_prime_power ~p:3 ~e:2
let r256 = Ring.of_prime_power ~p:2 ~e:8

(* The reference path [Share.reconstruct_packed] keeps for fields
   without byte tables. *)
let reference_combine ring ~lambdas shares =
  let q = ring.Ring.order and n = ring.Ring.n in
  Codec.pack ~q
    (Shamir.combine_vectors ring ~lambdas (List.map (Codec.unpack ~q ~n) shares))

let flat_combine ring ~lambdas shares =
  let tab = table_of ring in
  let q = ring.Ring.order and n = ring.Ring.n in
  let rows = Array.of_list (List.map (fun l -> Table.mul_row tab ~point:l) lambdas) in
  (* prefilled garbage: the kernel must clear what it packs into *)
  let out = Bytes.make (Codec.byte_length ~q ~n) '\xff' in
  Flat.combine_packed_into tab ~n ~rows (Array.of_list shares) ~out;
  out

(* Every [threshold]-subset of the x-coordinates [1 .. shards], each in
   ascending and in reversed order. *)
let subsets ~threshold ~shards =
  let rec choose k from =
    if k = 0 then [ [] ]
    else if from > shards then []
    else
      List.map (fun rest -> from :: rest) (choose (k - 1) (from + 1))
      @ choose k (from + 1)
  in
  List.concat_map (fun xs -> [ xs; List.rev xs ]) (choose threshold 1)

let geometries = [ (2, 3); (3, 4) ]

(* Exhaustive over share values: every tuple of [threshold] field
   elements appears as the member coefficients at every coefficient
   position (so at every bit offset of the packed layout), for every
   subset and order of both geometries. *)
let test_combine_exhaustive ring name () =
  let q = ring.Ring.order and n = ring.Ring.n in
  let rec digit v k = if k = 0 then v mod q else digit (v / q) (k - 1) in
  List.iter
    (fun (threshold, shards) ->
      let tuples = int_of_float (float_of_int q ** float_of_int threshold) in
      let chunks = (tuples + n - 1) / n in
      List.iter
        (fun xs ->
          let lambdas = Shamir.lambdas_at_zero ring ~xs in
          for chunk = 0 to chunks - 1 do
            for rot = 0 to n - 1 do
              (* coefficient i of member k is digit k of tuple
                 [chunk * n + (i + rot) mod n] in base q *)
              let shares =
                List.init threshold (fun k ->
                    Codec.pack ~q
                      (Array.init n (fun i ->
                           let tuple = (chunk * n) + ((i + rot) mod n) in
                           if tuple < tuples then digit tuple k else 0)))
              in
              if
                not
                  (Bytes.equal (flat_combine ring ~lambdas shares)
                     (reference_combine ring ~lambdas shares))
              then
                Alcotest.failf "%s: %d-of-%d subset %s differs (chunk %d, rotation %d)"
                  name threshold shards
                  (String.concat "," (List.map string_of_int xs))
                  chunk rot
            done
          done)
        (subsets ~threshold ~shards))
    geometries

(* Real dealings: the kernel returns the dealt share itself, byte for
   byte, from every subset in either order. *)
let combine_qcheck ring name =
  let q = ring.Ring.order in
  qtest ~count:100
    (name ^ ": combine_packed_into recovers every dealt share")
    (* the dealer's draws: threshold - 1 per coefficient, summed over
       both geometries *)
    QCheck2.Gen.(
      pair (gen_cyclic ring) (array_repeat (3 * ring.Ring.n) (int_range 0 (q - 1))))
    (fun (secret, draws) ->
      let original = Codec.pack_cyclic ring secret in
      let next = ref 0 in
      let gen () =
        incr next;
        draws.(!next - 1)
      in
      List.for_all
        (fun (threshold, shards) ->
          let dealt =
            Shamir.share_vector ring ~threshold
              ~xs:(List.init shards (fun i -> i + 1))
              ~gen
              (Cyclic.to_int_array secret)
            |> List.map (Codec.pack ~q)
            |> Array.of_list
          in
          List.for_all
            (fun xs ->
              let lambdas = Shamir.lambdas_at_zero ring ~xs in
              let shares = List.map (fun x -> dealt.(x - 1)) xs in
              let got = flat_combine ring ~lambdas shares in
              Bytes.equal got original
              && Bytes.equal got (reference_combine ring ~lambdas shares))
            (subsets ~threshold ~shards))
        geometries)

(* Kernel and reference reject the same malformed shares, each with
   [Invalid_argument]. *)
let test_combine_rejects ring name () =
  let q = ring.Ring.order and n = ring.Ring.n in
  let lambdas = Shamir.lambdas_at_zero ring ~xs:[ 1; 2 ] in
  let good = Codec.pack ~q (Array.make n 1) in
  let len = Codec.byte_length ~q ~n in
  let rejects what f =
    match f () with
    | (_ : Bytes.t) -> Alcotest.failf "%s: %s accepted" name what
    | exception Invalid_argument _ -> ()
  in
  let bits = Codec.bits_per_coeff q in
  (* a share whose last coefficient decodes to [v], bypassing the
     codec's own range check *)
  let with_last v =
    let buf = Codec.pack ~q (Array.make n 0) in
    for b = 0 to bits - 1 do
      let pos = ((n - 1) * bits) + b in
      if (v lsr b) land 1 = 1 then
        Bytes.set_uint8 buf (pos lsr 3)
          (Bytes.get_uint8 buf (pos lsr 3) lor (1 lsl (pos land 7)))
    done;
    buf
  in
  List.iter
    (fun (what, shares) ->
      rejects (what ^ " (kernel)") (fun () -> flat_combine ring ~lambdas shares);
      rejects (what ^ " (reference)") (fun () -> reference_combine ring ~lambdas shares))
    ([
       ("short second share", [ good; Bytes.sub good 0 (len - 1) ]);
       ("empty first share", [ Bytes.empty; good ]);
       ("one share for two lambdas", [ good ]);
     ]
    (* at q = 2^bits every bit pattern is a field element *)
    @
    if 1 lsl bits > q then
      [
        ("coefficient = q", [ good; with_last q ]);
        ("coefficient = 2^bits - 1", [ with_last ((1 lsl bits) - 1); good ]);
      ]
    else [])

(* --- Share: the one entry point per filter operation ---------------- *)

module Share = Secshare_core.Share

let r257 = Ring.of_prime ~p:257

(* [Share] picks the kernel or the reference path per ring; either way
   each entry point must equal its reference composition, through phi
   ([Evals.of_cyclic]) where the reference is the coefficient form.
   F_257 has no byte tables, so it pins the reference branch. *)
let share_suite ring name =
  let gc = gen_cyclic ring and gpt = gen_point ring in
  let q = ring.Ring.order in
  let tree = QCheck2.Gen.oneof [ gc; Test_support.gen_tree_factor ring ] in
  let phi = phi ring in
  [
    qtest ~count:100
      (name ^ ": eval_packed = unpack + Cyclic.eval")
      (QCheck2.Gen.pair gc gpt)
      (fun (c, x) ->
        let buf = pack_values ring c in
        let reference = Cyclic.eval ring c x in
        Evals.get (Codec.unpack_evals ring buf) (Evals.slot ring x) = reference
        && Share.eval_packed ring (Share.point ring x) buf = reference);
    (* "eval_poly": the share's value at a point, read from its slot *)
    qtest ~count:100
      (name ^ ": eval_poly = Cyclic.eval")
      (QCheck2.Gen.pair gc gpt)
      (fun (c, x) -> Evals.get (phi c) (Evals.slot ring x) = Cyclic.eval ring c x);
    qtest ~count:100
      (name ^ ": add_packed = Cyclic.add client (unpack)")
      (QCheck2.Gen.pair gc gc)
      (fun (client, server) ->
        let buf = pack_values ring server in
        Evals.equal
          (Share.add_packed ring ~client:(phi client) buf)
          (phi (Cyclic.add ring client server)));
    (* few cases: the GF(2^8) reference multiplies through the field's
       closures, about 65 000 of them per dense product step; operands
       also come as tree-shaped factors, folded in both orders *)
    qtest ~count:12
      (name ^ ": product = Cyclic.mul fold")
      QCheck2.Gen.(
        let* k = int_range 0 3 in
        list_repeat k tree)
      (fun polys ->
        List.for_all
          (fun polys ->
            Evals.equal
              (Share.product ring (List.map phi polys))
              (phi (List.fold_left (Cyclic.mul ring) (Cyclic.one ring) polys)))
          [ polys; List.rev polys ]);
    qtest ~count:12
      (name ^ ": encode_node = Cyclic.mul_linear")
      QCheck2.Gen.(pair (option tree) (int_range 0 (2 * q)))
      (fun (children, root) ->
        let expected =
          match children with
          | None -> Cyclic.linear ring ~root
          | Some product -> Cyclic.mul_linear ring ~root product
        in
        Evals.equal
          (Share.encode_node ring ~root (Option.map phi children))
          (phi expected));
  ]

(* The zero point (also written as q) and malformed shares raise on
   both kinds of ring, exactly as the reference does. *)
let test_share_rejects ring name () =
  let q = ring.Ring.order in
  let zero_point = Invalid_argument "Cyclic.eval: evaluation at 0 is not preserved by reduction" in
  Alcotest.check_raises (name ^ ": point 0") zero_point (fun () -> ignore (Share.point ring 0));
  Alcotest.check_raises (name ^ ": point q") zero_point (fun () -> ignore (Share.point ring q));
  let pt = Share.point ring 1 and client = Evals.one ring in
  let rejects what buf =
    (match Share.eval_packed ring pt buf with
    | (_ : int) -> Alcotest.failf "%s: eval_packed accepted %s" name what
    | exception Invalid_argument _ -> ());
    match Share.add_packed ring ~client buf with
    | (_ : Evals.t) -> Alcotest.failf "%s: add_packed accepted %s" name what
    | exception Invalid_argument _ -> ()
  in
  let good = Codec.pack_evals ring client in
  rejects "a short share" (Bytes.sub good 0 (Bytes.length good - 1));
  rejects "an empty share" Bytes.empty;
  (* a first coefficient of 2^bits - 1, outside [0, q) *)
  let bits = Codec.bits_per_coeff q in
  if 1 lsl bits > q then begin
    let bad = Bytes.copy good in
    for b = 0 to bits - 1 do
      Bytes.set_uint8 bad (b lsr 3) (Bytes.get_uint8 bad (b lsr 3) lor (1 lsl (b land 7)))
    done;
    rejects "a coefficient >= q" bad
  end

(* --- evaluation paths at every nonzero point --------------------- *)

let r251 = Ring.of_prime ~p:251

(* Every point that survives the cyclic reduction has its slot: the
   [Share] entry points and the [Flat] read behind them return
   [Cyclic.eval] there, and the values interpolate back to the
   polynomial. *)
let every_point_suite ring name =
  let tab = table_of ring in
  let q = ring.Ring.order and n = ring.Ring.n in
  qtest ~count:10
    (name ^ ": eval_poly = eval_packed = Cyclic.eval at every point")
    (gen_cyclic ring)
    (fun c ->
      let v = phi ring c in
      let buf = Codec.pack_evals ring v in
      Cyclic.equal (Evals.to_cyclic ring v) c
      && List.for_all
           (fun x ->
             let reference = Cyclic.eval ring c x in
             let pt = Share.point ring x in
             Evals.get v (Evals.slot ring x) = reference
             && Share.eval_packed ring pt buf = reference
             && Flat.eval_share tab ~n ~slot:(Evals.slot ring x) buf = reference)
           (List.init (q - 1) (fun i -> i + 1)))

(* A share with two values outside [0, q) — q itself in slot 1 and
   2^bits - 1 in slot n - 2 — raises exactly what the evaluating path
   raised, whichever slot is read: the message naming the highest bad
   value on a field with byte tables, [Codec.unpack]'s without. *)
let test_bad_coefficient_same_error ring name () =
  let q = ring.Ring.order and n = ring.Ring.n in
  let bits = Codec.bits_per_coeff q in
  let buf = Codec.pack ~q (Array.make n 0) in
  let set_coeff i v =
    for b = 0 to bits - 1 do
      let pos = (i * bits) + b in
      if (v lsr b) land 1 = 1 then
        Bytes.set_uint8 buf (pos lsr 3)
          (Bytes.get_uint8 buf (pos lsr 3) lor (1 lsl (pos land 7)))
    done
  in
  set_coeff 1 q;
  set_coeff (n - 2) ((1 lsl bits) - 1);
  let raised f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: a coefficient >= q was accepted" name
    | exception Invalid_argument msg -> msg
  in
  let before =
    match ring.Ring.table with
    | Some _ ->
        Printf.sprintf "Flat.eval_share: decoded coefficient %d >= %d" ((1 lsl bits) - 1) q
    | None -> raised (fun () -> Cyclic.eval ring (Codec.unpack_cyclic ring buf) 1)
  in
  let paths =
    List.concat_map
      (fun x ->
        ( Printf.sprintf "Share.eval_packed at %d" x,
          fun () -> Share.eval_packed ring (Share.point ring x) buf )
        ::
        (match ring.Ring.table with
        | Some tab ->
            [
              ( Printf.sprintf "Flat.eval_share at %d" x,
                fun () -> Flat.eval_share tab ~n ~slot:(Evals.slot ring x) buf );
            ]
        | None -> []))
      [ 1; 2; q - 1 ]
  in
  List.iter
    (fun (what, f) -> Alcotest.(check string) (name ^ ": " ^ what) before (raised f))
    paths

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kernel"
    [
      ( "table",
        [
          Alcotest.test_case "F_83 table = field ops" `Quick
            (test_table_matches_field r83 "F83");
          Alcotest.test_case "GF(3^4) table = field ops" `Quick
            (test_table_matches_field r81 "GF81");
          Alcotest.test_case "no table above 256" `Quick test_no_table_above_256;
        ] );
      ("eval F83", eval_suite r83 "F83");
      ("eval GF81", eval_suite r81 "GF81");
      ( "validation",
        [
          Alcotest.test_case "eval_share rejects coeff >= q" `Quick
            test_eval_share_rejects_bad_coeff;
          Alcotest.test_case "F83 reconstruct rejects bad shares" `Quick
            (test_reconstruct_rejects r83 "F83");
          Alcotest.test_case "GF81 reconstruct rejects bad shares" `Quick
            (test_reconstruct_rejects r81 "GF81");
        ] );
      ("recon F83", reconstruct_suite r83 "F83");
      ("recon GF81", reconstruct_suite r81 "GF81");
      ("mul F83", mul_suite r83 "F83");
      ("mul GF81", mul_suite r81 "GF81");
      ( "combine",
        [
          Alcotest.test_case "F5 every share tuple, every subset" `Quick
            (test_combine_exhaustive r5 "F5");
          Alcotest.test_case "GF9 every share tuple, every subset" `Quick
            (test_combine_exhaustive r9 "GF9");
          combine_qcheck r83 "F83";
          combine_qcheck r256 "GF256";
          Alcotest.test_case "F83 rejects bad shares" `Quick
            (test_combine_rejects r83 "F83");
          Alcotest.test_case "GF256 rejects bad shares" `Quick
            (test_combine_rejects r256 "GF256");
        ] );
      ( "all points",
        List.map
          (fun (ring, name) -> every_point_suite ring name)
          [ (r5, "F5"); (r83, "F83"); (r251, "F251"); (r9, "GF9"); (r256, "GF256") ] );
      ( "bad coeff",
        List.map
          (fun (ring, name) ->
            Alcotest.test_case (name ^ " raises as before") `Quick
              (test_bad_coefficient_same_error ring name))
          [
            (r5, "F5");
            (r9, "GF9");
            (r81, "GF81");
            (r83, "F83");
            (r251, "F251");
            (r257, "F257");
          ] );
      ( "share",
        List.concat_map
          (fun (ring, name) ->
            share_suite ring name
            @ [
                Alcotest.test_case (name ^ " rejects zero and bad shares") `Quick
                  (test_share_rejects ring name);
              ])
          [
            (r5, "F5");
            (r9, "GF9");
            (r81, "GF81");
            (r83, "F83");
            (r256, "GF256");
            (r257, "F257");
          ] );
    ]
