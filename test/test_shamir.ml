(* Threshold-sharing properties (lib/poly/shamir.ml): reconstruction
   exactness over both a prime field and a proper extension field,
   rejection of degenerate x-coordinates, below-threshold secrecy, and
   the evaluation linearity the sharded serving path rests on.  The
   code under test is the [Shamir.Make] functor body, which the
   F_(2^61-1) aggregate column instantiates too ([Numeric.Shamir]), so
   the exhaustive F_5 proofs cover the aggregate dealer as well. *)

module Ring = Secshare_poly.Ring
module Dense = Secshare_poly.Dense
module Shamir = Secshare_poly.Shamir

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let r83 = Ring.of_prime ~p:83
let r81 = Ring.of_prime_power ~p:3 ~e:4
let r5 = Ring.of_prime ~p:5

(* A dealer that serves draws from a pre-generated list — exactness
   properties hold for EVERY randomness, so qcheck picks it. *)
let gen_of_list draws =
  let cell = ref draws in
  fun () ->
    match !cell with
    | [] -> invalid_arg "test dealer exhausted"
    | d :: rest ->
        cell := rest;
        d

let xs_of_n n = List.init n (fun i -> i + 1)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- reconstruct ∘ share = id, over any t-subset --- *)

(* (secret, threshold, xs of a random t-subset drawn from n parties,
   dealer draws): shares the secret among n parties and keeps only the
   subset's shares. *)
let gen_instance ring =
  let open QCheck2.Gen in
  let field = int_range 0 (ring.Ring.order - 1) in
  let* s = field in
  let* t = int_range 1 5 in
  let* n = int_range t 8 in
  let* draws = list_repeat (t - 1) field in
  let* subset = shuffle_l (xs_of_n n) in
  let subset = List.filteri (fun i _ -> i < t) subset in
  return (s, t, n, subset, draws)

let reconstruct_suite ring name =
  [
    qtest
      (name ^ ": any t of n shares reconstruct the secret")
      (gen_instance ring)
      (fun (s, t, n, subset, draws) ->
        let shares =
          Shamir.share ring ~threshold:t ~xs:(xs_of_n n) ~gen:(gen_of_list draws) s
        in
        let pairs = List.map (fun x -> (x, List.nth shares (x - 1))) subset in
        Shamir.reconstruct ring pairs = ring.Ring.normalize s);
    qtest
      (name ^ ": all n shares lie on the dealt polynomial")
      (gen_instance ring)
      (fun (s, t, n, _, draws) ->
        let shares =
          Shamir.share ring ~threshold:t ~xs:(xs_of_n n) ~gen:(gen_of_list draws) s
        in
        let pairs = List.mapi (fun i v -> (i + 1, v)) shares in
        Shamir.reconstruct ring pairs = ring.Ring.normalize s);
    qtest
      (name ^ ": combine_vectors ∘ share_vector = id")
      QCheck2.Gen.(
        let field = int_range 0 (ring.Ring.order - 1) in
        let* t = int_range 1 4 in
        let* n = int_range t 6 in
        let* len = int_range 0 6 in
        let* coeffs = array_repeat len field in
        let* draws = list_repeat ((t - 1) * len) field in
        let* subset = shuffle_l (xs_of_n n) in
        let subset = List.filteri (fun i _ -> i < t) subset in
        return (t, n, subset, coeffs, draws))
      (fun (t, n, subset, coeffs, draws) ->
        let vectors =
          Shamir.share_vector ring ~threshold:t ~xs:(xs_of_n n)
            ~gen:(gen_of_list draws) coeffs
        in
        let kept = List.map (fun x -> List.nth vectors (x - 1)) subset in
        let lambdas = Shamir.lambdas_at_zero ring ~xs:subset in
        Shamir.combine_vectors ring ~lambdas kept
        = Array.map ring.Ring.normalize coeffs);
  ]

(* --- evaluation linearity: Σ λ_i · S_i(a) = S(a) ---

   The property the router uses: folding the t shards' kernel
   evaluations with the Lagrange multipliers gives the single server's
   evaluation, so containment tests are unchanged by sharding. *)

let linearity_suite ring name =
  [
    qtest
      (name ^ ": lambdas recombine evaluations, not just constants")
      QCheck2.Gen.(
        let field = int_range 0 (ring.Ring.order - 1) in
        let* t = int_range 1 4 in
        let* n = int_range t 6 in
        let* len = int_range 1 6 in
        let* coeffs = array_repeat len field in
        let* draws = list_repeat ((t - 1) * len) field in
        let* point = int_range 0 (ring.Ring.order - 1) in
        let* subset = shuffle_l (xs_of_n n) in
        let subset = List.filteri (fun i _ -> i < t) subset in
        return (t, n, subset, coeffs, draws, point))
      (fun (t, n, subset, coeffs, draws, point) ->
        let vectors =
          Shamir.share_vector ring ~threshold:t ~xs:(xs_of_n n)
            ~gen:(gen_of_list draws) coeffs
        in
        let eval v = Dense.eval ring (Dense.of_coeffs ring v) point in
        let lambdas = Shamir.lambdas_at_zero ring ~xs:subset in
        let folded =
          Shamir.combine ring ~lambdas
            (List.map (fun x -> eval (List.nth vectors (x - 1))) subset)
        in
        folded = eval coeffs);
    qtest
      (name ^ ": sharing is additively homomorphic")
      QCheck2.Gen.(
        let field = int_range 0 (ring.Ring.order - 1) in
        let* s1 = field in
        let* s2 = field in
        let* t = int_range 1 4 in
        let* draws1 = list_repeat (t - 1) field in
        let* draws2 = list_repeat (t - 1) field in
        return (s1, s2, t, draws1, draws2))
      (fun (s1, s2, t, draws1, draws2) ->
        let xs = xs_of_n t in
        let sh1 = Shamir.share ring ~threshold:t ~xs ~gen:(gen_of_list draws1) s1 in
        let sh2 = Shamir.share ring ~threshold:t ~xs ~gen:(gen_of_list draws2) s2 in
        let summed = List.map2 ring.Ring.add sh1 sh2 in
        Shamir.combine ring ~lambdas:(Shamir.lambdas_at_zero ring ~xs) summed
        = ring.Ring.add s1 s2);
  ]

(* --- degenerate x-coordinates are rejected --- *)

let gen0 () = 0

let test_rejects_duplicate_x () =
  check Alcotest.bool "share: duplicate x" true
    (raises_invalid (fun () ->
         Shamir.share r83 ~threshold:2 ~xs:[ 1; 2; 1 ] ~gen:gen0 7));
  check Alcotest.bool "share: duplicate after normalisation (84 ≡ 1)" true
    (raises_invalid (fun () ->
         Shamir.share r83 ~threshold:2 ~xs:[ 1; 84 ] ~gen:gen0 7));
  check Alcotest.bool "lambdas_at_zero: duplicate x" true
    (raises_invalid (fun () -> Shamir.lambdas_at_zero r83 ~xs:[ 3; 3 ]));
  check Alcotest.bool "reconstruct: duplicate x" true
    (raises_invalid (fun () -> Shamir.reconstruct r83 [ (1, 5); (1, 5) ]))

let test_rejects_zero_x () =
  check Alcotest.bool "share: x = 0 (would leak the secret)" true
    (raises_invalid (fun () ->
         Shamir.share r83 ~threshold:2 ~xs:[ 0; 1 ] ~gen:gen0 7));
  check Alcotest.bool "share: x ≡ 0 after normalisation" true
    (raises_invalid (fun () ->
         Shamir.share r83 ~threshold:2 ~xs:[ 83; 1 ] ~gen:gen0 7));
  check Alcotest.bool "lambdas_at_zero: empty xs" true
    (raises_invalid (fun () -> Shamir.lambdas_at_zero r83 ~xs:[]));
  check Alcotest.bool "reconstruct: empty" true
    (raises_invalid (fun () -> Shamir.reconstruct r83 []))

let test_rejects_bad_threshold () =
  check Alcotest.bool "threshold < 1" true
    (raises_invalid (fun () -> Shamir.share r83 ~threshold:0 ~xs:[ 1 ] ~gen:gen0 7));
  check Alcotest.bool "fewer parties than the threshold" true
    (raises_invalid (fun () -> Shamir.share r83 ~threshold:3 ~xs:[ 1; 2 ] ~gen:gen0 7));
  check Alcotest.bool "combine: length mismatch" true
    (raises_invalid (fun () -> Shamir.combine r83 ~lambdas:[ 1; 2 ] [ 3 ]))

(* --- below-threshold secrecy, exhaustively over F_5 ---

   For every secret s, the map (dealer randomness) → (any t-1 shares)
   is a bijection: the t-1 observed shares take every value combination
   exactly once whatever s is, so their joint distribution carries no
   information about the secret.  Small field, so just enumerate. *)

let shares_at ring ~threshold ~xs ~draws s =
  Shamir.share ring ~threshold ~xs ~gen:(gen_of_list draws) s

let test_secrecy_2_of_3 () =
  let q = r5.Ring.order in
  let observed s =
    List.sort compare
      (List.concat_map
         (fun a ->
           (* observe party 2's single share (t - 1 = 1 of them) *)
           match shares_at r5 ~threshold:2 ~xs:[ 1; 2; 3 ] ~draws:[ a ] s with
           | [ _; at2; _ ] -> [ at2 ]
           | _ -> assert false)
         (List.init q Fun.id))
  in
  let baseline = observed 0 in
  check Alcotest.(list int) "one share sweeps F_5 uniformly" (List.init q Fun.id)
    baseline;
  for s = 1 to q - 1 do
    check Alcotest.(list int)
      (Printf.sprintf "secret %d indistinguishable from secret 0" s)
      baseline (observed s)
  done

let test_secrecy_3_of_4 () =
  let q = r5.Ring.order in
  let observed s =
    let pairs = ref [] in
    for a1 = 0 to q - 1 do
      for a2 = 0 to q - 1 do
        match shares_at r5 ~threshold:3 ~xs:[ 1; 2; 3; 4 ] ~draws:[ a1; a2 ] s with
        | [ at1; _; at3; _ ] -> pairs := (at1, at3) :: !pairs
        | _ -> assert false
      done
    done;
    List.sort compare !pairs
  in
  let baseline = observed 0 in
  let all_pairs =
    List.sort compare
      (List.concat_map
         (fun a -> List.map (fun b -> (a, b)) (List.init q Fun.id))
         (List.init q Fun.id))
  in
  check
    Alcotest.(list (pair int int))
    "two shares sweep F_5 × F_5 uniformly" all_pairs baseline;
  for s = 1 to q - 1 do
    check
      Alcotest.(list (pair int int))
      (Printf.sprintf "secret %d indistinguishable from secret 0" s)
      baseline (observed s)
  done

let test_threshold_one_replicates () =
  let shares = shares_at r83 ~threshold:1 ~xs:[ 1; 2; 3 ] ~draws:[] 42 in
  check Alcotest.(list int) "t = 1 degenerates to replication" [ 42; 42; 42 ] shares

let () =
  Alcotest.run "shamir"
    [
      ("reconstruct-f83", reconstruct_suite r83 "F_83");
      ("reconstruct-gf81", reconstruct_suite r81 "GF(3^4)");
      ("linearity-f83", linearity_suite r83 "F_83");
      ("linearity-gf81", linearity_suite r81 "GF(3^4)");
      ( "edge-cases",
        [
          Alcotest.test_case "duplicate x rejected" `Quick test_rejects_duplicate_x;
          Alcotest.test_case "zero x rejected" `Quick test_rejects_zero_x;
          Alcotest.test_case "bad thresholds rejected" `Quick test_rejects_bad_threshold;
          Alcotest.test_case "threshold 1 replicates" `Quick test_threshold_one_replicates;
        ] );
      ( "secrecy",
        [
          Alcotest.test_case "t-1 shares independent of secret (2-of-3)" `Quick
            test_secrecy_2_of_3;
          Alcotest.test_case "t-1 shares independent of secret (3-of-4)" `Quick
            test_secrecy_3_of_4;
        ] );
    ]
