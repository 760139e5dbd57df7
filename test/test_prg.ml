module Splitmix = Secshare_prg.Splitmix64
module Xoshiro = Secshare_prg.Xoshiro
module Chacha = Secshare_prg.Chacha20
module Seed = Secshare_prg.Seed
module Node_prg = Secshare_prg.Node_prg
module Numeric = Secshare_core.Numeric

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let hex_of_bytes b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* --- ChaCha20 (RFC 8439) --- *)

let rfc_key =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    Bytes.set_uint8 b i i
  done;
  b

let rfc_nonce =
  let b = Bytes.make 12 '\000' in
  Bytes.set_uint8 b 3 0x09;
  Bytes.set_uint8 b 7 0x4a;
  b

let test_chacha_rfc_block () =
  (* RFC 8439 §2.3.2: serialised block for counter = 1 *)
  let expected =
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
  in
  let block = Chacha.block ~key:rfc_key ~counter:1 ~nonce:rfc_nonce in
  check Alcotest.string "rfc block" expected (hex_of_bytes block)

let test_chacha_rfc_keystream () =
  (* RFC 8439 §2.4.2: the 114-byte "sunscreen" plaintext encrypted from
     counter 1 spans two blocks and ends mid-block *)
  let nonce = Bytes.make 12 '\000' in
  Bytes.set_uint8 nonce 7 0x4a;
  let plaintext =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only one \
       tip for the future, sunscreen would be it."
  in
  let expected =
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
     f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
     07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
     5af90bbf74a35be6b40b8eedf2785e42874d"
  in
  check Alcotest.int "plaintext length" 114 (Bytes.length plaintext);
  let ciphertext = Chacha.xor_with ~key:rfc_key ~nonce ~counter:1 plaintext in
  check Alcotest.string "rfc ciphertext" expected (hex_of_bytes ciphertext)

let test_chacha_keystream_consistency () =
  (* keystream across block boundaries equals concatenated blocks *)
  let ks = Chacha.keystream ~key:rfc_key ~nonce:rfc_nonce ~counter:1 100 in
  let b1 = Chacha.block ~key:rfc_key ~counter:1 ~nonce:rfc_nonce in
  let b2 = Chacha.block ~key:rfc_key ~counter:2 ~nonce:rfc_nonce in
  check Alcotest.string "first 64" (hex_of_bytes b1) (hex_of_bytes (Bytes.sub ks 0 64));
  check Alcotest.string "tail 36"
    (hex_of_bytes (Bytes.sub b2 0 36))
    (hex_of_bytes (Bytes.sub ks 64 36))

let test_chacha_xor_involution () =
  let data = Bytes.of_string "attack at dawn; bring the polynomial shares" in
  let enc = Chacha.xor_with ~key:rfc_key ~nonce:rfc_nonce ~counter:7 data in
  check Alcotest.bool "ciphertext differs" false (Bytes.equal data enc);
  let dec = Chacha.xor_with ~key:rfc_key ~nonce:rfc_nonce ~counter:7 enc in
  check Alcotest.bool "roundtrip" true (Bytes.equal data dec)

let test_chacha_rejects () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20.block: key must be 32 bytes")
    (fun () -> ignore (Chacha.block ~key:(Bytes.create 16) ~counter:0 ~nonce:rfc_nonce));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20.block: nonce must be 12 bytes") (fun () ->
      ignore (Chacha.block ~key:rfc_key ~counter:0 ~nonce:(Bytes.create 8)));
  Alcotest.check_raises "negative counter"
    (Invalid_argument "Chacha20.block: negative counter") (fun () ->
      ignore (Chacha.block ~key:rfc_key ~counter:(-1) ~nonce:rfc_nonce))

(* The block counter is 32 bits: a counter of 2^32 must not wrap to
   block 0 (keystream reuse), and no keystream may run past it. *)
let test_chacha_counter_limit () =
  let raises name f =
    match f () with
    | (_ : bytes) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let last = 0xFFFFFFFF in
  raises "block 2^32" (fun () -> Chacha.block ~key:rfc_key ~counter:(last + 1) ~nonce:rfc_nonce);
  raises "keystream past 2^32 - 1" (fun () ->
      Chacha.keystream ~key:rfc_key ~nonce:rfc_nonce ~counter:last 65);
  raises "keystream from 2^32" (fun () ->
      Chacha.keystream ~key:rfc_key ~nonce:rfc_nonce ~counter:(last + 1) 1);
  raises "xor_with past 2^32 - 1" (fun () ->
      Chacha.xor_with ~key:rfc_key ~nonce:rfc_nonce ~counter:last (Bytes.make 100 'x'));
  (* the last block itself is fine, and differs from block 0 *)
  let top = Chacha.block ~key:rfc_key ~counter:last ~nonce:rfc_nonce in
  check Alcotest.string "keystream ends at the last block" (hex_of_bytes top)
    (hex_of_bytes (Chacha.keystream ~key:rfc_key ~nonce:rfc_nonce ~counter:last 64));
  check Alcotest.bool "last block is not block 0" false
    (Bytes.equal top (Chacha.block ~key:rfc_key ~counter:0 ~nonce:rfc_nonce))

(* The block function of RFC 8439 §2.3 transcribed over a word array,
   independent of the C core: every word is reduced mod 2^32 after each
   step. *)
let reference_block ~key ~nonce ~counter =
  let m = 0xFFFFFFFF in
  let word b i = Int32.to_int (Bytes.get_int32_le b (4 * i)) land m in
  let init =
    Array.concat
      [
        [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |];
        Array.init 8 (word key);
        [| counter |];
        Array.init 3 (word nonce);
      ]
  in
  let x = Array.copy init in
  let rotl v k = ((v lsl k) lor (v lsr (32 - k))) land m in
  let qr a b c d =
    x.(a) <- (x.(a) + x.(b)) land m;
    x.(d) <- rotl (x.(d) lxor x.(a)) 16;
    x.(c) <- (x.(c) + x.(d)) land m;
    x.(b) <- rotl (x.(b) lxor x.(c)) 12;
    x.(a) <- (x.(a) + x.(b)) land m;
    x.(d) <- rotl (x.(d) lxor x.(a)) 8;
    x.(c) <- (x.(c) + x.(d)) land m;
    x.(b) <- rotl (x.(b) lxor x.(c)) 7
  in
  for _ = 1 to 10 do
    qr 0 4 8 12;
    qr 1 5 9 13;
    qr 2 6 10 14;
    qr 3 7 11 15;
    qr 0 5 10 15;
    qr 1 6 11 12;
    qr 2 7 8 13;
    qr 3 4 9 14
  done;
  let out = Bytes.create 64 in
  Array.iteri
    (fun i v -> Bytes.set_int32_le out (4 * i) (Int32.of_int ((v + init.(i)) land m)))
    x;
  out

(* The C core equals the transcription on random keys and nonces at the
   first two counters and the last one, and [block_into] writes exactly
   its 64 bytes: the guard bytes on either side stay untouched. *)
let test_chacha_core_matches_reference =
  qtest ~count:200 "C core = RFC transcription"
    QCheck2.Gen.(pair (string_size (return 32)) (string_size (return 12)))
    (fun (key, nonce) ->
      let key = Bytes.of_string key and nonce = Bytes.of_string nonce in
      let cipher = Chacha.create ~key ~nonce in
      List.for_all
        (fun counter ->
          let dst = Bytes.make 80 '\xa5' in
          Chacha.block_into cipher ~counter dst ~off:7;
          Bytes.equal (Bytes.sub dst 7 64) (reference_block ~key ~nonce ~counter)
          && Bytes.equal (Bytes.sub dst 0 7) (Bytes.make 7 '\xa5')
          && Bytes.equal (Bytes.sub dst 71 9) (Bytes.make 9 '\xa5'))
        [ 0; 1; 0xFFFFFFFF ])

(* --- SplitMix64 / xoshiro --- *)

let test_splitmix_reference () =
  (* Reference outputs for seed 1234567 (from the public-domain C
     implementation by Vigna). *)
  let g = Splitmix.create 1234567L in
  let got = List.init 3 (fun _ -> Splitmix.next g) in
  let expected = [ 6457827717110365317L; 3203168211198807973L; -8629252141511181193L ] in
  List.iter2 (fun e g -> check Alcotest.int64 "splitmix ref" e g) expected got

let test_xoshiro_regression () =
  (* pinned stream for seed 42 (guards refactors) *)
  let g = Xoshiro.create 42L in
  let got = List.init 3 (fun _ -> Xoshiro.next g) in
  let expected = [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ] in
  List.iter2 (fun e v -> check Alcotest.int64 "xoshiro regression" e v) expected got

let test_splitmix_determinism () =
  let a = Splitmix.create 42L and b = Splitmix.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_prng_bounds () =
  let g = Xoshiro.create 7L in
  for _ = 1 to 1000 do
    let v = Xoshiro.next_int g ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  let s = Splitmix.create 7L in
  for _ = 1 to 1000 do
    let v = Splitmix.next_int s ~bound:3 in
    if v < 0 || v >= 3 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_bound_errors () =
  let g = Xoshiro.create 7L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Xoshiro.next_int: bound must be positive")
    (fun () -> ignore (Xoshiro.next_int g ~bound:0))

let test_xoshiro_copy_independent () =
  let a = Xoshiro.create 99L in
  ignore (Xoshiro.next a);
  let b = Xoshiro.copy a in
  let va = Xoshiro.next a in
  let vb = Xoshiro.next b in
  check Alcotest.int64 "copy continues identically" va vb;
  (* advancing [a] must not advance [b]: skip one output on [a] and the
     streams line up shifted by one *)
  ignore (Xoshiro.next a);
  let va2 = Xoshiro.next a in
  ignore (Xoshiro.next b);
  let vb2 = Xoshiro.next b in
  check Alcotest.int64 "copies stay in lockstep" va2 vb2

let test_xoshiro_all_zero_rejected () =
  Alcotest.check_raises "zero state" (Invalid_argument "Xoshiro.of_state: all-zero state is invalid")
    (fun () -> ignore (Xoshiro.of_state [| 0L; 0L; 0L; 0L |]))

let test_float_range () =
  let g = Xoshiro.create 3L in
  for _ = 1 to 1000 do
    let f = Xoshiro.next_float g in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

(* --- seeds --- *)

let test_seed_hex_roundtrip () =
  let seed = Seed.of_passphrase "hello" in
  match Seed.of_hex (Seed.to_hex seed) with
  | Ok seed' -> check Alcotest.bool "roundtrip" true (Seed.equal seed seed')
  | Error e -> Alcotest.fail e

let test_seed_hex_errors () =
  (match Seed.of_hex "abcd" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short hex accepted");
  match Seed.of_hex (String.make 64 'g') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-hex accepted"

let test_seed_passphrase_deterministic () =
  check Alcotest.bool "same phrase same seed" true
    (Seed.equal (Seed.of_passphrase "p1") (Seed.of_passphrase "p1"));
  check Alcotest.bool "different phrase different seed" false
    (Seed.equal (Seed.of_passphrase "p1") (Seed.of_passphrase "p2"))

let test_seed_file_roundtrip () =
  let path = Filename.temp_file "seed" ".hex" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let seed = Test_support.fresh_seed () in
      Seed.save path seed;
      match Seed.load path with
      | Ok seed' -> check Alcotest.bool "roundtrip" true (Seed.equal seed seed')
      | Error e -> Alcotest.fail e)

let test_seed_generate_distinct () =
  check Alcotest.bool "two fresh seeds differ" false
    (Seed.equal (Test_support.fresh_seed ()) (Test_support.fresh_seed ()))

(* --- node PRG --- *)

let seed_a = Seed.of_passphrase "node-prg-a"
let seed_b = Seed.of_passphrase "node-prg-b"

let test_node_prg_deterministic () =
  let c1 = Node_prg.coefficients ~seed:seed_a ~pre:17 ~q:83 ~count:82 in
  let c2 = Node_prg.coefficients ~seed:seed_a ~pre:17 ~q:83 ~count:82 in
  check Alcotest.(array int) "deterministic" c1 c2

let test_node_prg_domain_separation () =
  let c1 = Node_prg.coefficients ~seed:seed_a ~pre:17 ~q:83 ~count:82 in
  let c2 = Node_prg.coefficients ~seed:seed_a ~pre:18 ~q:83 ~count:82 in
  let c3 = Node_prg.coefficients ~seed:seed_b ~pre:17 ~q:83 ~count:82 in
  check Alcotest.bool "different pre differs" false (c1 = c2);
  check Alcotest.bool "different seed differs" false (c1 = c3)

let test_node_prg_range () =
  List.iter
    (fun q ->
      let coeffs = Node_prg.coefficients ~seed:seed_a ~pre:3 ~q ~count:500 in
      Array.iter
        (fun c -> if c < 0 || c >= q then Alcotest.failf "q=%d: %d out of range" q c)
        coeffs)
    [ 2; 5; 29; 83; 257; 1021 ]

let test_node_prg_uniformity () =
  (* crude chi-square-ish check: each residue of F_5 should get roughly
     1/5 of 10_000 draws (within 20%) *)
  let q = 5 and count = 10_000 in
  let coeffs = Node_prg.coefficients ~seed:seed_a ~pre:0 ~q ~count in
  let buckets = Array.make q 0 in
  Array.iter (fun c -> buckets.(c) <- buckets.(c) + 1) coeffs;
  Array.iteri
    (fun v n ->
      let expected = count / q in
      if abs (n - expected) > expected / 5 then
        Alcotest.failf "value %d drawn %d times (expected ~%d)" v n expected)
    buckets

let test_node_prg_rejects () =
  Alcotest.check_raises "negative pre" (Invalid_argument "Node_prg: negative pre")
    (fun () -> ignore (Node_prg.coefficients ~seed:seed_a ~pre:(-1) ~q:5 ~count:1))

(* The whole client share and its single slots are one stream. *)
let test_client_poly_matches_coefficients () =
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let poly = Node_prg.client_poly ~ring ~seed:seed_a ~pre:9 in
  let reader = Node_prg.reader ~ring ~seed:seed_a in
  check
    Alcotest.(array int)
    "same values" (Secshare_poly.Evals.to_int_array poly)
    (Array.init 82 (fun slot -> Node_prg.client_value reader ~pre:9 ~slot))

(* --- the PRG stream, pinned bit for bit ---------------------------- *)

(* Digests of the coefficient and numeric streams.  Any change to the
   keystream, the nonce or the rejection rule changes every stored
   share, so these must never be regenerated to make a test pass.  All
   but two were computed before the sampler was rewritten; q = 129 and
   q = 32769 were re-pinned once, when the sampler stopped re-reading
   keystream bytes (see [test_sampler_every_q]). *)

let digest_ints arrays =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
             arrays)))

let golden_pres = [ 0; 7; 4242 ]

let node_prg_digest draw q =
  digest_ints
    (List.concat_map
       (fun pre ->
         List.map (fun count -> draw ~seed:seed_a ~pre ~q ~count) [ 1; 40; 82; 500 ])
       golden_pres)

(* q = 129 and q = 32769 reject about half their draws, so they read
   past the old sampler's first chunk at every count *)
let node_prg_golden =
  [
    (2, "f8d753a9e98084d84e587aefe25a0854");
    (5, "a951b30c0bfe15d379ae614f2244b3ce");
    (29, "551a706932da0ea47bc81f395ca52ff1");
    (81, "726ee01aaf7d34d7ac32af51acedc4eb");
    (83, "c97de23f3042a4c495061389fdd2bba8");
    (129, "f5e7c6d8b02c863cd6dbd0bb94cf4242");
    (257, "338d8572562f8537479ac04d068514ee");
    (1021, "832ad9135b9659a16542880d5a4caf1b");
    (32769, "3bf70c1d31b5dd6473f0a13c770b7fb5");
  ]

(* The sampler's specification, written without its code: the
   keystream of [(seed, pre, tag)] as [Chacha.keystream] hands it out,
   from block 0, each byte read once.  Returns the byte reader and a
   count of the bytes read so far. *)
let forward_stream ~seed ~pre ~tag =
  let key = Seed.to_bytes seed in
  let nonce = Bytes.make Chacha.nonce_length '\000' in
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string tag 0 nonce 8 4;
  let block = ref Bytes.empty and read = ref 0 in
  let next () =
    if !read mod 64 = 0 then
      block := Chacha.keystream ~key ~nonce ~counter:(!read / 64) 64;
    let b = Bytes.get_uint8 !block (!read mod 64) in
    incr read;
    b
  in
  (next, fun () -> !read)

(* Coefficients in [0, q): the next [k] bytes as a big-endian word, [k]
   the fewest bytes covering [q], kept below the largest multiple of
   [q] under [256^k] and reduced mod [q].  Also returns the bytes
   read. *)
let forward_coefficients ~seed ~pre ~q ~count =
  let next, read = forward_stream ~seed ~pre ~tag:"poly" in
  let k = if q <= 256 then 1 else if q <= 65536 then 2 else 3 in
  let cap = 1 lsl (8 * k) in
  let rec draw () =
    let v = ref 0 in
    for _ = 1 to k do
      v := (!v lsl 8) lor next ()
    done;
    if !v < cap - (cap mod q) then !v mod q else draw ()
  in
  let coeffs = Array.init count (fun _ -> draw ()) in
  (coeffs, read ())

let forward ~seed ~pre ~q ~count = fst (forward_coefficients ~seed ~pre ~q ~count)

(* Elements of F_M, M = 2^61 - 1: the next 8 bytes as a little-endian
   word, masked to 61 bits, kept below M. *)
let forward_numeric ~seed ~pre ~tag ~count =
  let next, _ = forward_stream ~seed ~pre ~tag in
  let rec draw () =
    let v = ref 0 in
    for j = 0 to 7 do
      v := !v lor (next () lsl (8 * j))
    done;
    let v = !v land Numeric.modulus in
    if v < Numeric.modulus then v else draw ()
  in
  Array.init count (fun _ -> draw ())

(* The pins hold for the sampler and for its forward transcription. *)
let test_node_prg_golden () =
  List.iter
    (fun (q, expected) ->
      check Alcotest.string (Printf.sprintf "q=%d" q) expected
        (node_prg_digest Node_prg.coefficients q);
      check Alcotest.string (Printf.sprintf "q=%d, forward stream" q) expected
        (node_prg_digest forward q))
    node_prg_golden

let test_numeric_golden () =
  check Alcotest.string "blind" "fd8f96e20feb2773c0683b7eb28b4630"
    (digest_ints [ Array.init 64 (fun pre -> Numeric.blind ~seed:seed_a ~pre) ]);
  check Alcotest.string "dealer_draws" "47b19b493165d06ba319c2eec555b566"
    (digest_ints
       (List.concat_map
          (fun pre ->
            List.map
              (fun count -> Numeric.dealer_draws ~seed:seed_a ~pre ~count)
              [ 1; 2; 5; 40 ])
          golden_pres))

(* Every field order from 2 to 1100 (one- and two-byte words, every
   rejection rate between), at the ring dimension q - 1 the client
   shares use and at 3q/2, 20 pres each: the sampler equals the forward
   transcription.  The sampler before the rewrite drew [2 * count * k]
   bytes, then refilled from the start of the block that prefix ended
   in, reading its head a second time; the test counts the draws that
   ran past such a mid-block prefix, so the stream where the two
   samplers differ is known to be covered (with this seed it is, at
   q = 131 and q = 137 among others). *)
let test_sampler_every_q () =
  let overran = Array.make 1101 0 in
  for q = 2 to 1100 do
    List.iter
      (fun count ->
        for pre = 0 to 19 do
          let expected, read = forward_coefficients ~seed:seed_a ~pre ~q ~count in
          if Node_prg.coefficients ~seed:seed_a ~pre ~q ~count <> expected then
            Alcotest.failf "q=%d count=%d pre=%d: sampler differs from the forward stream"
              q count pre;
          let prefix = max 64 (2 * count * if q <= 256 then 1 else 2) in
          if prefix mod 64 <> 0 && read > prefix then overran.(q) <- overran.(q) + 1
        done)
      [ q - 1; 3 * q / 2 ]
  done;
  List.iter
    (fun q ->
      check Alcotest.bool
        (Printf.sprintf "q=%d: draws ran past a mid-block prefix" q)
        true
        (overran.(q) > 0))
    [ 131; 137 ];
  for pre = 0 to 199 do
    check Alcotest.int (Printf.sprintf "blind pre=%d" pre)
      (forward_numeric ~seed:seed_a ~pre ~tag:"nval" ~count:1).(0)
      (Numeric.blind ~seed:seed_a ~pre)
  done;
  for pre = 0 to 19 do
    List.iter
      (fun count ->
        check
          Alcotest.(array int)
          (Printf.sprintf "dealer_draws pre=%d count=%d" pre count)
          (forward_numeric ~seed:seed_a ~pre ~tag:"ndea" ~count)
          (Numeric.dealer_draws ~seed:seed_a ~pre ~count))
      [ 0; 1; 2; 3; 8; 9; 40; 100 ]
  done

(* The client share's slot layout, written without its code: slot [j]
   is the [w]-byte little-endian word at [(j mod per) * w] of block
   [j / per] of the "slot" stream, [w] one more than the fewest bytes
   covering [q] and [per = 64 / w]; it is accepted below the largest
   multiple of [q] under [2^(8w)] and reduced mod [q], and a rejected
   slot scans the words of blocks [main + j + k * count], k = 0, 1, ...,
   in order.  Returns the values and the slots that were redrawn. *)
let forward_slots ~seed ~pre ~q ~count =
  let key = Seed.to_bytes seed in
  let nonce = Bytes.make Chacha.nonce_length '\000' in
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string "slot" 0 nonce 8 4;
  let w = (if q <= 256 then 1 else if q <= 65536 then 2 else 3) + 1 in
  let per = 64 / w in
  let main = (count + per - 1) / per in
  let cap = 1 lsl (8 * w) in
  let word counter i =
    let block = Chacha.keystream ~key ~nonce ~counter 64 in
    let v = ref 0 in
    for b = 0 to w - 1 do
      v := !v lor (Bytes.get_uint8 block ((i * w) + b) lsl (8 * b))
    done;
    !v
  in
  let accepted v = v < cap - (cap mod q) in
  let redrawn = ref [] in
  let values =
    Array.init count (fun j ->
        let v = word (j / per) (j mod per) in
        if accepted v then v mod q
        else begin
          redrawn := j :: !redrawn;
          let rec scan k i =
            if i = per then scan (k + 1) 0
            else
              let v = word (main + j + (k * count)) i in
              if accepted v then v mod q else scan k (i + 1)
          in
          scan 0 0
        end)
  in
  (values, List.rev !redrawn)

let slot_orders = [ 2; 4; 5; 9; 83; 131; 256; 257; 1024 ]

(* At every order, over 40 pres: the full share equals the
   transcription, and every single slot read (slots taken in reverse,
   so a reader crosses blocks both ways) equals the same slot of the
   full share.  At q = 83 and q = 131 some slot of these pres has its
   main word rejected, so the overflow path is covered. *)
let test_slots_match_forward () =
  List.iter
    (fun q ->
      let ring = Secshare_poly.Ring.of_order q |> Result.get_ok in
      let count = q - 1 in
      let reader = Node_prg.reader ~ring ~seed:seed_a in
      let redrawn = ref 0 in
      for pre = 0 to 39 do
        let expected, rejected = forward_slots ~seed:seed_a ~pre ~q ~count in
        redrawn := !redrawn + List.length rejected;
        let full = Secshare_poly.Evals.to_int_array (Node_prg.client_poly ~ring ~seed:seed_a ~pre) in
        if full <> expected then
          Alcotest.failf "q=%d pre=%d: client_poly differs from the slot transcription" q pre;
        for slot = count - 1 downto 0 do
          if Node_prg.client_value reader ~pre ~slot <> full.(slot) then
            Alcotest.failf "q=%d pre=%d slot=%d: one slot differs from the full share" q pre slot
        done
      done;
      if List.mem q [ 83; 131 ] then
        check Alcotest.bool (Printf.sprintf "q=%d: a rejected slot was redrawn" q) true
          (!redrawn > 0))
    slot_orders

(* Digests of the client slot stream at every order above, over the
   golden pres.  Any change to the layout, the nonce tag or the
   rejection rule changes every stored share. *)
let slot_golden =
  [
    (2, "afc41ce51197d6175ca4953fdbb8157e");
    (4, "18135aface0dfc88c40129656a2ab204");
    (5, "a118f7e1c26a9b514162dd47af35e424");
    (9, "bb1ff65c35b3ce717beca34cf32a79f4");
    (83, "f19757f78b8f0672b7cbb1836c215204");
    (131, "ed66e8cadf64bf9b14cb918f76803de4");
    (256, "d4248d78273b06d9cb95a185ce5bbada");
    (257, "8c381e559e6049e1ed047dfec78f30cf");
    (1024, "4c27ecf58bcbb86aa5519b326894fdd2");
  ]

let test_slot_golden () =
  List.iter
    (fun (q, expected) ->
      let ring = Secshare_poly.Ring.of_order q |> Result.get_ok in
      let digest =
        digest_ints
          (List.map
             (fun pre ->
               Secshare_poly.Evals.to_int_array (Node_prg.client_poly ~ring ~seed:seed_a ~pre))
             golden_pres)
      in
      check Alcotest.string (Printf.sprintf "q=%d" q) expected digest;
      check Alcotest.string (Printf.sprintf "q=%d, transcription" q) expected
        (digest_ints
           (List.map (fun pre -> fst (forward_slots ~seed:seed_a ~pre ~q ~count:(q - 1))) golden_pres)))
    slot_golden

let test_client_value_rejects () =
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let reader = Node_prg.reader ~ring ~seed:seed_a in
  List.iter
    (fun (what, pre, slot) ->
      match Node_prg.client_value reader ~pre ~slot with
      | (_ : int) -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [ ("slot -1", 0, -1); ("slot q - 1", 0, 82); ("pre -1", -1, 0) ];
  (* the word reads are unchecked, so a short block must be refused *)
  let cipher = Node_prg.cipher ~seed:seed_a ~pre:0 ~tag:"slot" in
  Alcotest.check_raises "short block"
    (Invalid_argument "Sampler.slot_value: block shorter than 64 bytes") (fun () ->
      ignore
        (Secshare_prg.Sampler.slot_value cipher (Secshare_prg.Sampler.slots ~q:83 ~count:82)
           ~block:(Bytes.create 63)
           ~scratch:(Bytes.create 64) 0))

let gen_seed =
  QCheck2.Gen.(map (fun s -> Seed.of_bytes (Bytes.of_string s)) (string_size (return 32)))

let sampler_matches_reference ~ring name =
  let q = ring.Secshare_poly.Ring.order in
  qtest ~count:200
    (name ^ ": client_poly = reference sampler")
    QCheck2.Gen.(triple gen_seed (int_range 0 1_000_000) (int_range 0 (3 * q)))
    (fun (seed, pre, count) ->
      Node_prg.coefficients ~seed ~pre ~q ~count = forward ~seed ~pre ~q ~count
      && Secshare_poly.Evals.to_int_array (Node_prg.client_poly ~ring ~seed ~pre)
         = fst (forward_slots ~seed ~pre ~q ~count:ring.Secshare_poly.Ring.n))

let () =
  Alcotest.run "prg"
    [
      ( "chacha20",
        [
          Alcotest.test_case "RFC 8439 block vector" `Quick test_chacha_rfc_block;
          Alcotest.test_case "keystream consistency" `Quick test_chacha_keystream_consistency;
          Alcotest.test_case "xor involution" `Quick test_chacha_xor_involution;
          Alcotest.test_case "input validation" `Quick test_chacha_rejects;
          Alcotest.test_case "RFC 8439 multi-block keystream" `Quick test_chacha_rfc_keystream;
          Alcotest.test_case "32-bit counter limit" `Quick test_chacha_counter_limit;
          test_chacha_core_matches_reference;
        ] );
      ( "generators",
        [
          Alcotest.test_case "splitmix reference outputs" `Quick test_splitmix_reference;
          Alcotest.test_case "xoshiro pinned stream" `Quick test_xoshiro_regression;
          Alcotest.test_case "splitmix determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "bounded draws in range" `Quick test_prng_bounds;
          Alcotest.test_case "bound validation" `Quick test_prng_bound_errors;
          Alcotest.test_case "copy independence" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "all-zero state rejected" `Quick test_xoshiro_all_zero_rejected;
          Alcotest.test_case "float range" `Quick test_float_range;
          qtest "pick stays in array"
            QCheck2.Gen.(pair (int_range 1 20) (int_range 0 1000))
            (fun (len, seed) ->
              let arr = Array.init len Fun.id in
              let g = Xoshiro.create (Int64.of_int seed) in
              let v = Xoshiro.pick g arr in
              v >= 0 && v < len);
        ] );
      ( "seed",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_seed_hex_roundtrip;
          Alcotest.test_case "hex errors" `Quick test_seed_hex_errors;
          Alcotest.test_case "passphrase determinism" `Quick test_seed_passphrase_deterministic;
          Alcotest.test_case "file roundtrip" `Quick test_seed_file_roundtrip;
          Alcotest.test_case "fresh seeds distinct" `Quick test_seed_generate_distinct;
        ] );
      ( "node prg",
        [
          Alcotest.test_case "deterministic" `Quick test_node_prg_deterministic;
          Alcotest.test_case "domain separation" `Quick test_node_prg_domain_separation;
          Alcotest.test_case "range" `Quick test_node_prg_range;
          Alcotest.test_case "rough uniformity" `Quick test_node_prg_uniformity;
          Alcotest.test_case "input validation" `Quick test_node_prg_rejects;
          Alcotest.test_case "client_poly consistency" `Quick test_client_poly_matches_coefficients;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "coefficient digests" `Quick test_node_prg_golden;
          Alcotest.test_case "numeric digests" `Quick test_numeric_golden;
          Alcotest.test_case "sampler = forward stream at small q" `Quick
            test_sampler_every_q;
          Alcotest.test_case "client slots = slot transcription" `Quick
            test_slots_match_forward;
          Alcotest.test_case "client slot digests" `Quick test_slot_golden;
          Alcotest.test_case "client_value rejects bad slots" `Quick
            test_client_value_rejects;
          sampler_matches_reference ~ring:(Secshare_poly.Ring.of_prime ~p:83) "F83";
          sampler_matches_reference ~ring:(Secshare_poly.Ring.of_prime_power ~p:3 ~e:4) "GF81";
        ] );
    ]
