let bytes_needed q =
  let rec go k cap = if cap >= q then k else go (k + 1) (cap * 256) in
  go 1 256

let cipher ~seed ~pre ~tag =
  let nonce = Bytes.make Chacha20.nonce_length '\000' in
  (* 8 bytes of pre, little-endian, then the 4-byte domain tag. *)
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string tag 0 nonce 8 4;
  Chacha20.create ~key:(Seed.to_bytes seed) ~nonce

let coefficients ~seed ~pre ~q ~count =
  if pre < 0 then invalid_arg "Node_prg: negative pre";
  if q < 2 then invalid_arg "Node_prg: field order must be >= 2";
  if count < 0 then invalid_arg "Node_prg: negative count";
  let k = bytes_needed q in
  let cap =
    let rec pow acc i = if i = 0 then acc else pow (acc * 256) (i - 1) in
    pow 1 k
  in
  let out = Array.make count 0 in
  (* k-byte big-endian words, uniform in [0, cap); keep those below the
     largest multiple of q *)
  Sampler.fill
    (cipher ~seed ~pre ~tag:"poly")
    ~width:k ~big_endian:true ~mask:(-1)
    ~below:(cap - (cap mod q))
    ~modulo:q out;
  out

let client_poly ~ring ~seed ~pre =
  let n = Secshare_poly.Ring.(ring.n) and q = Secshare_poly.Ring.(ring.order) in
  Secshare_poly.Cyclic.of_canonical ring (coefficients ~seed ~pre ~q ~count:n)
