(* 8 bytes of pre, little-endian, then the 4-byte domain tag. *)
let set_nonce nonce ~pre ~tag =
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string tag 0 nonce 8 4

let cipher ~seed ~pre ~tag =
  let nonce = Bytes.create Chacha20.nonce_length in
  set_nonce nonce ~pre ~tag;
  Chacha20.create ~key:(Seed.to_bytes seed) ~nonce

let check_pre pre = if pre < 0 then invalid_arg "Node_prg: negative pre"

let coefficients ~seed ~pre ~q ~count =
  check_pre pre;
  if q < 2 then invalid_arg "Node_prg: field order must be >= 2";
  if count < 0 then invalid_arg "Node_prg: negative count";
  let k = Sampler.bytes_needed q in
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

let client_tag = "slot"
let ring_slots (ring : Secshare_poly.Ring.t) = Sampler.slots ~q:ring.order ~count:ring.n

let client_poly ~ring ~seed ~pre =
  check_pre pre;
  let s = ring_slots ring in
  let out = Array.make (Sampler.slot_count s) 0 in
  Sampler.fill_slots (cipher ~seed ~pre ~tag:client_tag) s out;
  Secshare_poly.Evals.of_canonical ring out

(* One cipher state, its nonce rewritten in place per node, and two
   scratch blocks: a slot read allocates nothing.  A reader belongs to
   one client filter, used by one caller at a time. *)
type reader = {
  cipher : Chacha20.t;
  nonce : Bytes.t;
  slots : Sampler.slots;
  block : Bytes.t;
  scratch : Bytes.t;
}

let reader ~ring ~seed =
  {
    cipher = cipher ~seed ~pre:0 ~tag:client_tag;
    nonce = Bytes.create Chacha20.nonce_length;
    slots = ring_slots ring;
    block = Bytes.create 64;
    scratch = Bytes.create 64;
  }

let client_value r ~pre ~slot =
  check_pre pre;
  if slot < 0 || slot >= Sampler.slot_count r.slots then
    invalid_arg "Node_prg.client_value: slot out of range";
  set_nonce r.nonce ~pre ~tag:client_tag;
  Chacha20.set_nonce r.cipher r.nonce;
  Chacha20.block_into r.cipher ~counter:(Sampler.slot_block r.slots slot) r.block ~off:0;
  Sampler.slot_value r.cipher r.slots ~block:r.block ~scratch:r.scratch slot
