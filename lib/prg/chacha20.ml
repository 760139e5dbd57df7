let key_length = 32
let nonce_length = 12
let mask32 = 0xFFFFFFFF

(* The key and nonce, validated once and kept as the 44 bytes
   key ++ nonce that the C core reads as the eleven little-endian words
   of the initial state. *)
type t = Bytes.t

let make fn ~key ~nonce =
  if Bytes.length key <> key_length then invalid_arg (fn ^ ": key must be 32 bytes");
  if Bytes.length nonce <> nonce_length then invalid_arg (fn ^ ": nonce must be 12 bytes");
  Bytes.cat key nonce

let create ~key ~nonce = make "Chacha20.create" ~key ~nonce

let set_nonce t nonce =
  if Bytes.length nonce <> nonce_length then
    invalid_arg "Chacha20.set_nonce: nonce must be 12 bytes";
  Bytes.blit nonce 0 t key_length nonce_length

(* Blocks [counter, counter + blocks) must all have a 32-bit counter. *)
let check_counter fn ~counter ~blocks =
  if counter < 0 then invalid_arg (fn ^ ": negative counter");
  if counter > mask32 || blocks - 1 > mask32 - counter then
    invalid_arg (fn ^ ": counter exceeds 2^32 - 1")

(* The core, in chacha20_stubs.c: reentrant, allocation-free, writing
   only [dst.[off] .. dst.[off + 63]].  [counter] must be in [0, 2^32)
   and [dst] must have 64 bytes from [off]; the callers check both. *)
external unsafe_block_into :
  t -> counter:(int[@untagged]) -> bytes -> off:(int[@untagged]) -> unit
  = "ssdb_chacha20_block_byte" "ssdb_chacha20_block"
[@@noalloc]

let block_into t ~counter dst ~off =
  check_counter "Chacha20.block_into" ~counter ~blocks:1;
  if off < 0 || off > Bytes.length dst - 64 then
    invalid_arg "Chacha20.block_into: fewer than 64 bytes at offset";
  unsafe_block_into t ~counter dst ~off

let block ~key ~counter ~nonce =
  let t = make "Chacha20.block" ~key ~nonce in
  check_counter "Chacha20.block" ~counter ~blocks:1;
  let out = Bytes.create 64 in
  unsafe_block_into t ~counter out ~off:0;
  out

let keystream ~key ~nonce ~counter len =
  if len < 0 then invalid_arg "Chacha20.keystream: negative length";
  let t = make "Chacha20.keystream" ~key ~nonce in
  let full = len / 64 and tail = len mod 64 in
  check_counter "Chacha20.keystream" ~counter ~blocks:(full + Bool.to_int (tail > 0));
  let out = Bytes.create len in
  for b = 0 to full - 1 do
    unsafe_block_into t ~counter:(counter + b) out ~off:(64 * b)
  done;
  if tail > 0 then begin
    let last = Bytes.create 64 in
    unsafe_block_into t ~counter:(counter + full) last ~off:0;
    Bytes.blit last 0 out (64 * full) tail
  end;
  out

let xor_with ~key ~nonce ~counter data =
  let out = keystream ~key ~nonce ~counter (Bytes.length data) in
  for i = 0 to Bytes.length data - 1 do
    Bytes.set_uint8 out i (Bytes.get_uint8 out i lxor Bytes.get_uint8 data i)
  done;
  out
