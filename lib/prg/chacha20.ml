let key_length = 32
let nonce_length = 12
let mask32 = 0xFFFFFFFF

(* The key and nonce as the eight plus three little-endian words of the
   initial state, parsed and validated once. *)
type t = {
  k0 : int;
  k1 : int;
  k2 : int;
  k3 : int;
  k4 : int;
  k5 : int;
  k6 : int;
  k7 : int;
  n0 : int;
  n1 : int;
  n2 : int;
}

let le32 buf off =
  Bytes.get_uint8 buf off
  lor (Bytes.get_uint8 buf (off + 1) lsl 8)
  lor (Bytes.get_uint8 buf (off + 2) lsl 16)
  lor (Bytes.get_uint8 buf (off + 3) lsl 24)

let make fn ~key ~nonce =
  if Bytes.length key <> key_length then invalid_arg (fn ^ ": key must be 32 bytes");
  if Bytes.length nonce <> nonce_length then invalid_arg (fn ^ ": nonce must be 12 bytes");
  {
    k0 = le32 key 0;
    k1 = le32 key 4;
    k2 = le32 key 8;
    k3 = le32 key 12;
    k4 = le32 key 16;
    k5 = le32 key 20;
    k6 = le32 key 24;
    k7 = le32 key 28;
    n0 = le32 nonce 0;
    n1 = le32 nonce 4;
    n2 = le32 nonce 8;
  }

let create ~key ~nonce = make "Chacha20.create" ~key ~nonce

(* Blocks [counter, counter + blocks) must all have a 32-bit counter. *)
let check_counter fn ~counter ~blocks =
  if counter < 0 then invalid_arg (fn ^ ": negative counter");
  if counter > mask32 || blocks - 1 > mask32 - counter then
    invalid_arg (fn ^ ": counter exceeds 2^32 - 1")

(* The core works on native 63-bit ints and never reduces a sum: it
   only needs each word mod 2^32, and 2^32 divides the 2^63 that native
   arithmetic wraps at, so [+], [lxor] and [lsl] leave the low 32 bits
   exact whatever sits above them.  Only the right shift of a rotation
   reads high bits, so it masks first; the output keeps just the low
   32 bits of every word. *)
let[@inline] rotl32 x k = (x lsl k) lor ((x land mask32) lsr (32 - k))

let[@inline] store_le32 buf off v =
  Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set buf (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set buf (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set buf (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

(* The core: the sixteen state words live in local refs (which the
   compiler keeps in registers or on the stack, never on the heap) and
   the quarter rounds of RFC 8439 §2.1 are written out in place, so a
   block allocates nothing.  [counter] must be in [0, 2^32) and [dst]
   must have 64 bytes from [off]; the callers check both. *)
let unsafe_block_into t ~counter dst ~off =
  let x0 = ref 0x61707865 and x1 = ref 0x3320646e in
  let x2 = ref 0x79622d32 and x3 = ref 0x6b206574 in
  let x4 = ref t.k0 and x5 = ref t.k1 and x6 = ref t.k2 and x7 = ref t.k3 in
  let x8 = ref t.k4 and x9 = ref t.k5 and x10 = ref t.k6 and x11 = ref t.k7 in
  let x12 = ref counter and x13 = ref t.n0 and x14 = ref t.n1 and x15 = ref t.n2 in
  for _ = 1 to 10 do
    (* column rounds: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15) *)
    x0 := !x0 + !x4; x12 := rotl32 (!x12 lxor !x0) 16;
    x8 := !x8 + !x12; x4 := rotl32 (!x4 lxor !x8) 12;
    x0 := !x0 + !x4; x12 := rotl32 (!x12 lxor !x0) 8;
    x8 := !x8 + !x12; x4 := rotl32 (!x4 lxor !x8) 7;
    x1 := !x1 + !x5; x13 := rotl32 (!x13 lxor !x1) 16;
    x9 := !x9 + !x13; x5 := rotl32 (!x5 lxor !x9) 12;
    x1 := !x1 + !x5; x13 := rotl32 (!x13 lxor !x1) 8;
    x9 := !x9 + !x13; x5 := rotl32 (!x5 lxor !x9) 7;
    x2 := !x2 + !x6; x14 := rotl32 (!x14 lxor !x2) 16;
    x10 := !x10 + !x14; x6 := rotl32 (!x6 lxor !x10) 12;
    x2 := !x2 + !x6; x14 := rotl32 (!x14 lxor !x2) 8;
    x10 := !x10 + !x14; x6 := rotl32 (!x6 lxor !x10) 7;
    x3 := !x3 + !x7; x15 := rotl32 (!x15 lxor !x3) 16;
    x11 := !x11 + !x15; x7 := rotl32 (!x7 lxor !x11) 12;
    x3 := !x3 + !x7; x15 := rotl32 (!x15 lxor !x3) 8;
    x11 := !x11 + !x15; x7 := rotl32 (!x7 lxor !x11) 7;
    (* diagonal rounds: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14) *)
    x0 := !x0 + !x5; x15 := rotl32 (!x15 lxor !x0) 16;
    x10 := !x10 + !x15; x5 := rotl32 (!x5 lxor !x10) 12;
    x0 := !x0 + !x5; x15 := rotl32 (!x15 lxor !x0) 8;
    x10 := !x10 + !x15; x5 := rotl32 (!x5 lxor !x10) 7;
    x1 := !x1 + !x6; x12 := rotl32 (!x12 lxor !x1) 16;
    x11 := !x11 + !x12; x6 := rotl32 (!x6 lxor !x11) 12;
    x1 := !x1 + !x6; x12 := rotl32 (!x12 lxor !x1) 8;
    x11 := !x11 + !x12; x6 := rotl32 (!x6 lxor !x11) 7;
    x2 := !x2 + !x7; x13 := rotl32 (!x13 lxor !x2) 16;
    x8 := !x8 + !x13; x7 := rotl32 (!x7 lxor !x8) 12;
    x2 := !x2 + !x7; x13 := rotl32 (!x13 lxor !x2) 8;
    x8 := !x8 + !x13; x7 := rotl32 (!x7 lxor !x8) 7;
    x3 := !x3 + !x4; x14 := rotl32 (!x14 lxor !x3) 16;
    x9 := !x9 + !x14; x4 := rotl32 (!x4 lxor !x9) 12;
    x3 := !x3 + !x4; x14 := rotl32 (!x14 lxor !x3) 8;
    x9 := !x9 + !x14; x4 := rotl32 (!x4 lxor !x9) 7
  done;
  (* serialise state + initial state, word by word *)
  store_le32 dst off (!x0 + 0x61707865);
  store_le32 dst (off + 4) (!x1 + 0x3320646e);
  store_le32 dst (off + 8) (!x2 + 0x79622d32);
  store_le32 dst (off + 12) (!x3 + 0x6b206574);
  store_le32 dst (off + 16) (!x4 + t.k0);
  store_le32 dst (off + 20) (!x5 + t.k1);
  store_le32 dst (off + 24) (!x6 + t.k2);
  store_le32 dst (off + 28) (!x7 + t.k3);
  store_le32 dst (off + 32) (!x8 + t.k4);
  store_le32 dst (off + 36) (!x9 + t.k5);
  store_le32 dst (off + 40) (!x10 + t.k6);
  store_le32 dst (off + 44) (!x11 + t.k7);
  store_le32 dst (off + 48) (!x12 + counter);
  store_le32 dst (off + 52) (!x13 + t.n0);
  store_le32 dst (off + 56) (!x14 + t.n1);
  store_le32 dst (off + 60) (!x15 + t.n2)
[@@ocamlformat "disable"]

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
