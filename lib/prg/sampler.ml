(* Both loops read the keystream strictly forward from block 0, each
   byte once.  Blocks are computed lazily into one 64-byte buffer. *)

(* The general loop: [width]-byte words, any byte order. *)
let fill_words cipher block ~width ~big_endian ~mask ~below ~modulo out =
  let counter = ref (-1) and off = ref 64 in
  let filled = ref 0 in
  while !filled < Array.length out do
    let v = ref 0 in
    for j = 0 to width - 1 do
      if !off = 64 then begin
        incr counter;
        Chacha20.block_into cipher ~counter:!counter block ~off:0;
        off := 0
      end;
      let b = Char.code (Bytes.unsafe_get block !off) in
      incr off;
      v := if big_endian then (!v lsl 8) lor b else !v lor (b lsl (8 * j))
    done;
    let v = !v land mask in
    if v < below then begin
      out.(!filled) <- v mod modulo;
      incr filled
    end
  done

(* One-byte draws from [block] into [out] from slot [filled], stopping
   once [out] is full; returns the new fill. *)
let scan_block block ~mask ~below ~modulo out filled =
  let filled = ref filled and i = ref 0 in
  let len = Array.length out in
  while !i < 64 && !filled < len do
    let v = Char.code (Bytes.unsafe_get block !i) land mask in
    if v < below then begin
      Array.unsafe_set out !filled (v mod modulo);
      incr filled
    end;
    incr i
  done;
  !filled

(* One-byte draws, a whole block at a time: the same stream as
   [fill_words ~width:1]. *)
let fill_bytes cipher block ~mask ~below ~modulo out =
  let filled = ref 0 and counter = ref 0 in
  while !filled < Array.length out do
    Chacha20.block_into cipher ~counter:!counter block ~off:0;
    filled := scan_block block ~mask ~below ~modulo out !filled;
    incr counter
  done

let fill cipher ~width ~big_endian ~mask ~below ~modulo out =
  if width < 1 || width > 8 then invalid_arg "Sampler.fill: width outside [1, 8]";
  let block = Bytes.create 64 in
  if width = 1 then fill_bytes cipher block ~mask ~below ~modulo out
  else fill_words cipher block ~width ~big_endian ~mask ~below ~modulo out

(* --- slots: random access, one word per draw ---

   Slot [j] is the [width]-byte little-endian word at offset
   [(j mod per_block) * width] of block [j / per_block]; no word
   straddles two blocks (the last [64 mod width] bytes of a block are
   unused).  A rejected word is redrawn from the slot's own overflow
   blocks, [main_blocks + j + k * count] for k = 0, 1, ..., scanned a
   word at a time, so every slot reads keystream bytes no other slot
   reads. *)

let bytes_needed q =
  let rec go k cap = if cap >= q then k else go (k + 1) (cap * 256) in
  go 1 256

type slots = {
  q : int;
  count : int;
  width : int;
  per_block : int;
  main_blocks : int;
  below : int;
  recip : int;  (* ceil (2^shift / q) *)
  shift : int;  (* 0: reduce with [mod] *)
}

let slots ~q ~count =
  if q < 2 then invalid_arg "Sampler.slots: field order must be >= 2";
  if count < 0 then invalid_arg "Sampler.slots: negative count";
  let width = bytes_needed q + 1 in
  if width > 7 then invalid_arg "Sampler.slots: field order too large";
  let cap = 1 lsl (8 * width) in
  let per_block = 64 / width in
  (* A word v < 2^k reduces without a division: with q <= 2^l,
     shift = k + l and recip = ceil (2^shift / q), (v * recip) lsr shift
     is v / q, because v * (recip * q - 2^shift) < 2^k * q <= 2^shift.
     The product is below 2^(2k + 1) (recip <= 2^(k + 1)), so words of
     up to 3 bytes stay within a 63-bit int; wider ones use [mod]. *)
  let k = 8 * width in
  let l =
    let rec go l = if 1 lsl l >= q then l else go (l + 1) in
    go 1
  in
  let shift = if k + (k + 1) <= 62 then k + l else 0 in
  {
    q;
    count;
    width;
    per_block;
    main_blocks = (count + per_block - 1) / per_block;
    below = cap - (cap mod q);
    recip = (if shift = 0 then 0 else ((1 lsl shift) + q - 1) / q);
    shift;
  }

let slot_count s = s.count
let slot_block s j = j / s.per_block

(* Callers keep [off + width <= 64] on a block of at least 64 bytes
   ([slot_value] checks a block it is given), so the reads skip the
   bounds check. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external swap16 : int -> int = "%bswap16"

let[@inline] word block ~off ~width =
  if width = 2 then
    let v = unsafe_get16 block off in
    if Sys.big_endian then swap16 v else v
  else begin
    let v = ref 0 in
    for i = width - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get block (off + i))
    done;
    !v
  end

let[@inline] reduce s v =
  if s.shift = 0 then v mod s.q else v - (s.q * ((v * s.recip) lsr s.shift))

let overflow cipher s scratch j =
  let rec from_block k =
    let counter = s.main_blocks + j + (k * s.count) in
    Chacha20.block_into cipher ~counter scratch ~off:0;
    let rec scan i =
      if i = s.per_block then from_block (k + 1)
      else
        let v = word scratch ~off:(i * s.width) ~width:s.width in
        if v < s.below then reduce s v else scan (i + 1)
    in
    scan 0
  in
  from_block 0

let slot_value cipher s ~block ~scratch j =
  if j < 0 || j >= s.count then invalid_arg "Sampler.slot_value: slot out of range";
  if Bytes.length block < 64 then invalid_arg "Sampler.slot_value: block shorter than 64 bytes";
  let v = word block ~off:(j mod s.per_block * s.width) ~width:s.width in
  if v < s.below then reduce s v else overflow cipher s scratch j

(* The fields are read into locals once, so the per-slot loop is a
   word load, a compare and a multiply-shift. *)
let fill_slots cipher s out =
  if Array.length out <> s.count then invalid_arg "Sampler.fill_slots: wrong length";
  let block = Bytes.create 64 in
  let { q; count; width; per_block; main_blocks; below; recip; shift } = s in
  for b = 0 to main_blocks - 1 do
    Chacha20.block_into cipher ~counter:b block ~off:0;
    let first = b * per_block in
    for j = first to min count (first + per_block) - 1 do
      let v = word block ~off:((j - first) * width) ~width in
      Array.unsafe_set out j
        (if v >= below then overflow cipher s (Bytes.create 64) j
         else if shift = 0 then v mod q
         else v - (q * ((v * recip) lsr shift)))
    done
  done
