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
