(* The byte stream the replaced samplers read is the keystream prefix
   [ks[0, first_chunk)] followed by [ks[64 * (first_chunk / 64), ...)]:
   their first refill restarted at block [first_chunk / 64], so when
   [first_chunk] is not a whole number of blocks, the tail of that
   block is read twice.  Reproduced here by rewinding to offset 0 of
   block [first_chunk / 64] once the first [first_chunk] bytes are
   consumed.  Blocks are computed lazily into one 64-byte buffer. *)

(* The general loop: [width]-byte words, any byte order. *)
let fill_words cipher block ~rewind_block ~rewind_at ~width ~big_endian ~mask ~below
    ~modulo out =
  let rewind = ref (rewind_at > 0) in
  let counter = ref (-1) and off = ref 0 and lim = ref 0 in
  let filled = ref 0 in
  while !filled < Array.length out do
    let v = ref 0 in
    for j = 0 to width - 1 do
      if !off = !lim then begin
        if !rewind && !counter = rewind_block then rewind := false
        else begin
          incr counter;
          Chacha20.block_into cipher ~counter:!counter block ~off:0
        end;
        off := 0;
        lim := if !rewind && !counter = rewind_block then rewind_at else 64
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

(* One-byte draws from bytes [0, lim) of [block] into [out] from slot
   [filled], stopping once [out] is full; returns the new fill. *)
let scan_block block ~lim ~mask ~below ~modulo out filled =
  let filled = ref filled and i = ref 0 in
  let len = Array.length out in
  while !i < lim && !filled < len do
    let v = Char.code (Bytes.unsafe_get block !i) land mask in
    if v < below then begin
      Array.unsafe_set out !filled (v mod modulo);
      incr filled
    end;
    incr i
  done;
  !filled

(* One-byte draws, a whole block at a time: the same stream as
   [fill_words ~width:1], with the rewind block computed once and
   scanned twice, [0, rewind_at) and then [0, 64). *)
let fill_bytes cipher block ~rewind_block ~rewind_at ~mask ~below ~modulo out =
  let filled = ref 0 and counter = ref 0 in
  while !filled < Array.length out do
    Chacha20.block_into cipher ~counter:!counter block ~off:0;
    if rewind_at > 0 && !counter = rewind_block then
      filled := scan_block block ~lim:rewind_at ~mask ~below ~modulo out !filled;
    filled := scan_block block ~lim:64 ~mask ~below ~modulo out !filled;
    incr counter
  done

let fill cipher ~first_chunk ~width ~big_endian ~mask ~below ~modulo out =
  if width < 1 || width > 8 then invalid_arg "Sampler.fill: width outside [1, 8]";
  if first_chunk < 0 then invalid_arg "Sampler.fill: negative first_chunk";
  let block = Bytes.create 64 in
  let rewind_block = first_chunk / 64 and rewind_at = first_chunk mod 64 in
  if width = 1 then
    fill_bytes cipher block ~rewind_block ~rewind_at ~mask ~below ~modulo out
  else
    fill_words cipher block ~rewind_block ~rewind_at ~width ~big_endian ~mask ~below
      ~modulo out
