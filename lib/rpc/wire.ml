exception Decode_error of string

(* Bytes written so far are [buf.[0 .. len - 1]].  A writer sized to
   its message ([?size]) never grows, and [contents] then hands its
   buffer over without a copy: one allocation per message. *)
type writer = { mutable buf : Bytes.t; mutable len : int }
type reader = { src : string; mutable pos : int }

let writer ?(size = 256) () = { buf = Bytes.create (max 1 size); len = 0 }

let contents w =
  if w.len = Bytes.length w.buf then begin
    let s = Bytes.unsafe_to_string w.buf in
    w.buf <- Bytes.empty;
    w.len <- 0;
    s
  end
  else Bytes.sub_string w.buf 0 w.len

let reserve w n =
  let cap = Bytes.length w.buf in
  if w.len + n > cap then begin
    let buf = Bytes.create (max (w.len + n) (2 * cap)) in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let write_u8 w v =
  reserve w 1;
  Bytes.set_uint8 w.buf w.len (v land 0xFF);
  w.len <- w.len + 1

let write_u32 w v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Wire.write_u32: %d out of range" v);
  reserve w 4;
  let signed = if v > 0x7FFFFFFF then v - 0x100000000 else v in
  Bytes.set_int32_le w.buf w.len (Int32.of_int signed);
  w.len <- w.len + 4

let write_i64 w v =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len (Int64.of_int v);
  w.len <- w.len + 8

let write_raw w s ~len =
  reserve w len;
  Bytes.blit_string s 0 w.buf w.len len;
  w.len <- w.len + len

let write_bytes w b =
  write_u32 w (Bytes.length b);
  write_raw w (Bytes.unsafe_to_string b) ~len:(Bytes.length b)

let write_string w s =
  write_u32 w (String.length s);
  write_raw w s ~len:(String.length s)

let write_list w f items =
  write_u32 w (List.length items);
  List.iter f items

let reader src = { src; pos = 0 }

let need r n =
  if r.pos + n > String.length r.src then
    raise (Decode_error (Printf.sprintf "need %d bytes at offset %d, have %d" n r.pos
                           (String.length r.src)))

let read_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then v + 0x100000000 else v

let read_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let read_string r =
  let len = read_u32 r in
  need r len;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let read_bytes r = Bytes.of_string (read_string r)

let read_list r f =
  let len = read_u32 r in
  if len > 1 lsl 28 then raise (Decode_error "unreasonable list length");
  List.init len (fun _ -> f ())

let expect_end r =
  if r.pos <> String.length r.src then
    raise
      (Decode_error
         (Printf.sprintf "%d trailing bytes after message" (String.length r.src - r.pos)))
