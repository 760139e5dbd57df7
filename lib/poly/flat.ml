(* Designated kernel module: no allocation inside the per-coefficient
   loops, no allocating combinators anywhere in the file (ssdb_lint
   enforces the latter).  Everything is explicit index arithmetic over
   Bytes with unsafe access; the bounds are established once per call
   by the validation prologue. *)

module Table = Secshare_field.Table

(* Decode coefficient [i] of a Codec-packed buffer: a little-endian
   window read at bit position [i * bits].  bits <= 8 always (q <= 256),
   so a coefficient spans at most two bytes. *)
let[@inline] coeff_at buf ~bits ~mask i =
  let pos = i * bits in
  let byte = pos lsr 3 in
  let shift = pos land 7 in
  let w = Char.code (Bytes.unsafe_get buf byte) lsr shift in
  let w =
    if shift + bits <= 8 then w
    else w lor (Char.code (Bytes.unsafe_get buf (byte + 1)) lsl (8 - shift))
  in
  w land mask

let check_share fn tab ~n buf =
  let bits = Table.bits tab in
  let needed = ((n * bits) + 7) / 8 in
  if Bytes.length buf < needed then
    invalid_arg (Printf.sprintf "%s: need %d bytes, got %d" fn needed (Bytes.length buf))

(* Every value is decoded in order through a bit reader (a byte joins
   the window whenever it holds fewer than [bits] bits), and the range
   check is folded in without a branch: [bad] goes negative once some
   [q - 1 - c] does.  Only a rejected share pays a second pass, which
   names its highest bad value. *)
let eval_share tab ~n ~slot buf =
  check_share "Flat.eval_share" tab ~n buf;
  if slot < 0 || slot >= n then
    invalid_arg (Printf.sprintf "Flat.eval_share: slot %d outside [0, %d)" slot n);
  let bits = Table.bits tab in
  let mask = (1 lsl bits) - 1 in
  let q = Table.order tab in
  let bad = ref 0 and window = ref 0 and held = ref 0 and byte = ref 0 in
  for _ = 0 to n - 1 do
    if !held < bits then begin
      window := !window lor (Char.code (Bytes.unsafe_get buf !byte) lsl !held);
      incr byte;
      held := !held + 8
    end;
    bad := !bad lor (q - 1 - (!window land mask));
    window := !window lsr bits;
    held := !held - bits
  done;
  if !bad < 0 then
    for i = n - 1 downto 0 do
      let c = coeff_at buf ~bits ~mask i in
      if c >= q then
        invalid_arg (Printf.sprintf "Flat.eval_share: decoded coefficient %d >= %d" c q)
    done;
  coeff_at buf ~bits ~mask slot

let check_length fn ~n (a : int array) =
  if Array.length a < n then
    invalid_arg (fn ^ ": buffers shorter than the ring dimension")

let reconstruct_into tab ~n ~(client : int array) buf ~(out : int array) =
  check_share "Flat.reconstruct_into" tab ~n buf;
  if Array.length client < n || Array.length out < n then
    invalid_arg "Flat.reconstruct_into: buffers shorter than the ring dimension";
  let bits = Table.bits tab in
  let mask = (1 lsl bits) - 1 in
  let q = Table.order tab in
  for i = 0 to n - 1 do
    let c = coeff_at buf ~bits ~mask i in
    if c >= q then
      invalid_arg
        (Printf.sprintf "Flat.reconstruct_into: decoded coefficient %d >= %d" c q);
    Array.unsafe_set out i (Table.unsafe_add tab (Array.unsafe_get client i) c)
  done

let pointwise_mul_into tab ~n ~(a : int array) ~(b : int array) ~(out : int array) =
  check_length "Flat.pointwise_mul_into" ~n a;
  check_length "Flat.pointwise_mul_into" ~n b;
  check_length "Flat.pointwise_mul_into" ~n out;
  for j = 0 to n - 1 do
    Array.unsafe_set out j
      (Table.unsafe_mul tab (Array.unsafe_get a j) (Array.unsafe_get b j))
  done

let sub_into tab ~n ~(a : int array) ~(b : int array) ~(out : int array) =
  check_length "Flat.sub_into" ~n a;
  check_length "Flat.sub_into" ~n b;
  check_length "Flat.sub_into" ~n out;
  for j = 0 to n - 1 do
    let neg_b = Table.unsafe_neg tab (Array.unsafe_get b j) in
    Array.unsafe_set out j (Table.unsafe_add tab (Array.unsafe_get a j) neg_b)
  done

(* Slot [j] holds the value at the point encoded [j + 1]. *)
let linear_mul_into tab ~n ~root ~(a : int array) ~(out : int array) =
  check_length "Flat.linear_mul_into" ~n a;
  check_length "Flat.linear_mul_into" ~n out;
  if root < 0 || root >= Table.order tab then
    invalid_arg (Printf.sprintf "Flat.linear_mul_into: root %d is not canonical" root);
  let neg_root = Table.unsafe_neg tab root in
  for j = 0 to n - 1 do
    let factor = Table.unsafe_add tab (j + 1) neg_root in
    Array.unsafe_set out j (Table.unsafe_mul tab factor (Array.unsafe_get a j))
  done

let combine_packed_into tab ~n ~(rows : Bytes.t array) (shares : Bytes.t array)
    ~(out : Bytes.t) =
  let t = Array.length shares in
  if t = 0 then invalid_arg "Flat.combine_packed_into: no shares";
  if Array.length rows <> t then
    invalid_arg "Flat.combine_packed_into: lambda/share count mismatch";
  let q = Table.order tab in
  for k = 0 to t - 1 do
    check_share "Flat.combine_packed_into" tab ~n (Array.unsafe_get shares k);
    if Bytes.length (Array.unsafe_get rows k) < q then
      invalid_arg "Flat.combine_packed_into: lambda row shorter than the field order"
  done;
  let bits = Table.bits tab in
  let needed = ((n * bits) + 7) / 8 in
  if Bytes.length out < needed then
    invalid_arg
      (Printf.sprintf "Flat.combine_packed_into: out needs %d bytes, got %d" needed
         (Bytes.length out));
  Bytes.fill out 0 needed '\000';
  let mask = (1 lsl bits) - 1 in
  for i = 0 to n - 1 do
    let acc = ref 0 in
    for k = 0 to t - 1 do
      let c = coeff_at (Array.unsafe_get shares k) ~bits ~mask i in
      if c >= q then
        invalid_arg
          (Printf.sprintf "Flat.combine_packed_into: decoded coefficient %d >= %d" c q);
      acc :=
        Table.unsafe_add tab !acc
          (Char.code (Bytes.unsafe_get (Array.unsafe_get rows k) c))
    done;
    (* Pack little-endian at bit [i * bits], the mirror of [coeff_at].
       Coefficients are written in ascending bit order, so the byte a
       straddling coefficient spills into is still zero. *)
    let pos = i * bits in
    let byte = pos lsr 3 in
    let shift = pos land 7 in
    let low = Char.code (Bytes.unsafe_get out byte) lor ((!acc lsl shift) land 0xff) in
    Bytes.unsafe_set out byte (Char.unsafe_chr low);
    if shift + bits > 8 then
      Bytes.unsafe_set out (byte + 1) (Char.unsafe_chr (!acc lsr (8 - shift)))
  done
