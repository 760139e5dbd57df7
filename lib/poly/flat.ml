(* Designated kernel module: no allocation inside the per-coefficient
   loops, no allocating combinators anywhere in the file (ssdb_lint
   enforces the latter).  Everything is explicit index arithmetic over
   Bytes with unsafe access; the bounds are established once per call
   by the validation prologue. *)

module Table = Secshare_field.Table

let point_row tab ~point =
  if point = 0 then
    invalid_arg "Flat.point_row: evaluation at 0 is not preserved by reduction";
  Table.mul_row tab ~point

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

type eval_table = Row of Bytes.t | Powers of Bytes.t

let check_powers fn ~powers n =
  if Bytes.length powers < n then
    invalid_arg
      (Printf.sprintf "%s: %d powers for %d coefficients" fn (Bytes.length powers) n)

(* Horner through the multiplication row: a chain of dependent table
   loads, right for any field with byte tables. *)
let horner_coeffs tab ~mul_row (a : int array) =
  let acc = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let shifted = Char.code (Bytes.unsafe_get mul_row !acc) in
    acc := Table.unsafe_add tab shifted (Array.unsafe_get a i)
  done;
  !acc

(* Prime fields only: the encodings are the integers mod q, so the
   value is the integer dot product of coefficients and powers, reduced
   once.  Each term is below q^2 and there are n = q - 1 < 255 of
   them, so the sum stays below 255^3 and never overflows. *)
let dot_coeffs tab ~powers (a : int array) =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + (Array.unsafe_get a i * Char.code (Bytes.unsafe_get powers i))
  done;
  !acc mod Table.order tab

let eval_coeffs tab et (a : int array) =
  match et with
  | Row mul_row -> horner_coeffs tab ~mul_row a
  | Powers powers ->
      check_powers "Flat.eval_coeffs" ~powers (Array.length a);
      dot_coeffs tab ~powers a

let bad_coefficient c q =
  invalid_arg (Printf.sprintf "Flat.eval_share: decoded coefficient %d >= %d" c q)

let horner_share tab ~mul_row ~n buf =
  let bits = Table.bits tab in
  let mask = (1 lsl bits) - 1 in
  let q = Table.order tab in
  let acc = ref 0 in
  for i = n - 1 downto 0 do
    let c = coeff_at buf ~bits ~mask i in
    if c >= q then bad_coefficient c q;
    let shifted = Char.code (Bytes.unsafe_get mul_row !acc) in
    acc := Table.unsafe_add tab shifted c
  done;
  !acc

(* The coefficients are decoded in order through a bit reader (a byte
   joins the window whenever it holds fewer than [bits] bits), and the
   range check is folded in without a branch: [bad] goes negative once
   some [q - 1 - c] does.  Only a rejected share pays a second pass,
   which names the highest bad coefficient, as Horner does. *)
let dot_share tab ~powers ~n buf =
  let bits = Table.bits tab in
  let mask = (1 lsl bits) - 1 in
  let q = Table.order tab in
  let acc = ref 0 and bad = ref 0 in
  let window = ref 0 and held = ref 0 and byte = ref 0 in
  for i = 0 to n - 1 do
    if !held < bits then begin
      window := !window lor (Char.code (Bytes.unsafe_get buf !byte) lsl !held);
      incr byte;
      held := !held + 8
    end;
    let c = !window land mask in
    window := !window lsr bits;
    held := !held - bits;
    bad := !bad lor (q - 1 - c);
    acc := !acc + (c * Char.code (Bytes.unsafe_get powers i))
  done;
  if !bad < 0 then
    for i = n - 1 downto 0 do
      let c = coeff_at buf ~bits ~mask i in
      if c >= q then bad_coefficient c q
    done;
  !acc mod q

let eval_share tab et ~n buf =
  check_share "Flat.eval_share" tab ~n buf;
  match et with
  | Row mul_row -> horner_share tab ~mul_row ~n buf
  | Powers powers ->
      check_powers "Flat.eval_share" ~powers n;
      dot_share tab ~powers ~n buf

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

let mul_into tab ~n ~(a : int array) ~(b : int array) ~(out : int array) =
  if Array.length a < n || Array.length b < n || Array.length out < n then
    invalid_arg "Flat.mul_into: buffers shorter than the ring dimension";
  if out == a || out == b then
    invalid_arg "Flat.mul_into: out must be distinct from the operands";
  (* Run the convolution from the sparser operand, as {!Cyclic.mul}
     does: one counting pass, then min(nnz a, nnz b) * n steps. *)
  let d = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get a i <> 0 then incr d;
    if Array.unsafe_get b i <> 0 then decr d
  done;
  let a, b = if !d > 0 then (b, a) else (a, b) in
  Array.fill out 0 n 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then
      for j = 0 to n - 1 do
        let k = if i + j >= n then i + j - n else i + j in
        Array.unsafe_set out k
          (Table.unsafe_add tab (Array.unsafe_get out k)
             (Table.unsafe_mul tab ai (Array.unsafe_get b j)))
      done
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
