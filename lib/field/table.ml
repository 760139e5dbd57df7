type t = {
  q : int;
  bits : int;
  add_tab : Bytes.t;  (* q * 256 entries: [(a lsl 8) lor b] -> a + b *)
  mul_tab : Bytes.t;  (* likewise for a * b *)
  neg_tab : Bytes.t;  (* q entries: a -> -a *)
}

(* Rows are 256 wide (not q) so the flat index is a shift-or rather
   than a multiply; the q <= b < 256 tail of each row is unused and
   left zero.  64 KiB per table at q = 256. *)

let bits_for q =
  let rec go bits cap = if cap >= q then bits else go (bits + 1) (cap * 2) in
  go 1 2

let create field =
  let module F = (val field : Field_intf.FIELD) in
  if F.order > 256 then None
  else begin
    let q = F.order in
    let add_tab = Bytes.make (q * 256) '\000' in
    let mul_tab = Bytes.make (q * 256) '\000' in
    let neg_tab = Bytes.make q '\000' in
    for a = 0 to q - 1 do
      let fa = F.of_int a in
      let base = a lsl 8 in
      Bytes.set_uint8 neg_tab a (F.to_int (F.neg fa));
      for b = 0 to q - 1 do
        let fb = F.of_int b in
        Bytes.set_uint8 add_tab (base lor b) (F.to_int (F.add fa fb));
        Bytes.set_uint8 mul_tab (base lor b) (F.to_int (F.mul fa fb))
      done
    done;
    Some { q; bits = bits_for q; add_tab; mul_tab; neg_tab }
  end

let order t = t.q
let bits t = t.bits

let check t name v =
  if v < 0 || v >= t.q then
    invalid_arg (Printf.sprintf "Table.%s: %d is not canonical in [0,%d)" name v t.q)

let add t a b =
  check t "add" a;
  check t "add" b;
  Bytes.get_uint8 t.add_tab ((a lsl 8) lor b)

let mul t a b =
  check t "mul" a;
  check t "mul" b;
  Bytes.get_uint8 t.mul_tab ((a lsl 8) lor b)

let unsafe_add t a b = Char.code (Bytes.unsafe_get t.add_tab ((a lsl 8) lor b))
let unsafe_mul t a b = Char.code (Bytes.unsafe_get t.mul_tab ((a lsl 8) lor b))
let unsafe_neg t a = Char.code (Bytes.unsafe_get t.neg_tab a)

let mul_row t ~point =
  check t "mul_row" point;
  let row = Bytes.create t.q in
  Bytes.blit t.mul_tab (point lsl 8) row 0 t.q;
  row
