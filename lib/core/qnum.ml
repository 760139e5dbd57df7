type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let sign = if den < 0 then -1 else 1 in
  let num = sign * num and den = abs den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let zero = { num = 0; den = 1 }
let of_int n = { num = n; den = 1 }

let pow10 k =
  if k < 0 || k > 18 then invalid_arg "Qnum.pow10: exponent outside [0, 18]";
  let rec go acc i = if i = 0 then acc else go (acc * 10) (i - 1) in
  go 1 k

let equal a b = a.num = b.num && a.den = b.den

(* denominators are positive, so cross-multiplication preserves order *)
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let to_float t = float_of_int t.num /. float_of_int t.den

let to_string t =
  if t.den = 1 then string_of_int t.num
  else begin
    (* decimal expansion exists iff den = 2^a * 5^b; pad to 10^k *)
    let rec find_k k =
      if k > 18 then None else if pow10 k mod t.den = 0 then Some k else find_k (k + 1)
    in
    match find_k 1 with
    | None -> Printf.sprintf "%d/%d" t.num t.den
    | Some k ->
        let v = abs t.num * (pow10 k / t.den) in
        let whole = v / pow10 k and frac = v mod pow10 k in
        Printf.sprintf "%s%d.%0*d" (if t.num < 0 then "-" else "") whole k frac
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
