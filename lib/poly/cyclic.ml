type t = int array
(* Invariant: length = Ring.n, entries are canonical field encodings. *)

let dim (r : Ring.t) = r.Ring.n
let zero r = Array.make (dim r) 0

let one r =
  let v = zero r in
  v.(0) <- 1;
  v

let is_zero v = Array.for_all (fun c -> c = 0) v

let of_dense (r : Ring.t) f =
  let n = dim r in
  let v = Array.make n 0 in
  let coeffs = Dense.to_coeffs f in
  Array.iteri (fun i c -> v.(i mod n) <- r.Ring.add v.(i mod n) c) coeffs;
  v

let to_dense (r : Ring.t) v = Dense.of_coeffs r v

let of_int_array (r : Ring.t) a =
  if Array.length a <> dim r then
    invalid_arg
      (Printf.sprintf "Cyclic.of_int_array: expected %d coefficients, got %d"
         (dim r) (Array.length a));
  Array.map r.Ring.normalize a

let of_canonical (r : Ring.t) a =
  if Array.length a <> dim r then
    invalid_arg
      (Printf.sprintf "Cyclic.of_canonical: expected %d coefficients, got %d"
         (dim r) (Array.length a));
  for i = 0 to Array.length a - 1 do
    let c = Array.unsafe_get a i in
    if c < 0 || c >= r.Ring.order then
      invalid_arg (Printf.sprintf "Cyclic.of_canonical: %d is not in [0,%d)" c r.Ring.order)
  done;
  a

let to_int_array v = Array.copy v
let view (v : t) = v
let coeff v i = v.(i)
let linear r ~root = of_dense r (Dense.linear r ~root)

let add (r : Ring.t) a b = Array.map2 r.Ring.add a b
let sub (r : Ring.t) a b = Array.map2 r.Ring.sub a b
let neg (r : Ring.t) a = Array.map r.Ring.neg a
let scale (r : Ring.t) k a = Array.map (r.Ring.mul k) a

let mul (r : Ring.t) a b =
  let n = dim r in
  (* The product is commutative and field addition is exact, so the
     sparser operand can drive the zero-skipping outer loop without
     changing a bit of the result: a leaf child (x - v) times a dense
     product costs 2n steps, not n^2.  [d] is nnz a - nnz b. *)
  let d = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) <> 0 then incr d;
    if b.(i) <> 0 then decr d
  done;
  let a, b = if !d > 0 then (b, a) else (a, b) in
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if ai <> 0 then
      for j = 0 to n - 1 do
        let k = if i + j >= n then i + j - n else i + j in
        c.(k) <- r.Ring.add c.(k) (r.Ring.mul ai b.(j))
      done
  done;
  c

let mul_x (r : Ring.t) a =
  let n = dim r in
  Array.init n (fun i -> a.((i + n - 1) mod n))

let mul_linear (r : Ring.t) ~root f =
  (* (x - root) * f = mul_x f - root * f, fused into one pass. *)
  let n = dim r in
  let root = r.Ring.normalize root in
  Array.init n (fun i ->
      let shifted = f.((i + n - 1) mod n) in
      r.Ring.sub shifted (r.Ring.mul root f.(i)))

let eval (r : Ring.t) v point =
  let point = r.Ring.normalize point in
  if point = 0 then
    invalid_arg "Cyclic.eval: evaluation at 0 is not preserved by reduction";
  let acc = ref 0 in
  for i = Array.length v - 1 downto 0 do
    acc := r.Ring.add (r.Ring.mul !acc point) v.(i)
  done;
  !acc

let recover_linear_factor (r : Ring.t) ~product ~node =
  if is_zero product then Error `Degenerate
  else begin
    (* f = (x - t).g  <=>  t.g = x.g - f  coefficient-wise. *)
    let target = sub r (mul_x r product) node in
    let pivot = ref (-1) in
    Array.iteri (fun i c -> if c <> 0 && !pivot < 0 then pivot := i) product;
    let i = !pivot in
    let t = r.Ring.div target.(i) product.(i) in
    if scale r t product = target then Ok t else Error `Not_linear
  end

let random (r : Ring.t) ~gen = Array.init (dim r) (fun _ -> r.Ring.normalize (gen ()))
let equal (a : t) (b : t) = a = b

let pp fmt v =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int v)))
