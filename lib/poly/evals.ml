type t = int array
(* Invariant: length = Ring.n, entries are canonical field encodings,
   slot j holding the value at the point encoded j + 1. *)

let dim (r : Ring.t) = r.Ring.n

let slot (r : Ring.t) x =
  let x = r.Ring.normalize x in
  if x = 0 then invalid_arg "Cyclic.eval: evaluation at 0 is not preserved by reduction";
  x - 1

let point j = j + 1

let of_canonical (r : Ring.t) a =
  if Array.length a <> dim r then
    invalid_arg
      (Printf.sprintf "Evals.of_canonical: expected %d values, got %d" (dim r)
         (Array.length a));
  (* [bad] goes negative once some value is outside [0, q) *)
  let q = r.Ring.order and bad = ref 0 in
  for j = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a j in
    bad := !bad lor v lor (q - 1 - v)
  done;
  if !bad < 0 then
    Array.iter
      (fun v ->
        if v < 0 || v >= q then
          invalid_arg (Printf.sprintf "Evals.of_canonical: %d is not in [0,%d)" v q))
      a;
  a

let view (v : t) = v
let to_int_array v = Array.copy v
let get v j = v.(j)
let of_cyclic r c = Array.init (dim r) (fun j -> Cyclic.eval r c (point j))

let to_cyclic (r : Ring.t) v =
  let n = dim r in
  let inverses = Array.init n (fun j -> r.Ring.inv (point j)) in
  (* powers.(j) = point(j)^(-k) at step k *)
  let powers = Array.make n 1 in
  let coeffs =
    Array.init n (fun _ ->
        let acc = ref 0 in
        for j = 0 to n - 1 do
          acc := r.Ring.add !acc (r.Ring.mul v.(j) powers.(j));
          powers.(j) <- r.Ring.mul powers.(j) inverses.(j)
        done;
        r.Ring.neg !acc)
  in
  Cyclic.of_canonical r coeffs

let one r = Array.make (dim r) 1
let linear (r : Ring.t) ~root = Array.init (dim r) (fun j -> r.Ring.sub (point j) root)
let add (r : Ring.t) a b = Array.map2 r.Ring.add a b
let sub (r : Ring.t) a b = Array.map2 r.Ring.sub a b
let mul (r : Ring.t) a b = Array.map2 r.Ring.mul a b

let recover_linear_factor (r : Ring.t) ~product ~node =
  match Array.find_index (fun p -> p <> 0) product with
  | None -> Error `Degenerate
  | Some j ->
      let t = r.Ring.sub (point j) (r.Ring.div node.(j) product.(j)) in
      let fits k p = node.(k) = r.Ring.mul (r.Ring.sub (point k) t) p in
      let rec check k = k = Array.length product || (fits k product.(k) && check (k + 1)) in
      if check 0 then Ok t else Error `Not_linear

let equal (a : t) (b : t) = a = b

let pp fmt v =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int v)))
