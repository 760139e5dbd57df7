(** Runtime handle bundling a field with cached primitive operations.

    The encoding field is chosen when a database is created (its order
    depends on the tag-name count), so polynomial code receives the
    field as a value.  Unpacking the first-class module once here and
    caching the operations as closures keeps inner loops free of
    repeated module projections. *)

type t = {
  field : Secshare_field.Field_intf.packed;
  order : int;  (** q = p^e *)
  characteristic : int;
  degree : int;
  n : int;  (** ring dimension for the cyclic quotient, q - 1 *)
  add : int -> int -> int;
  sub : int -> int -> int;
  neg : int -> int;
  mul : int -> int -> int;
  inv : int -> int;
  div : int -> int -> int;
  normalize : int -> int;
  table : Secshare_field.Table.t option;
      (** Flat byte op-tables when [order <= 256]; the packed kernels in
          {!Flat} require them, closure-based paths ignore them. *)
}

let make field =
  let module F = (val field : Secshare_field.Field_intf.FIELD) in
  let lift2 op a b = F.to_int (op (F.of_int a) (F.of_int b)) in
  let lift1 op a = F.to_int (op (F.of_int a)) in
  {
    field;
    order = F.order;
    characteristic = F.characteristic;
    degree = F.degree;
    n = F.order - 1;
    add = lift2 F.add;
    sub = lift2 F.sub;
    neg = lift1 F.neg;
    mul = lift2 F.mul;
    inv = lift1 F.inv;
    div = lift2 F.div;
    normalize = (fun k -> F.to_int (F.of_int k));
    table = Secshare_field.Table.create field;
  }

let of_prime_power ~p ~e = make (Secshare_field.Gf.create ~p ~e)
let of_prime ~p = make (Secshare_field.Modp.create ~p)

(* Field orders past this are useless for the scheme (a share stores
   q - 1 packed coefficients) and risk int overflow downstream. *)
let max_order = 1 lsl 20

(** The one (p, e) admission check: p prime, e >= 1 and p^e <= 2^20,
    computed without letting p^e wrap around.  It admits ssdb_encode's
    -p/-e and every field read back from a manifest or a map's [q]
    ({!of_order}) before a file or socket opens, so a bad field is an
    [Error], never an exception out of {!of_prime_power}. *)
let checked ~p ~e =
  let rec order_ok acc i =
    i = 0 || (acc <= max_order / p && order_ok (acc * p) (i - 1))
  in
  if not (Secshare_field.Prime.is_prime p) then
    Error (Printf.sprintf "p = %d is not prime" p)
  else if e < 1 then Error "e must be >= 1"
  else if not (order_ok 1 e) then
    Error
      (Printf.sprintf
         "p^e = %d^%d exceeds the safe field-order bound of %d (would overflow)" p e
         max_order)
  else Ok (of_prime_power ~p ~e)

(** The field of order [q] (a map's header), admitted by {!checked};
    the bound is tested first, so a huge [q] is never factored. *)
let of_order q =
  if q > max_order then
    Error (Printf.sprintf "q = %d exceeds the safe field-order bound of %d" q max_order)
  else
    match Secshare_field.Prime.is_prime_power q with
    | None -> Error (Printf.sprintf "q = %d is not a prime power" q)
    | Some (p, e) -> checked ~p ~e
