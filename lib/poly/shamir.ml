(* Shamir threshold sharing over any field (see shamir.mli).

   Everything here is plain field arithmetic through the handle's
   operations; nothing touches the cyclic quotient.  The share and
   reconstruction paths are deliberately deterministic in the order of
   [xs] and the draws of [gen] so callers can reproduce a dealer run
   exactly (the table splitters key their PRGs by row). *)

module type FIELD = sig
  type t

  val add : t -> int -> int -> int
  val sub : t -> int -> int -> int
  val mul : t -> int -> int -> int
  val div : t -> int -> int -> int
  val normalize : t -> int -> int
end

module type S = sig
  type field

  val share : field -> threshold:int -> xs:int list -> gen:(unit -> int) -> int -> int list
  val lambdas_at_zero : field -> xs:int list -> int list
  val combine : field -> lambdas:int list -> int list -> int
  val reconstruct : field -> (int * int) list -> int

  val share_vector :
    field -> threshold:int -> xs:int list -> gen:(unit -> int) -> int array -> int array list

  val combine_vectors : field -> lambdas:int list -> int array list -> int array
end

module Make (F : FIELD) : S with type field := F.t = struct
  let check_xs f ~what xs =
    if xs = [] then invalid_arg (what ^ ": no x-coordinates");
    let seen = Hashtbl.create 8 in
    List.iter
      (fun x ->
        let x = F.normalize f x in
        if x = 0 then invalid_arg (what ^ ": zero x-coordinate (g(0) is the secret)");
        if Hashtbl.mem seen x then
          invalid_arg (Printf.sprintf "%s: duplicate x-coordinate %d" what x);
        Hashtbl.replace seen x ())
      xs

  let check_dealing f ~what ~threshold xs =
    if threshold < 1 then invalid_arg (what ^ ": threshold < 1");
    if List.length xs < threshold then
      invalid_arg (what ^ ": fewer x-coordinates than the threshold");
    check_xs f ~what xs

  (* Evaluate g(x) = s + a_1 x + ... + a_{t-1} x^{t-1} by Horner, with
     the random coefficients in [coeffs] (degree 1 first). *)
  let eval_at f ~secret coeffs x =
    let high = List.fold_left (fun v a -> F.add f (F.mul f v x) a) 0 (List.rev coeffs) in
    F.add f (F.mul f high x) secret

  let draw_coeffs f ~threshold ~gen =
    List.init (threshold - 1) (fun _ -> F.normalize f (gen ()))

  let share f ~threshold ~xs ~gen secret =
    check_dealing f ~what:"Shamir.share" ~threshold xs;
    let secret = F.normalize f secret in
    let coeffs = draw_coeffs f ~threshold ~gen in
    List.map (fun x -> eval_at f ~secret coeffs (F.normalize f x)) xs

  let lambdas_at_zero f ~xs =
    check_xs f ~what:"Shamir.lambdas_at_zero" xs;
    let mul = F.mul f and div = F.div f and sub = F.sub f in
    let xs = List.map (F.normalize f) xs in
    List.map
      (fun xi ->
        List.fold_left (fun acc xj -> if xj = xi then acc else mul acc (div xj (sub xj xi))) 1 xs)
      xs

  let combine f ~lambdas vs =
    if List.length lambdas <> List.length vs then
      invalid_arg "Shamir.combine: lambda/value length mismatch";
    let add = F.add f and mul = F.mul f in
    List.fold_left2 (fun acc l v -> add acc (mul l v)) 0 lambdas vs

  let reconstruct f shares =
    let lambdas = lambdas_at_zero f ~xs:(List.map fst shares) in
    combine f ~lambdas (List.map snd shares)

  let share_vector f ~threshold ~xs ~gen secrets =
    check_dealing f ~what:"Shamir.share_vector" ~threshold xs;
    let xs = List.map (F.normalize f) xs in
    let len = Array.length secrets in
    let outs = List.map (fun _ -> Array.make len 0) xs in
    for j = 0 to len - 1 do
      let coeffs = draw_coeffs f ~threshold ~gen in
      let secret = F.normalize f secrets.(j) in
      List.iter2 (fun x out -> out.(j) <- eval_at f ~secret coeffs x) xs outs
    done;
    outs

  let combine_vectors f ~lambdas vectors =
    if List.length lambdas <> List.length vectors then
      invalid_arg "Shamir.combine_vectors: lambda/vector count mismatch";
    match vectors with
    | [] -> invalid_arg "Shamir.combine_vectors: no vectors"
    | first :: rest ->
        let len = Array.length first in
        List.iter
          (fun v ->
            if Array.length v <> len then
              invalid_arg "Shamir.combine_vectors: vector length mismatch")
          rest;
        let add = F.add f and mul = F.mul f in
        Array.init len (fun j ->
            List.fold_left2 (fun acc l v -> add acc (mul l v.(j))) 0 lambdas vectors)
end

include Make (struct
  type t = Ring.t

  let add (r : t) = r.Ring.add
  let sub (r : t) = r.Ring.sub
  let mul (r : t) = r.Ring.mul
  let div (r : t) = r.Ring.div
  let normalize (r : t) = r.Ring.normalize
end)
