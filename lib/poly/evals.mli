(** The quotient ring [F_q[x]/(x^n - 1)], [n = q - 1], in the
    evaluation domain: the form every share is stored and regenerated
    in.

    Over [F_q], [x^(q-1) - 1 = prod_{a <> 0} (x - a)], so by the
    Chinese remainder theorem [phi f = (f(a))_{a <> 0}] is a ring
    isomorphism from the quotient ({!Cyclic}) onto [F_q^(q-1)] with
    pointwise operations, and a linear bijection.  An element is the
    vector of its values in {e slot} order: slot [j] holds the value at
    the point whose canonical encoding is [j + 1].  That map is public
    and fixed.

    In this domain the containment test reads one coordinate, and the
    encoder's and the equality test's products are pointwise.  The
    operations here run through the field's closures; [Secshare_poly.Flat]
    has the byte-table kernels of the same operations, and
    [Secshare_core.Share] picks between them.  {!of_cyclic} and
    {!to_cyclic} ([phi] and its inverse, [n^2] multiply-adds each) are
    for tests, benches and oracles only: no query or encode path needs
    either. *)

type t

val slot : Ring.t -> int -> int
(** The slot of a point: its canonical encoding minus one.
    @raise Invalid_argument on a point that normalises to 0 (the same
    message as {!Cyclic.eval}: evaluation at 0 is not preserved by the
    cyclic reduction, and 0 has no slot). *)

val of_canonical : Ring.t -> int array -> t
(** Values in slot order, already canonical.  Takes ownership of the
    array (NOT a copy).
    @raise Invalid_argument on a wrong length or a value outside
    [\[0, q)]. *)

val view : t -> int array
(** The underlying buffer, NOT a copy: zero-allocation access for the
    {!Flat} kernels.  Callers must not mutate it. *)

val to_int_array : t -> int array
(** A fresh copy of the values. *)

val get : t -> int -> int
(** The value in one slot. *)

val of_cyclic : Ring.t -> Cyclic.t -> t
(** [phi]: the polynomial's value at every nonzero point. *)

val to_cyclic : Ring.t -> t -> Cyclic.t
(** [phi^-1]: coefficient [k] is [-sum_a f(a) a^(-k)], because
    [sum_{a <> 0} a^m] is [-1] when [n] divides [m] and 0 otherwise. *)

val one : Ring.t -> t
val linear : Ring.t -> root:int -> t
(** [phi (x - root)]: slot [j] holds [point j - root]. *)

val add : Ring.t -> t -> t -> t
val sub : Ring.t -> t -> t -> t
val mul : Ring.t -> t -> t -> t
(** Pointwise. *)

val recover_linear_factor :
  Ring.t -> product:t -> node:t -> (int, [ `Degenerate | `Not_linear ]) result
(** {!Cyclic.recover_linear_factor} pointwise: the [t] with
    [node = (x - t) * product].  At a slot whose point [a] has
    [product(a) <> 0] that forces [t = a - node(a) / product(a)]; the
    answer is [Ok t] when one [t] fits every slot (so [node(a) = 0]
    wherever [product(a) = 0]).  [Error `Degenerate] when the product
    is zero at every point, [Error `Not_linear] when no [t] fits.
    Through {!of_cyclic} this is the same verdict as the coefficient
    form's, case for case. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
