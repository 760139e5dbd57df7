(** The quotient ring [F_q[x]/(x^n - 1)] with [n = q - 1]: the paper's
    reduced encoding (figure 1(d)).

    Elements are fixed-length coefficient vectors of length [n].
    Reduction folds the coefficient of [x^i] onto [x^(i mod n)], which
    preserves evaluation at every *nonzero* field point (since
    [a^n = 1] for [a <> 0]); evaluation at 0 is not preserved and the
    scheme never uses it.

    The ring has zero divisors, so there is no general division;
    {!recover_linear_factor} implements the specific quotient the
    equality test needs. *)

type t

val zero : Ring.t -> t
val one : Ring.t -> t
val is_zero : t -> bool

val of_dense : Ring.t -> Dense.t -> t
(** Reduction modulo [x^n - 1]. *)

val to_dense : Ring.t -> t -> Dense.t
(** The canonical representative of degree [< n]. *)

val of_int_array : Ring.t -> int array -> t
(** Coefficient vector, least degree first.  Entries are normalised
    into the field.  @raise Invalid_argument if the length is not
    the ring dimension [n = q - 1]. *)

val of_canonical : Ring.t -> int array -> t
(** Like {!of_int_array} for entries already canonical: checks them
    against [[0, q)] instead of normalising, and takes ownership of the
    array (NOT a copy), so the caller must not mutate it afterwards.
    @raise Invalid_argument on a wrong length or an entry outside
    [[0, q)]. *)

val to_int_array : t -> int array
(** Fresh coefficient vector of length [n]. *)

val view : t -> int array
(** The underlying coefficient buffer, NOT a copy: zero-allocation
    access for the {!Flat} kernels.  Callers must not mutate it. *)

val coeff : t -> int -> int

val linear : Ring.t -> root:int -> t
(** The reduced image of [x - root]. *)

val add : Ring.t -> t -> t -> t
val sub : Ring.t -> t -> t -> t
val neg : Ring.t -> t -> t
val scale : Ring.t -> int -> t -> t

val mul : Ring.t -> t -> t -> t
(** Schoolbook product with index folding.  The operand with fewer
    nonzero coefficients drives the zero-skipping outer loop (counted
    in one O(n) pass; [a] on a tie), so the cost is
    [min (nnz a) (nnz b) * n] plus O(n): O(n) against a linear factor,
    O(n^2) for two dense vectors.  The ring is commutative and field
    addition exact, so the choice never changes the result. *)

val mul_x : Ring.t -> t -> t
(** Multiplication by [x]: a cyclic shift; O(n). *)

val mul_linear : Ring.t -> root:int -> t -> t
(** [mul_linear r ~root f] is [(x - root) * f]; O(n).  This is the
    encoding step [f(node) = (x - map(node)) . prod f(children)]. *)

val eval : Ring.t -> t -> int -> int
(** Evaluation at a field point; meaningful (agreeing with the
    unreduced polynomial) only at nonzero points.
    @raise Invalid_argument on the zero point. *)

val recover_linear_factor :
  Ring.t -> product:t -> node:t -> (int, [ `Degenerate | `Not_linear ]) result
(** The equality test's division: given the reduced product [g] of a
    node's children polynomials and the node's own reduced polynomial
    [f], find the field element [t] such that [f = (x - t) * g].

    [Error `Degenerate] when [g] is the zero element of the quotient
    (possible only when the node's descendants cover every nonzero
    field element — excluded by the paper's choice of p = 83 > 77 tag
    names, but detected rather than mis-answered).
    [Error `Not_linear] when no such [t] exists. *)

val random : Ring.t -> gen:(unit -> int) -> t
(** A vector whose [n] coefficients are drawn from [gen] (expected to
    return canonical field encodings, e.g. a PRG reduced mod [q]). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
