(** Shamir t-of-n threshold sharing over a field.

    Where the paper splits each node polynomial between exactly one
    client and one server (additive 2-party sharing, {!Dense}/{!Cyclic}
    + [Share]), this module generalises the {e server} side: a field
    element [s] is hidden in the constant term of a random polynomial
    [g] of degree [t - 1], and party [i] receives [g(x_i)].  Any [t]
    parties reconstruct [s] by Lagrange interpolation at zero; any
    [t - 1] shares are jointly uniform and independent of [s] (the
    degree-[t - 1] coefficients are free), so no coalition below the
    threshold learns anything.

    Reconstruction at zero is a {e linear} combination
    [s = sum_i lambda_i g(x_i)] with multipliers {!S.lambdas_at_zero}
    that depend only on the x-coordinates.  Linearity is what makes the
    sharded serving path cheap: applied coefficient-wise to a whole
    share polynomial, the same multipliers recombine {e evaluations} of
    the per-shard shares — each shard runs the ordinary flat kernels on
    its own share, and the client (or router) folds the [t] results
    with [lambda]s instead of re-interpolating polynomials.  The same
    multipliers recombine per-shard partial {e sums} of the numeric
    column, which is why the code is a functor: it is instantiated once
    for the encoding field ({!Ring.t}, included below) and once for the
    aggregate field F_(2^61 - 1) ([Secshare_core.Numeric.Shamir]).

    All x-coordinates must be distinct {e nonzero} field points ([g(0)]
    is the secret), which bounds the party count by [q - 1]. *)

(** The field operations sharing needs, over canonical [int] encodings.
    [t] is a runtime handle: the encoding field is chosen per database,
    so its operations arrive as a value. *)
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

  val share :
    field -> threshold:int -> xs:int list -> gen:(unit -> int) -> int -> int list
  (** [share f ~threshold ~xs ~gen s] evaluates a fresh random
      polynomial of degree [threshold - 1] with constant term [s] at
      every point of [xs], consuming exactly [threshold - 1] draws from
      [gen] (expected to return canonical field encodings, e.g. a PRG
      reduced mod [q]).  [threshold = 1] degenerates to plain
      replication.
      @raise Invalid_argument if [threshold < 1], [xs] is shorter than
      [threshold], or [xs] contains zero or a duplicate. *)

  val lambdas_at_zero : field -> xs:int list -> int list
  (** The Lagrange multipliers [lambda_i = prod_{j<>i} x_j / (x_j - x_i)]
      evaluating interpolation at zero: for any polynomial [g] of degree
      [< length xs], [g(0) = sum_i lambda_i g(x_i)].
      @raise Invalid_argument if [xs] is empty or contains zero or a
      duplicate x-coordinate. *)

  val combine : field -> lambdas:int list -> int list -> int
  (** [combine f ~lambdas vs] is [sum_i lambdas_i * vs_i] —
      reconstruction given precomputed multipliers.  Works equally on
      secrets and on {e evaluations} or {e sums} of shared values
      (linearity).
      @raise Invalid_argument on length mismatch. *)

  val reconstruct : field -> (int * int) list -> int
  (** [reconstruct f shares] recovers the secret from [(x_i, g(x_i))]
      pairs — [combine] with [lambdas_at_zero] of the pairs' x's.  Needs
      exactly the sharing threshold many pairs to be correct (more is
      fine only if they lie on the same degree-[t - 1] polynomial).
      @raise Invalid_argument on empty, zero or duplicate x's. *)

  val share_vector :
    field -> threshold:int -> xs:int list -> gen:(unit -> int) -> int array -> int array list
  (** Coefficient-wise {!share} of a whole coefficient vector: one share
      vector per x-coordinate, in the order of [xs].  Coefficient [j] of
      the result vectors is a fresh sharing of input coefficient [j];
      [gen] is consumed left to right, [threshold - 1] draws per
      coefficient. *)

  val combine_vectors : field -> lambdas:int list -> int array list -> int array
  (** Coefficient-wise {!combine}: recovers the original vector from
      [t] share vectors.  @raise Invalid_argument on length mismatches
      (between [lambdas] and the vectors, or among the vectors). *)
end

module Make (F : FIELD) : S with type field := F.t

include S with type field := Ring.t
