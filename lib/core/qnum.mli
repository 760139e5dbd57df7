(** Exact rationals for aggregate results.

    A [sum] over fixed-point values with [scale] fractional digits is
    the integer sum over 10^scale; an [avg] divides by the match count
    as well.  Keeping the result an exact normalized fraction makes
    aggregate answers comparable bit-for-bit against the plaintext
    {!Reference} fold — no float rounding anywhere. *)

type t = private { num : int; den : int }
(** Normalized: [den > 0], [gcd (abs num) den = 1]. *)

val make : int -> int -> t
(** [make num den]. @raise Division_by_zero when [den = 0]. *)

val zero : t
val of_int : int -> t

val pow10 : int -> int
(** 10^k for k in [0, 18]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val add : t -> t -> t
val to_float : t -> float

val to_string : t -> string
(** Exact decimal ("12", "-3.50") whenever the denominator divides a
    power of ten, otherwise "num/den". *)

val pp : Format.formatter -> t -> unit
