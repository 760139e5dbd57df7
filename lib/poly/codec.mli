(** Bit-packed serialisation of coefficient vectors.

    The paper stores each polynomial in [(p^e - 1) * log2(p^e)] bits
    (17 bytes for p = 29: 28 coefficients of 5 bits); this codec
    realises that layout: each coefficient occupies exactly
    [bits_per_coeff q] bits, packed little-endian bit order. *)

val bits_per_coeff : int -> int
(** [ceil (log2 q)]: bits needed for one coefficient of a polynomial
    over a field of order [q].  @raise Invalid_argument if [q < 2]. *)

val byte_length : q:int -> n:int -> int
(** Bytes needed to pack [n] coefficients over a field of order
    [q]. *)

val pack : q:int -> int array -> bytes
(** Pack a coefficient vector; every entry must be in [0, q).
    @raise Invalid_argument on out-of-range coefficients. *)

val unpack : q:int -> n:int -> bytes -> int array
(** Inverse of [pack].  @raise Invalid_argument if the buffer is
    shorter than [byte_length ~q ~n] or any decoded coefficient is
    [>= q] (corruption guard). *)

val pack_cyclic : Ring.t -> Cyclic.t -> bytes
(** Pack a ring element ([n = q - 1] coefficients). *)

val unpack_cyclic : Ring.t -> bytes -> Cyclic.t
(** Inverse of [pack_cyclic]. *)

val pack_evals : Ring.t -> Evals.t -> bytes
(** Pack a share in the evaluation domain: its [n] slot values, in the
    same layout as coefficients. *)

val unpack_evals : Ring.t -> bytes -> Evals.t
(** Inverse of [pack_evals]; validates like {!unpack}. *)
