(** Flat operation tables for small fields: the arithmetic kernel
    behind the packed polynomial evaluators in [lib/poly].

    For fields with [order <= 256] every element fits in one byte, so
    the whole addition and multiplication tables fit in 64 KiB each and
    a Horner step becomes two byte loads — no closure calls, no
    module projections, no allocation.  The tables are built once per
    ring from the field's own [add]/[mul], so kernel results are
    bit-identical to the reference path for prime fields *and*
    extension fields alike (whose canonical integer encodings are not
    integer arithmetic mod q).

    Fields with [order > 256] get no table ([create] returns [None])
    and callers fall back to the closure-based reference path. *)

type t

val create : Field_intf.packed -> t option
(** Build the tables, or [None] when the field order exceeds 256. *)

val order : t -> int
(** The field order [q]. *)

val bits : t -> int
(** Bits per coefficient in the {!Secshare_poly.Codec} packed layout:
    [ceil (log2 q)]. *)

val add : t -> int -> int -> int
(** Table lookup [a + b].  Validates both operands and raises
    [Invalid_argument] unless they are canonical encodings in
    [0, q). *)

val mul : t -> int -> int -> int
(** Table lookup [a * b]; operands validated as for {!add}. *)

val unsafe_add : t -> int -> int -> int
(** As {!add} with no bounds checks at all — the caller guarantees
    canonical operands.  For kernel inner loops. *)

val unsafe_mul : t -> int -> int -> int

val mul_row : t -> point:int -> Bytes.t
(** The length-[q] row [x -> x * point] of the multiplication table,
    as a fresh byte string: the per-query table a Horner kernel walks
    so the hot loop never recomputes the 2-d index.  [point] must be a
    canonical encoding. *)

val powers : t -> point:int -> n:int -> Bytes.t
(** [powers t ~point ~n] is the length-[n] byte string whose [i]-th
    entry is [point^i], built by table multiplication (no division) —
    the per-query table of the prime-field dot product
    ([Secshare_poly.Flat.Powers]). *)
