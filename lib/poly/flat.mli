(** Allocation-free polynomial kernels over flat byte tables.

    These are the hot loops of the whole system: evaluating
    secret-share polynomials during scans and multiplying reduced
    child polynomials during equality recovery.  The reference
    implementations ({!Dense.eval}, {!Cyclic.eval}, {!Cyclic.mul})
    walk closure-cached field operations; the kernels here walk the
    flat byte tables of {!Secshare_field.Table} instead, so a Horner
    step is two [Bytes.unsafe_get]s, a prime-field evaluation is one
    integer dot product, and results stay bit-identical (the tables
    are built from the same field operations).

    Every entry point takes the table and any per-query scratch
    explicitly; none allocates on the per-coefficient path.  The
    module is a designated kernel module for [ssdb_lint]: allocating
    combinators ([Array.map], [List.map], ...) are banned inside it.

    Outside this library only [Secshare_core.Share] calls these
    kernels, choosing them whenever the ring has byte tables:
    [Share.point] builds the point's {!eval_table} ([Powers] for a
    prime field, {!point_row} for an extension field);
    [Share.eval_packed] (server scans and batches) runs {!eval_share};
    [Share.eval_poly] (client containment) runs {!eval_coeffs}; [Share.add_packed] and
    [Share.product] (client equality) run {!reconstruct_into} and
    {!mul_into}; [Share.reconstruct_packed] (shard router) runs
    {!combine_packed_into}.

    All evaluation here is evaluation in the cyclic quotient
    [F_q[x]/(x^n - 1)], which agrees with the unreduced polynomial
    only at nonzero points — {!point_row} enforces that, mirroring
    {!Cyclic.eval}. *)

val point_row : Secshare_field.Table.t -> point:int -> Bytes.t
(** The per-query evaluation table for [point]: the multiplication-
    table row [x -> x * point] every Horner step multiplies by.
    [point] must already be canonical ([Share.point] normalises it and
    rejects 0 first, exactly as {!Cyclic.eval} does internally).
    @raise Invalid_argument on the zero point (evaluation at 0 is not
    preserved by cyclic reduction; see {!Cyclic.eval}) or a
    non-canonical one. *)

(** How a prepared point is evaluated at. *)
type eval_table =
  | Row of Bytes.t
      (** {!point_row}: Horner, one dependent multiplication-row load
          per coefficient.  Right for every field with byte tables. *)
  | Powers of Bytes.t
      (** [Secshare_field.Table.powers]: [point^0 .. point^(n-1)], for
          {e prime} fields only.  Their canonical encodings are the
          integers mod q, so the value is the integer dot product of
          coefficients and powers, reduced once; the terms are
          independent, and the sum (fewer than 255 terms, each below
          255{^2}) never overflows.  An extension field's encodings are
          not integer arithmetic mod q, so it must use [Row]. *)

val eval_coeffs : Secshare_field.Table.t -> eval_table -> int array -> int
(** Evaluation of a coefficient vector (least degree first, canonical
    encodings — e.g. {!Cyclic.view}) at a prepared point.
    Bit-identical to {!Cyclic.eval}.
    @raise Invalid_argument if a [Powers] table is shorter than the
    vector. *)

val eval_share : Secshare_field.Table.t -> eval_table -> n:int -> Bytes.t -> int
(** Evaluation straight over a {!Codec}-packed share — the
    coefficients are field-decoded inline from the bit-packed buffer,
    so the per-row [Codec.unpack] allocation of the reference path
    disappears entirely.  Validates exactly like [Codec.unpack], and
    both tables reject a bad share with the same message, naming its
    highest coefficient outside [0, q):
    @raise Invalid_argument if the buffer is short, a decoded
    coefficient is outside [0, q), or a [Powers] table is shorter than
    [n]. *)

val reconstruct_into :
  Secshare_field.Table.t ->
  n:int ->
  client:int array ->
  Bytes.t ->
  out:int array ->
  unit
(** [reconstruct_into tab ~n ~client share ~out] writes the
    reconstructed polynomial [client + server] to [out.(0 .. n-1)],
    where the server half is decoded inline from the {!Codec}-packed
    [share] and the client half is a canonical coefficient vector
    (e.g. {!Cyclic.view} of the regenerated client polynomial).
    Bit-identical to [Cyclic.add ring client (Codec.unpack_cyclic ring
    share)], without the intermediate unpacked vector.  [out] is
    caller-provided, so the kernel allocates nothing.  Validates like
    {!eval_share}:
    @raise Invalid_argument if the buffer is short, a decoded
    coefficient is outside [0, q), or [client] or [out] is shorter
    than [n]. *)

val mul_into :
  Secshare_field.Table.t ->
  n:int ->
  a:int array ->
  b:int array ->
  out:int array ->
  unit
(** Cyclic schoolbook product [out <- a * b] in [F_q[x]/(x^n - 1)],
    identical fold order to {!Cyclic.mul} but through the byte
    tables.  Like {!Cyclic.mul}, it counts both operands' nonzero
    coefficients in one allocation-free pass and runs the
    zero-skipping outer loop over the sparser one ([a] on a tie):
    [min (nnz a) (nnz b) * n] steps plus O(n), so a leaf child
    [(x - v)] costs [2n], not [n^2].  [out] must be distinct from [a]
    and [b]; all three must have length at least [n].
    [Share.product] ping-pongs two scratch buffers through this to
    fold a product of children without allocating per step. *)

val combine_packed_into :
  Secshare_field.Table.t ->
  n:int ->
  rows:Bytes.t array ->
  Bytes.t array ->
  out:Bytes.t ->
  unit
(** [combine_packed_into tab ~n ~rows shares ~out] recombines [t]
    {!Codec}-packed Shamir shares of one polynomial (the router's
    shard replies) into the packed original, written to the first
    [Codec.byte_length ~q ~n] bytes of [out].  [rows.(k)] is
    [Table.mul_row tab ~point:lambda_k], the Lagrange multiplier of
    [shares.(k)]: each decoded coefficient is scaled through its row
    and summed through the addition table, then bit-packed in place.
    Bit-identical to [Codec.pack (Shamir.combine_vectors ring ~lambdas
    (List.map Codec.unpack shares))] without the unpacked vectors or
    any per-coefficient allocation.  Validates every share like
    {!eval_share}:
    @raise Invalid_argument if [shares] is empty, [rows] and [shares]
    differ in length, a row is shorter than [q], a share or [out] is
    short, or a decoded coefficient is outside [0, q). *)
