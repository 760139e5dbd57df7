(** Allocation-free share kernels over flat byte tables.

    These are the hot loops of the whole system: reading a stored
    share's value at a query point during scans, and the pointwise
    arithmetic of the equality test and the encoder.  Shares live in
    the evaluation domain ({!Evals}): slot [j] holds the value at the
    point encoded [j + 1], so evaluation is a lookup and the ring
    product is pointwise.  The reference operations ({!Evals},
    {!Codec}) walk closure-cached field operations; the kernels here
    walk the flat byte tables of {!Secshare_field.Table} instead, and
    results stay bit-identical (the tables are built from the same
    field operations).

    Every entry point takes the table and its buffers explicitly; none
    allocates on the per-value path.  Array arguments must hold
    canonical encodings in [\[0, q)] (the packed-share entry points
    validate what they decode).  The module is a designated kernel
    module for [ssdb_lint]: allocating combinators ([Array.map],
    [List.map], ...) are banned inside it.

    Outside this library only [Secshare_core.Share] calls these
    kernels, choosing them whenever the ring has byte tables:
    [Share.eval_packed] (server scans and batches) runs {!eval_share};
    [Share.add_packed] and [Share.product] (client equality) run
    {!reconstruct_into} and {!pointwise_mul_into}; [Share.product],
    [Share.encode_node] and [Share.server_share] (the encoder) run
    {!pointwise_mul_into}, {!linear_mul_into} and {!sub_into};
    [Share.reconstruct_packed] (shard router) runs
    {!combine_packed_into}. *)

val eval_share : Secshare_field.Table.t -> n:int -> slot:int -> Bytes.t -> int
(** The value in [slot] of a {!Codec}-packed share, decoded inline
    with no unpacked vector.  The whole share is validated exactly like
    [Codec.unpack], and a bad share is refused naming its highest
    value outside [\[0, q)]:
    @raise Invalid_argument if the buffer is short, a decoded value is
    outside [\[0, q)], or [slot] is outside [\[0, n)]. *)

val reconstruct_into :
  Secshare_field.Table.t ->
  n:int ->
  client:int array ->
  Bytes.t ->
  out:int array ->
  unit
(** [reconstruct_into tab ~n ~client share ~out] writes [client +
    server] to [out.(0 .. n-1)], where the server half is decoded
    inline from the {!Codec}-packed [share].  Addition is coordinatewise
    in either domain, so this is [Evals.add ring client (unpacked
    share)] without the intermediate vector.  [out] is caller-provided,
    so the kernel allocates nothing.  Validates like {!eval_share}:
    @raise Invalid_argument if the buffer is short, a decoded value is
    outside [0, q), or [client] or [out] is shorter than [n]. *)

val pointwise_mul_into :
  Secshare_field.Table.t -> n:int -> a:int array -> b:int array -> out:int array -> unit
(** [out.(j) <- a.(j) * b.(j)]: the ring product in the evaluation
    domain.  [out] may be [a] or [b].
    @raise Invalid_argument if a buffer is shorter than [n]. *)

val sub_into :
  Secshare_field.Table.t -> n:int -> a:int array -> b:int array -> out:int array -> unit
(** [out.(j) <- a.(j) - b.(j)]; [out] may be [a] or [b].
    @raise Invalid_argument if a buffer is shorter than [n]. *)

val linear_mul_into :
  Secshare_field.Table.t -> n:int -> root:int -> a:int array -> out:int array -> unit
(** [out <- (x - root) * a]: [out.(j) <- (point_j - root) * a.(j)], the
    encoding step [f(node) = (x - map(node)) * prod f(children)].  [out]
    may be [a].
    @raise Invalid_argument if [root] is not canonical or a buffer is
    shorter than [n]. *)

val combine_packed_into :
  Secshare_field.Table.t ->
  n:int ->
  rows:Bytes.t array ->
  Bytes.t array ->
  out:Bytes.t ->
  unit
(** [combine_packed_into tab ~n ~rows shares ~out] recombines [t]
    {!Codec}-packed Shamir shares of one share vector (the router's
    shard replies) into the packed original, written to the first
    [Codec.byte_length ~q ~n] bytes of [out].  Shamir sharing is linear
    and works value by value, so the domain the vector is in does not
    matter.  [rows.(k)] is [Table.mul_row tab ~point:lambda_k], the
    Lagrange multiplier of [shares.(k)]: each decoded value is scaled
    through its row and summed through the addition table, then
    bit-packed in place.  Bit-identical to [Codec.pack
    (Shamir.combine_vectors ring ~lambdas (List.map Codec.unpack
    shares))] without the unpacked vectors or any per-value
    allocation.  Validates every share like {!eval_share}:
    @raise Invalid_argument if [shares] is empty, [rows] and [shares]
    differ in length, a row is shorter than [q], a share or [out] is
    short, or a decoded value is outside [0, q). *)
