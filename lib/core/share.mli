(** Additive secret sharing of node polynomials (paper §3 steps 3–4).

    The client polynomial is pseudorandom, regenerated from the seed
    and the node's [pre] number; the server share is chosen so that
    client + server equals the node's true polynomial.  Either share
    alone is uniformly distributed and reveals nothing. *)

val client :
  Secshare_poly.Ring.t -> seed:Secshare_prg.Seed.t -> pre:int -> Secshare_poly.Cyclic.t
(** The regenerated client share of node [pre]. *)

val server_share :
  Secshare_poly.Ring.t ->
  seed:Secshare_prg.Seed.t ->
  pre:int ->
  Secshare_poly.Cyclic.t ->
  Secshare_poly.Cyclic.t
(** [server_share r ~seed ~pre f] is [f - client], the share stored in
    the public table. *)

val reconstruct :
  Secshare_poly.Ring.t ->
  seed:Secshare_prg.Seed.t ->
  pre:int ->
  server:Secshare_poly.Cyclic.t ->
  Secshare_poly.Cyclic.t
(** [client + server]: the node's true polynomial. *)

val combine_evaluations : Secshare_poly.Ring.t -> client:int -> server:int -> int
(** Sum of the two shares' evaluations at the same point — zero iff
    the true polynomial evaluates to zero there (the containment
    test). *)

(** {2 The filters' share arithmetic}

    Every operation the containment test (paper §5.2) and the equality
    test (§6.3) perform on shares, and the one place that picks how it
    runs: through the allocation-free kernels of {!Secshare_poly.Flat}
    when the field has byte tables ([q <= 256], the paper's F_83
    included), through the reference {!Secshare_poly.Cyclic} and
    {!Secshare_poly.Codec} otherwise.  Both give bit-identical results
    and reject the same inputs with [Invalid_argument].
    {!Server_filter} calls {!point} and {!eval_packed}; {!Client_filter}
    calls {!point}, {!eval_poly}, {!add_packed} and {!product}. *)

type point
(** A query point prepared once per request or batch: normalised and,
    with byte tables, carrying its evaluation table — the point's
    powers ([Secshare_field.Table.powers]) on a prime field, whose
    evaluation is one reduced integer dot product, and
    {!Secshare_poly.Flat.point_row} for Horner on an extension field. *)

val point : Secshare_poly.Ring.t -> int -> point
(** The system's one zero-point check.
    @raise Invalid_argument on a point that normalises to 0, exactly as
    {!Secshare_poly.Cyclic.eval} (the cyclic reduction does not
    preserve evaluation at 0). *)

val eval_packed : Secshare_poly.Ring.t -> point -> bytes -> int
(** [Cyclic.eval (Codec.unpack_cyclic share)] for a packed server
    share, validated exactly like [Codec.unpack].
    @raise Invalid_argument on a short share or a coefficient outside
    [\[0, q)]. *)

val eval_poly : Secshare_poly.Ring.t -> point -> Secshare_poly.Cyclic.t -> int
(** [Cyclic.eval]: the regenerated client share at the point. *)

val add_packed :
  Secshare_poly.Ring.t -> client:Secshare_poly.Cyclic.t -> bytes -> Secshare_poly.Cyclic.t
(** [client + server] with the server half packed: the node's true
    polynomial.  @raise Invalid_argument like {!eval_packed}. *)

val product : Secshare_poly.Ring.t -> Secshare_poly.Cyclic.t list -> Secshare_poly.Cyclic.t
(** The left fold of [Cyclic.mul] from [Cyclic.one]: the equality
    test's product of child polynomials. *)

(** {2 Shamir t-of-n re-sharing of the server share}

    Sharded serving (lib/shard) splits the {e server} share again:
    coefficient-wise Shamir with x-coordinates [1 .. shards], so shard
    [i]'s table stores a polynomial share that any [threshold] shards
    recombine by the fixed Lagrange multipliers
    {!Secshare_poly.Shamir.lambdas_at_zero} — and, by linearity, the
    same multipliers recombine per-shard {e evaluations}
    ({!Secshare_poly.Shamir.combine}), which is all the containment
    test needs.  Every shard share packs byte-identically to a
    single-server share, so storage, kernels and the wire format are
    unchanged. *)

val shard_xs : shards:int -> int list
(** The shard x-coordinates [\[1; ...; shards\]]; shard ids are
    1-based and double as interpolation points. *)

val shard_server_share :
  Secshare_poly.Ring.t ->
  threshold:int ->
  shards:int ->
  gen:(unit -> int) ->
  bytes ->
  bytes list
(** Split one packed server share into [shards] packed shard shares
    (order of {!shard_xs}); [gen] supplies the dealer's uniform field
    draws, [threshold - 1] per coefficient.  @raise Invalid_argument
    unless [1 <= threshold <= shards < field order]. *)

val reconstruct_packed :
  Secshare_poly.Ring.t -> lambdas:int list -> bytes list -> bytes
(** Recombine [t] packed shard shares into the original packed server
    share — exact, bit-identical bytes.  Fields with byte tables
    ([q <= 256]) run {!Secshare_poly.Flat.combine_packed_into}, which
    decodes, scales and sums in one pass with no per-coefficient
    allocation; larger fields (no table) fall back to unpacking every
    share, {!Secshare_poly.Shamir.combine_vectors} and repacking.  Both
    paths validate every share like [Codec.unpack].
    @raise Invalid_argument if a share is short or decodes a
    coefficient outside [0, q), or on a lambda/share count mismatch. *)
