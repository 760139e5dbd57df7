(** Additive secret sharing of node polynomials (paper §3 steps 3–4),
    in the evaluation domain.

    Every share is held as its values at the [q - 1] nonzero points
    ({!Secshare_poly.Evals}: slot [j] is the point encoded [j + 1], a
    public map).  The client share is pseudorandom, regenerated from
    the seed and the node's [pre] number; the server share is chosen so
    that client + server is the node's true polynomial [f], so the
    server stores [phi(f) - c].  Either share alone is uniformly
    distributed and reveals nothing. *)

module Evals := Secshare_poly.Evals

val client : Secshare_poly.Ring.t -> seed:Secshare_prg.Seed.t -> pre:int -> Evals.t
(** The regenerated client share of node [pre]: every slot. *)

val server_share :
  Secshare_poly.Ring.t -> seed:Secshare_prg.Seed.t -> pre:int -> Evals.t -> Evals.t
(** [server_share r ~seed ~pre f] is [f - client], the share stored in
    the public table. *)

val reconstruct :
  Secshare_poly.Ring.t -> seed:Secshare_prg.Seed.t -> pre:int -> server:Evals.t -> Evals.t
(** [client + server]: the node's true polynomial. *)

val combine_evaluations : Secshare_poly.Ring.t -> client:int -> server:int -> int
(** Sum of the two shares' values at the same point — zero iff the
    true polynomial evaluates to zero there (the containment test). *)

(** {2 The filters' and the encoder's share arithmetic}

    Every operation the containment test (paper §5.2), the equality
    test (§6.3) and the encoder (§5.1) perform on shares, and the one
    place that picks how it runs: through the allocation-free kernels
    of {!Secshare_poly.Flat} when the field has byte tables ([q <= 256],
    the paper's F_83 included), through the reference {!Evals} and
    {!Secshare_poly.Codec} otherwise.  Both give bit-identical results
    and reject the same inputs with [Invalid_argument].  None of them
    transforms between domains: a containment test reads one slot, and
    products are pointwise.  {!Server_filter} calls {!point} and
    {!eval_packed}; {!Client_filter} calls {!point}, {!client_value},
    {!add_packed} and {!product}; {!Encode} calls
    {!encode_node}, {!product} and {!server_share}. *)

type point
(** A query point prepared once per request or batch: normalised, and
    mapped to its slot. *)

val point : Secshare_poly.Ring.t -> int -> point
(** The system's one zero-point check.
    @raise Invalid_argument on a point that normalises to 0, with
    {!Secshare_poly.Cyclic.eval}'s message (0 has no slot). *)

val eval_packed : Secshare_poly.Ring.t -> point -> bytes -> int
(** A packed server share's value at the point: its stored value in
    the point's slot.  The whole share is validated exactly like
    [Codec.unpack], as when the value was an evaluation.
    @raise Invalid_argument on a short share or a value outside
    [\[0, q)]. *)

val client_value : Secshare_prg.Node_prg.reader -> pre:int -> point -> int
(** The client share of node [pre] at the point, through the client's
    slot reader ({!Secshare_prg.Node_prg.reader}): one slot, at most
    one keystream block, and the same value as {!client}'s slot. *)

val add_packed : Secshare_poly.Ring.t -> client:Evals.t -> bytes -> Evals.t
(** [client + server] with the server half packed: the node's true
    polynomial.  @raise Invalid_argument like {!eval_packed}. *)

val product : Secshare_poly.Ring.t -> Evals.t list -> Evals.t
(** The pointwise product from {!Evals.one}: the equality test's
    product of child polynomials, and the encoder's. *)

val encode_node :
  Secshare_poly.Ring.t -> root:int -> Evals.t option -> Evals.t
(** The encoding step [f(node) = (x - root) * prod f(children)], with
    [None] for a leaf (no children: [x - root]). *)

(** {2 Shamir t-of-n re-sharing of the server share}

    Sharded serving (lib/shard) splits the {e server} share again:
    value-by-value Shamir with x-coordinates [1 .. shards], so shard
    [i]'s table stores a polynomial share that any [threshold] shards
    recombine by the fixed Lagrange multipliers
    {!Secshare_poly.Shamir.lambdas_at_zero} — and, by linearity, the
    same multipliers recombine per-shard {e values}
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
    draws, [threshold - 1] per value.  @raise Invalid_argument
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
