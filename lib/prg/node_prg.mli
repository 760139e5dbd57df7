(** Deterministic regeneration of client-side share polynomials.

    The client tree is generated pseudorandomly and discarded; only the
    seed survives.  [client_poly] regenerates the client polynomial of
    the node at pre-order position [pre]: ChaCha20 keyed by the seed,
    nonce domain-separated by [pre], coefficients drawn uniformly in
    [0, q) by rejection sampling (so the shares are uniform — the
    secret-sharing hiding property depends on this).

    Each coefficient is a [k]-byte big-endian word of the keystream,
    with [k] the fewest bytes covering [q], kept when below the largest
    multiple of [q] that fits and then reduced mod [q].  The draw runs
    on {!Sampler}, which reads the keystream strictly forward, each
    byte once, generates the blocks lazily (two for q = 83) and
    allocates only the output.  The stream is pinned bit for bit by
    digests in the test suite, because every stored server share
    depends on it. *)

val cipher : seed:Seed.t -> pre:int -> tag:string -> Chacha20.t
(** The ChaCha20 stream of node [pre] under [seed]: the nonce is [pre]
    as 8 little-endian bytes followed by the 4-byte domain [tag]
    (["poly"] for the share coefficients here; [Secshare_core.Numeric]
    uses ["nval"] and ["ndea"]), so every use of the seed reads its own
    stream. *)

val client_poly :
  ring:Secshare_poly.Ring.t -> seed:Seed.t -> pre:int -> Secshare_poly.Cyclic.t
(** The client polynomial for node [pre].  Deterministic in
    [(seed, ring, pre)].  The coefficients are already canonical, so
    they go into the ring without normalisation
    ({!Secshare_poly.Cyclic.of_canonical}).
    @raise Invalid_argument on negative [pre]. *)

val coefficients : seed:Seed.t -> pre:int -> q:int -> count:int -> int array
(** The underlying uniform draw in [0, q), exposed for statistical
    tests and for the Shamir dealer's per-row draws.
    @raise Invalid_argument on negative [pre] or [count], or [q < 2]. *)
