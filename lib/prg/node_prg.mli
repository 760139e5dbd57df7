(** Deterministic regeneration of client shares.

    The client tree is generated pseudorandomly and discarded; only the
    seed survives.  A node's client share lives in the evaluation
    domain ({!Secshare_poly.Evals}): slot [j] holds its value at the
    point encoded [j + 1], and each slot is drawn from a fixed place in
    a ChaCha20 keystream keyed by the seed, nonce domain-separated by
    the node's [pre] ({!Sampler.slots}).  So the whole share is
    regenerated a block at a time ({!client_poly}, three blocks at
    q = 83), and one value costs at most one block ({!client_value}),
    with no polynomial and no evaluation.  The values are exactly
    uniform and independent, so the share is a uniform ring element —
    the secret-sharing hiding property depends on this.  The stream is
    pinned bit for bit by digests in the test suite, because every
    stored server share depends on it. *)

val cipher : seed:Seed.t -> pre:int -> tag:string -> Chacha20.t
(** The ChaCha20 stream of node [pre] under [seed]: the nonce is [pre]
    as 8 little-endian bytes followed by the 4-byte domain [tag]
    (["slot"] for client shares and ["poly"] for {!coefficients} here;
    [Secshare_core.Numeric] uses ["nval"] and ["ndea"]), so every use
    of the seed reads its own stream. *)

val client_poly :
  ring:Secshare_poly.Ring.t -> seed:Seed.t -> pre:int -> Secshare_poly.Evals.t
(** The full client share of node [pre], every slot in order.
    Deterministic in [(seed, ring, pre)].
    @raise Invalid_argument on negative [pre]. *)

type reader
(** One client's random access to single slots: a cipher state whose
    nonce is rewritten per node, and scratch blocks, so a slot read
    allocates nothing.  Used by one caller at a time. *)

val reader : ring:Secshare_poly.Ring.t -> seed:Seed.t -> reader

val client_value : reader -> pre:int -> slot:int -> int
(** Slot [slot] of [client_poly ~pre], generating at most one main block
    (plus overflow blocks for a rejected word).
    @raise Invalid_argument on negative [pre] or a slot outside
    [\[0, q - 1)]. *)

val coefficients : seed:Seed.t -> pre:int -> q:int -> count:int -> int array
(** [count] forward draws in [\[0, q)] from the ["poly"] stream: each a
    [k]-byte big-endian word ([k] the fewest bytes covering [q]), kept
    when below the largest multiple of [q] that fits and then reduced
    mod [q] ({!Sampler.fill}).  The Shamir dealer's per-row draws, also
    exposed for statistical tests.
    @raise Invalid_argument on negative [pre] or [count], or [q < 2]. *)
