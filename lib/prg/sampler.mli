(** The rejection samplers over a ChaCha20 keystream.  {!fill} reads
    the stream forward, for the Shamir dealer's coefficients
    ({!Node_prg.coefficients}) and the numeric blinds and dealer draws
    ([Secshare_core.Numeric]); the slot sampler ({!slots}) gives random
    access to each value of a client share ({!Node_prg.client_poly}).

    Each draw reads the next [width] keystream bytes as one word (big-
    or little-endian), masks it, and accepts it when the masked word is
    below [below], storing it reduced mod [modulo]; a rejected word is
    simply skipped.  The stream is read strictly forward from block 0
    and every byte feeds exactly one draw, so accepted draws are
    independent and uniform over [\[0, below)] (and over [\[0, modulo)]
    when [modulo] divides [below]).  Blocks are generated lazily, one
    at a time, into a single 64-byte buffer.  One-byte draws
    ([width = 1], every field of order up to 256) scan a whole block
    per step; wider draws run the general byte-by-byte loop.  Both read
    the same stream. *)

val fill :
  Chacha20.t ->
  width:int ->
  big_endian:bool ->
  mask:int ->
  below:int ->
  modulo:int ->
  int array ->
  unit
(** [fill cipher ~width ~big_endian ~mask ~below ~modulo out] fills
    every slot of [out] with accepted draws, in stream order, starting
    at block counter 0.
    @raise Invalid_argument if [width] is outside [1, 8] or the draws
    would need a block counter past [2^32 - 1]. *)

(** {2 Slots: random access to single draws}

    Draw [j] of [count] (a {e slot}) is read from a fixed place, so one
    draw costs at most one block.  With [k] the fewest bytes covering
    [q], each slot is a little-endian word of [width = k + 1] bytes;
    each block holds [per_block = 64 / width] slots, in order, and no
    slot straddles two blocks, so slot [j] lives in block
    [j / per_block].  A word is accepted when it is below
    [2^(8 width) - (2^(8 width) mod q)], a multiple of [q], and the
    slot's value is the word mod [q].  A rejected slot is redrawn from
    its own overflow blocks, counters [main + j + i * count] for
    [i = 0, 1, ...] ([main] the blocks the slots fill), whose words are
    scanned in order until one is accepted.  Every keystream byte
    feeds at most one slot, so the values are independent and exactly
    uniform over [\[0, q)].  At q = 83: 2-byte words, 32 slots a block,
    3 blocks for 82 slots, and a rejection probability of 49/65536 per
    slot. *)

val bytes_needed : int -> int
(** The fewest bytes whose words cover [\[0, q)]. *)

type slots
(** The slot layout of [count] draws in [\[0, q)]. *)

val slots : q:int -> count:int -> slots
(** @raise Invalid_argument on [q < 2], a negative [count] or a [q]
    needing words wider than 7 bytes. *)

val slot_count : slots -> int

val slot_block : slots -> int -> int
(** The block counter holding slot [j]. *)

val slot_value : Chacha20.t -> slots -> block:bytes -> scratch:bytes -> int -> int
(** [slot_value cipher s ~block ~scratch j]: the value of slot [j],
    given [block] holding keystream block [slot_block s j].  [scratch]
    (64 bytes) receives overflow blocks, only when the slot's word is
    rejected.
    @raise Invalid_argument if [j] is outside [\[0, count)] or [block]
    is shorter than 64 bytes. *)

val fill_slots : Chacha20.t -> slots -> int array -> unit
(** Every slot, in order, each block generated once.
    @raise Invalid_argument unless the array has [count] entries. *)
