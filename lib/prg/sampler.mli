(** The one rejection sampler over a ChaCha20 keystream, shared by the
    share-polynomial coefficients ({!Node_prg}) and the numeric blinds
    and dealer draws ([Secshare_core.Numeric]).

    Each draw reads [width] keystream bytes as one word (big- or
    little-endian), masks it, and accepts it when the masked word is
    below [below], storing it reduced mod [modulo]; a rejected word is
    simply skipped.  Blocks are generated lazily, one at a time, into a
    single 64-byte buffer.  One-byte draws ([width = 1], every field of
    order up to 256) scan a whole block per step; wider draws run the
    general byte-by-byte loop.  Both read the same stream.

    The stream is pinned bit for bit to the samplers this one replaced,
    including their first-refill quirk: they drew [first_chunk] bytes
    up front and then refilled from block [first_chunk / 64] (rounded
    down), so when [first_chunk] is not a multiple of 64 and the draws
    run past it, the bytes of that block before offset
    [first_chunk mod 64] are read a second time. *)

val fill :
  Chacha20.t ->
  first_chunk:int ->
  width:int ->
  big_endian:bool ->
  mask:int ->
  below:int ->
  modulo:int ->
  int array ->
  unit
(** [fill cipher ~first_chunk ~width ~big_endian ~mask ~below ~modulo out]
    fills every slot of [out] with accepted draws, in stream order,
    starting at block counter 0.
    @raise Invalid_argument if [width] is outside [1, 8], [first_chunk]
    is negative, or the draws would need a block counter past
    [2^32 - 1]. *)
