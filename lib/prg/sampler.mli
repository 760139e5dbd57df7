(** The one rejection sampler over a ChaCha20 keystream, shared by the
    share-polynomial coefficients ({!Node_prg}) and the numeric blinds
    and dealer draws ([Secshare_core.Numeric]).

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
