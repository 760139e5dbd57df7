(** ChaCha20 (RFC 8439 core), used as the scheme's pseudorandom
    generator.

    The client tree of shares is never stored: each node's share is
    regenerated on demand from the secret seed (the 256-bit key) and
    the node's [pre] number (domain-separating the nonce), exactly the
    "pseudorandom generator with the secret seed and the pre location"
    of the paper's §5.2.  Test vectors from RFC 8439 §2.3.2 (one block)
    and §2.4.2 (a multi-block keystream) are checked in the test suite.

    One allocation-free core computes every block: a C stub
    (chacha20_stubs.c, built with plain [-O2]) that is reentrant, keeps
    the state in local variables, allocates nothing and writes only the
    64 output bytes of the caller's buffer.  The key and nonce are
    validated once ({!create}), and {!block_into} checks the counter and
    the destination before calling the core.  {!block}, {!keystream}
    and {!xor_with} are thin wrappers over it.  The block counter is 32
    bits; a block past [2^32 - 1] is an error, never a silent wrap to
    block 0 (that would reuse the keystream). *)

val key_length : int
(** 32 bytes. *)

val nonce_length : int
(** 12 bytes. *)

type t
(** A key and nonce, parsed into state words and validated. *)

val create : key:bytes -> nonce:bytes -> t
(** @raise Invalid_argument on a wrong key or nonce length. *)

val set_nonce : t -> bytes -> unit
(** Replace the nonce of [t] in place, keeping its key: one state reused
    across nodes, with no allocation.  Only for a state that one owner
    uses at a time.
    @raise Invalid_argument on a wrong nonce length. *)

val block_into : t -> counter:int -> bytes -> off:int -> unit
(** [block_into t ~counter dst ~off] writes keystream block [counter]
    to [dst.[off] .. dst.[off + 63]], allocating nothing.
    @raise Invalid_argument if [counter] is outside [0, 2^32 - 1] or
    [dst] has fewer than 64 bytes from [off]. *)

val block : key:bytes -> counter:int -> nonce:bytes -> bytes
(** One 64-byte keystream block.
    @raise Invalid_argument on wrong key/nonce length or a counter
    outside [0, 2^32 - 1]. *)

val keystream : key:bytes -> nonce:bytes -> counter:int -> int -> bytes
(** [keystream ~key ~nonce ~counter len]: [len] keystream bytes
    starting at the given block counter.
    @raise Invalid_argument on a negative length, wrong key/nonce
    length, or when the blocks needed run past counter [2^32 - 1]. *)

val xor_with : key:bytes -> nonce:bytes -> counter:int -> bytes -> bytes
(** Encrypt/decrypt by xor with the keystream (the same operation both
    ways).  Validates like {!keystream}. *)
