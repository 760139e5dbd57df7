(** Binary wire primitives for the filter protocol.

    Little-endian fixed-width integers and length-prefixed blobs over
    a growable byte buffer (writing) or a string cursor (reading).  All
    reads validate bounds and fail with [Decode_error] rather than
    raising out-of-bounds exceptions. *)

exception Decode_error of string

type writer
type reader

val writer : ?size:int -> unit -> writer
(** [size] (default 256) is the initial capacity.  A writer given its
    message's exact length allocates that message once: large replies
    then never pass through the intermediate buffers of a doubling
    growth, which in-process deployments would otherwise allocate, and
    drop, on the major heap for every scan batch. *)

val contents : writer -> string
(** The bytes written.  The writer must not be used afterwards. *)

val write_u8 : writer -> int -> unit
val write_u32 : writer -> int -> unit
(** @raise Invalid_argument outside [0, 2^32). *)

val write_i64 : writer -> int -> unit
val write_bytes : writer -> bytes -> unit
val write_string : writer -> string -> unit
val write_list : writer -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed; the callback writes each element. *)

val reader : string -> reader
val read_u8 : reader -> int
val read_u32 : reader -> int
val read_i64 : reader -> int
val read_bytes : reader -> bytes
val read_string : reader -> string
val read_list : reader -> (unit -> 'a) -> 'a list
val expect_end : reader -> unit
(** @raise Decode_error if trailing bytes remain. *)
