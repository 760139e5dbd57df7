(** The client's secret seed — the encryption key of the scheme.

    "The seed file acts as the encryption key and should therefore be
    kept secure.  Without the seed file it is impossible to regenerate
    the client tree, and without the client tree the data on the server
    is meaningless." (paper §5.1)

    A seed is 32 bytes (a ChaCha20 key).  Seed files store it as 64
    hexadecimal characters on a single line. *)

type t

val of_bytes : bytes -> t
(** @raise Invalid_argument unless exactly 32 bytes. *)

val to_bytes : t -> bytes
(** A fresh copy; callers cannot mutate the seed in place. *)

val of_hex : string -> (t, string) result
val to_hex : t -> string

val of_passphrase : string -> t
(** Deterministic seed derivation from a passphrase (iterated ChaCha20
    expansion of a length-prefixed FNV-1a digest; not a
    memory-hard KDF — convenience for examples and tests). *)

val generate : unit -> (t, string) result
(** Fresh random seed from the OS entropy source ([/dev/urandom]).
    [Error] when the source cannot be opened or reads short: there is
    no fallback, because key material derived from anything weaker (a
    clock, a process id) can be recovered by search. *)

val load : string -> (t, string) result
(** Read a seed file (64 hex chars, surrounding whitespace
    ignored). *)

val save : string -> t -> unit
(** Write a seed file through {!write_secret_file}. *)

val write_secret_file : string -> string -> unit
(** [write_secret_file path contents] writes a client secret (the seed
    file, the tag map) readable by its owner only: [contents] go to a
    fresh 0o600 file in [path]'s directory, which is then renamed over
    [path], so an existing file's wider mode never survives.
    @raise Sys_error if the directory cannot be written. *)

val equal : t -> t -> bool
