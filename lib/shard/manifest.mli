(** The deployment descriptor of a database.

    [ssdb_encode] writes one next to every table file (1-of-1 for a
    single server, one per shard with [--shards n --threshold t]);
    servers take their field from it and answer the [Manifest]
    handshake with it; the router collects the manifests from every
    shard, learns the field from them and checks that they describe
    one deployment.

    The manifest records the {e field} ([p], [e]) and the {e threshold
    geometry} ([shards], [threshold], [shard_id]): every shard stores
    {e all} rows, each row carrying that shard's Shamir share of the
    server polynomial (x-coordinate = [shard_id]), so any [threshold]
    shards serve any row and up to [shards - threshold] may be down.

    Manifests written by earlier encoders also carry a [bounds = ...]
    line (a retired pre-range routing overlay); [load] ignores it, as
    it ignores every key it does not know. *)

type t = {
  shard_id : int;  (** 1-based Shamir x-coordinate; 0 names a router *)
  shards : int;  (** n: shard servers in the deployment *)
  threshold : int;  (** t: shards needed to reconstruct *)
  p : int;  (** field characteristic of the encoded shares *)
  e : int;  (** field extension degree *)
  rows : int;  (** rows of the full table (each shard holds all of them) *)
}

val validate : t -> (unit, string) result
(** Structural sanity: [1 <= threshold <= shards], [shard_id] in
    [0, shards] and non-negative [rows]. *)

val group_consistent : t list -> (t, string) result
(** Check that a list of shard manifests describes one deployment —
    identical geometry, field and rows; distinct in-range
    shard ids — and return the group summary (the first manifest with
    [shard_id = 0]). *)

val to_info : t -> Secshare_rpc.Protocol.manifest_info
val of_info : Secshare_rpc.Protocol.manifest_info -> t
(** Convert to/from the wire handshake, which carries every field of
    the manifest, the field parameters included. *)

val shard_db_path : string -> int -> string
(** [shard_db_path base i] is the table file of shard [i]:
    ["base.shard<i>"]. *)

val manifest_path : string -> string
(** The manifest written next to a table file: ["<db>.manifest"]. *)

val save : string -> t -> unit
val load : string -> (t, string) result
(** Key-value text format, one [key = value] per line; [load] reports
    missing or malformed fields and ignores unknown keys. *)
