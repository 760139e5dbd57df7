(** The client/server filter protocol.

    This is the message vocabulary of the paper's [Filter] interface
    (§5.2): tree-structure queries ([Root], [Children]),
    share evaluation on the server ([Eval_batch]), raw share
    fetch for the equality test ([Shares]), and one cursor
    discipline mirroring the [nextNode()] pipeline — "the thin client
    only needs to have one node in memory at a time.  The big server
    will do the buffering of the intermediate results."  A [Scan_eval]
    walks an axis range (optionally evaluating every scanned share);
    its reply carries a cursor while rows remain, drained with
    [Scan_next] or abandoned with [Cursor_close].  The server resumes
    the scan from its node table one batch at a time rather than
    materialising it.

    Everything is structural metadata and share data; tag names and the
    map never cross the wire.  Request and response tags 4 and 5,
    request tags 3, 7, 9 and 11 and response tags 6, 8, 10, 13, 15 and
    16 are retired: the decoders reject them and they are never reused.
    A parent step is a point-free [Scan_eval] over one-pre
    [Bounded_pre_ranges] windows. *)

type node_meta = { pre : int; post : int; parent : int }

type scan_target =
  | Children_of of int list  (** children of every listed parent [pre] *)
  | Pre_ranges of (int * int) list
      (** [(from_pre, below_post)] runs: ascending [pre] from
          [from_pre], stopping at the first row with
          [post >= below_post].  A node's strict descendants are
          [(pre + 1, post)]; its whole subtree is [(pre, post + 1)].
          Nested ranges are deduplicated server-side. *)
  | Bounded_pre_ranges of (int * int * int) list
      (** [(from_pre, until_pre, below_post)]: like [Pre_ranges] but
          also stopping before any row with [pre >= until_pre].  The
          parent step sends one-pre windows [(p, p + 1, 0xFFFFFFFF)]
          with these.  Windows are scanned in [from_pre] order, empty
          ones skipped, and not deduplicated. *)

type manifest_info = {
  shard_id : int;
      (** this server's 1-based shard id — its Shamir x-coordinate;
          0 identifies a router answering for the whole group *)
  shards : int;  (** n: shard servers in the deployment *)
  threshold : int;  (** t: shards needed to reconstruct (1 = plain) *)
  p : int;  (** characteristic of the field the shares live in *)
  e : int;  (** extension degree of that field *)
  total_rows : int;  (** rows of the full table (every shard holds all rows) *)
}
(** Sent as response tag 17.  Retired tag 15 also carried pre-range
    partition bounds; retired tag 16 carried this record from servers
    whose shares were coefficient vectors, so a client of this build
    refuses such a server at its handshake instead of reading its
    stored values as evaluations. *)

val single_server : p:int -> e:int -> rows:int -> manifest_info
(** The 1-of-1 manifest of an unsharded server. *)

type request =
  | Ping
  | Root
  | Children of int  (** parent's [pre] *)
  | Cursor_close of int  (** abandon a [Scan_eval] cursor; answered with [Pong] *)
  | Eval_batch of { pres : int list; point : int }
      (** evaluate the stored shares of the listed nodes at [point],
          answered with [Values] in the same order; the per-node
          client sends one-row batches *)
  | Shares of int list  (** raw shares of the listed nodes, in order *)
  | Scan_eval of { target : scan_target; points : int list; max_items : int }
      (** Fused axis scan + share evaluation: one round trip returns a
          batch of scanned rows, each with its server-share evaluated
          at every point.  Replaces per-parent [Children] calls
          followed by an [Eval_batch]; with no points it is a plain
          streamed axis scan.  The reply is a [Scan_batch]; when it
          carries a cursor, continue with [Scan_next] or abandon with
          [Cursor_close]. *)
  | Scan_next of { cursor : int; max_items : int }
      (** Next batch of a [Scan_eval] — the one request that is not
          idempotent: it advances the cursor, so a resend could skip a
          batch. *)
  | Manifest
      (** Topology and field handshake: answered with [Manifest_data].
          A non-sharded server reports the trivial 1-of-1 manifest and
          a router the group summary ([shard_id = 0]), so clients can
          probe any deployment uniformly. *)
  | Agg_eval of { pres : int list }
      (** Fold the numeric-column shares of the listed rows into one
          blinded partial sum (answered with [Agg_partial]).  The
          client sends the matched [pre]s — the same access pattern a
          node-set fetch reveals — and receives a constant-size reply
          whatever the selectivity. *)

type response =
  | Pong
  | Node_opt of node_meta option
  | Nodes of node_meta list
  | Values of int list
  | Shares_data of bytes list
  | Scan_batch of { rows : (node_meta * int list) list; cursor : int option }
      (** One batch of a fused scan; [cursor] is present when more
          rows remain. *)
  | Manifest_data of manifest_info
  | Agg_partial of { count : int; sum : int }
      (** Reply to [Agg_eval]: [count] rows folded, [sum] their
          server-share total in the numeric field.  [sum] is one
          additive share — uniformly random without the client's
          blinding shares — and the reply is the same size on the wire
          for every selectivity. *)
  | Error_msg of string

val request_name : request -> string
(** Stable lowercase opcode name ("scan_eval", "scan_next", …) —
    safe as a metric label value: carries the opcode only, never the
    request payload. *)

val encode_request : request -> string
val decode_request : string -> request
(** @raise Wire.Decode_error on malformed input. *)

val encode_response : response -> string

val response_size : response -> int
(** The exact encoded length of the replies that grow with a batch
    ([Scan_batch], [Values], [Nodes], [Shares_data]), so their frame is
    allocated once; a small initial capacity for every other reply.
    The test suite pins it to {!encode_response}'s output. *)

val decode_response : string -> response
(** @raise Wire.Decode_error on malformed input. *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
