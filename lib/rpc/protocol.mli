(** The client/server filter protocol.

    This is the message vocabulary of the paper's [Filter] interface
    (§5.2): tree-structure queries ([Root], [Children], [Parent]),
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
    request tags 7, 9 and 11 and response tags 6, 8 and 10 are
    retired: the decoders reject them and they are never reused. *)

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
          sharding router splits a range at partition boundaries with
          these; because subtree ranges are pre-contiguous, the
          concatenation of the bounded pieces equals the original
          range exactly.  Pieces are taken as given (sorted by
          [from_pre]), not deduplicated. *)

type manifest_info = {
  shard_id : int;
      (** this server's 1-based shard id — its Shamir x-coordinate;
          0 identifies a router answering for the whole group *)
  shards : int;  (** n: shard servers in the deployment *)
  threshold : int;  (** t: shards needed to reconstruct (1 = plain) *)
  total_rows : int;  (** rows of the full table (every shard holds all rows) *)
  bounds : int list;
      (** ascending partition start [pre]s — the pre-range routing
          overlay; partition [k] spans [bounds(k)] up to [bounds(k+1)]
          (the last one is unbounded) *)
}

type request =
  | Ping
  | Root
  | Children of int  (** parent's [pre] *)
  | Parent of int  (** child's [pre] *)
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
      (** Topology handshake: answered with [Manifest_data].  A
          non-sharded server reports the trivial 1-of-1 manifest, so
          clients can probe any deployment uniformly. *)
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
val decode_response : string -> response
(** @raise Wire.Decode_error on malformed input. *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
