(** Shared pieces of the two query engines (§5.3). *)

type strictness =
  | Strict  (** the equality test: exact, expensive (§6.3) *)
  | Non_strict  (** the containment test: cheap, approximate *)

(** What a query evaluates to. *)
type value =
  | Nodes of Secshare_rpc.Protocol.node_meta list
      (** a location path's matched set, in document order *)
  | Count of int
  | Sum of Qnum.t
      (** exact rational: the fixed-point scale divides out without
          rounding *)
  | Avg of Qnum.t  (** [Sum / Count]; zero over the empty set *)

exception Query_error of string

val map_point : Mapping.t -> string -> int
(** The mapped field value of a tag name.
    @raise Query_error on an unmapped name (the query can never match
    — surfacing this is a client-side decision; the server never sees
    the name). *)

val look_points : Mapping.t -> string list -> int list
(** Mapped values of a look-ahead name set. *)

val sort_dedup :
  Secshare_rpc.Protocol.node_meta list -> Secshare_rpc.Protocol.node_meta list
(** Document order ([pre]), duplicates removed. *)

val empty_value : Secshare_xpath.Ast.agg_func option -> value
(** What a query evaluates to over the empty set: [Nodes []] for a
    location path, [Count 0] or a zero sum for an aggregate — the
    short-circuit answer when a query name is unmapped. *)

val agg_scale : Mapping.t -> func:Secshare_xpath.Ast.agg_func -> Secshare_xpath.Ast.t -> int
(** The fixed-point scale an [Aggregate] plan operator needs: 0 for
    [Count], the final tag's aggregatable scale for [Sum]/[Avg].
    @raise Query_error when that tag is not flagged aggregatable or
    the path does not end in a tag name. *)
