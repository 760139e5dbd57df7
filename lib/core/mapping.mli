(** The secret mapping function [map : name -> F_q \ {0}] (paper §3
    step 1, §5.1 "map file").

    Every tag name (and, with the trie enhancement, every alphabet
    character and the end-of-word marker) is assigned a distinct
    *nonzero* field value.  Zero is excluded because the scheme
    evaluates polynomials only at mapped points and reduction modulo
    [x^(q-1) - 1] does not preserve evaluation at zero.

    The map is part of the client's secret state: the server sees only
    polynomial shares, never names or mapped values. *)

type t

val field_order : t -> int

val of_names : q:int -> string list -> (t, string) result
(** Assign values 1, 2, ... in list order (duplicates collapsed).
    Fails if there are more than [q - 1] distinct names or [q < 2]. *)

val of_dtd : q:int -> Secshare_xml.Dtd.t -> (t, string) result
(** Map every element the DTD declares, in declaration order — the
    paper's configuration (77 XMark elements, q = 83). *)

val of_tree : q:int -> Secshare_xml.Tree.t -> (t, string) result
(** Map the distinct tag names that actually occur in a document. *)

val with_trie_alphabet : t -> (t, string) result
(** Extend with the 26 characters and the end-of-word marker used by
    trie expansion (fails if the field has no room). *)

val value : t -> string -> int option
val value_exn : t -> string -> int
(** @raise Not_found for unmapped names. *)

val name_of : t -> int -> string option
val names : t -> string list
(** Mapped names in assignment order. *)

val size : t -> int

(** {2 Aggregatable tags}

    A tag is flagged aggregatable when every one of its occurrences is
    a numeric leaf, so [sum()] / [avg()] queries over it can be pushed
    to the server's numeric share column.  The flag carries the
    fixed-point scale (digits after the decimal point) the encoder
    used for that tag's values. *)

val max_agg_scale : int
(** Largest supported fixed-point scale (18 — the widest decimal that
    still fits the numeric field). *)

val set_aggregatable : t -> string -> scale:int -> unit
(** @raise Invalid_argument on unmapped names or scales outside
    [\[0, max_agg_scale\]]. *)

val clear_aggregatable : t -> unit
(** Drop every flag (the encoder re-derives them at [finish]). *)

val aggregatable_scale : t -> string -> int option
(** [Some scale] when the tag is flagged, [None] otherwise. *)

val aggregatable_names : t -> string list
(** Flagged tags, in assignment order. *)

val to_file_string : t -> string
(** The paper's map-file syntax: one [name = value] property per
    line, preceded by a [q = ...] header line.  Aggregatable tags add
    trailing [%agg.name = scale] lines ('%' can never start an XML tag
    name, so old files parse unchanged). *)

val of_file_string : string -> (t, string) result
(** Parse a map file; validates the header, value ranges, duplicate
    names/values, and aggregatable-flag lines. *)

val save : string -> t -> unit
(** Write the map file readable by its owner only
    ({!Secshare_prg.Seed.write_secret_file}): it is a client secret. *)

val load : string -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
