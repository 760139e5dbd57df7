(** The queries of the paper's evaluation (§6), defined once for the
    figure benchmarks ([bench/main.exe]) and the tier-1 checks of the
    paper's claims ([test/test_paper.ml]). *)

val table1 : string list
(** Table 1 / figure 5: the chain queries [/site/regions/europe/…] of
    lengths 1 to 9. *)

val table2 : string list
(** Table 2 / figures 6 and 7: five queries with zero, one and two
    descendant steps. *)

val descendant_steps : string -> int
(** The number of [//] steps in a query. *)
