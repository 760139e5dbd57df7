(* The queries of the paper's evaluation (§6), shared by the figure
   benchmarks and the tier-1 checks of the paper's claims. *)

(* Table 1 / figure 5: chain queries of length 1 to 9. *)
let table1 =
  [
    "/site";
    "/site/regions";
    "/site/regions/europe";
    "/site/regions/europe/item";
    "/site/regions/europe/item/description";
    "/site/regions/europe/item/description/parlist";
    "/site/regions/europe/item/description/parlist/listitem";
    "/site/regions/europe/item/description/parlist/listitem/text";
    "/site/regions/europe/item/description/parlist/listitem/text/keyword";
  ]

(* Table 2 / figures 6 and 7: queries with zero, one and two '//'. *)
let table2 =
  [
    "/site//europe/item";
    "/site//europe//item";
    "/site/*/person//city";
    "/*/*/open_auction/bidder/date";
    "//bidder/date";
  ]

(* Occurrences of the descendant axis '//' in a query. *)
let descendant_steps q =
  let n = ref 0 in
  String.iteri
    (fun i c -> if c = '/' && i + 1 < String.length q && q.[i + 1] = '/' then incr n)
    q;
  !n
