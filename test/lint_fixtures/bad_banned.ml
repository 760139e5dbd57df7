(* lint: pretend-path lib/core/fixture_banned.ml *)
(* Positive fixture: every banned API in one place. *)

let ambient_random bound = Random.int bound
let launder (x : float) : int = Obj.magic x
let structural_eq poly other = poly = other
let structural_cmp client_poly other = compare client_poly other
let product_eq ring kids other = Share.product ring kids = other
let poly_key poly = Hashtbl.hash poly
let weak_key name = Hashtbl.hash name
