(* lint: pretend-path lib/core/fixture_secret.ml *)
(* Positive fixture: every definition below must trip secret-flow. *)

let leak_ident share = Printf.printf "share=%d\n" share
let leak_field t = Events.debug "poly degree %d" t.node_poly
let leak_producer () = failwith (Seed.to_hex (Seed.generate ()))
let leak_node ring ~c b = Printf.printf "%s\n" (Share.add_packed ring ~client:c b)

let leak_label tag_name =
  Registry.counter ~labels:[ ("tag", tag_name) ] "ssdb_fixture_total"

let leak_dealer s =
  failwith (string_of_int (Node_prg.coefficients ~seed:s ~pre:0 ~q:83 ~count:1).(0))
let leak_name m v = prerr_endline (Option.get (Mapping.name_of m v))
let leak_value m t = Printf.eprintf "%d\n" (Mapping.value_exn m t)
