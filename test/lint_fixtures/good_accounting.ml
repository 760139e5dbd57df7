(* lint: pretend-path lib/core/fixture_accounting_ok.ml *)
(* Negative fixture: the sanctioned removal path and merge. *)

let remove_locked t id = Lru.remove t.cursors id
let merge acc batch = Metrics.add acc batch
let bump acc n = acc.Metrics.evaluations <- acc.Metrics.evaluations + n
