(* lint: pretend-path lib/shard/cursor_table.ml *)
(* Negative fixture: shard code that fans calls out synchronously and
   keeps every cursor-table mutation under the cursor-table lock. *)

let fan_out t request = List.map (fun shard -> call shard request) t.shards

let register t cursor state =
  with_lock t (fun () -> Hashtbl.replace t.cursors cursor state)
