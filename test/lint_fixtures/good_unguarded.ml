(* lint: pretend-path lib/core/cursor_table.ml *)
(* Negative fixture: the three accepted guard forms. *)

let register_with_lock t id state =
  with_lock t (fun () -> Hashtbl.replace t.table id state)

let register_in_region t id state =
  Mutex.lock t.lock;
  Hashtbl.replace t.table id state;
  Mutex.unlock t.lock

let register_locked t id state = Hashtbl.replace t.table id state
