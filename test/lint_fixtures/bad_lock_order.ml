(* lint: pretend-path lib/store/pager.ml *)
(* Positive fixture: two inversions and an undeclared lock site. *)

let closure_inversion st =
  with_lock st.io (fun () -> with_lock st.latch (fun () -> ()))

let sequence_inversion st =
  Mutex.lock st.io;
  with_lock st.latch (fun () -> ());
  Mutex.unlock st.io

let undeclared st =
  Mutex.lock st.mystery_lock;
  ()
