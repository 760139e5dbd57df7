(* lint: pretend-path lib/store/pager.ml *)
(* Negative fixture: acquisitions in the declared order only. *)

let nested_ok st = with_lock st.latch (fun () -> with_lock st.io (fun () -> ()))

let sequential_ok st =
  Mutex.lock st.latch;
  Mutex.unlock st.latch;
  with_lock st.io (fun () -> ())
