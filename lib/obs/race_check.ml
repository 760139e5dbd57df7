(* The runtime lock witness (SSDB_RACE_CHECK=1).

   The static passes (lib/lint/pass_lock_order.ml, pass_races.ml) prove
   the lock order and the guarded-by discipline lexically; this module
   is the dynamic backstop for what a name-based analysis cannot see —
   callees that lock, aliases, first-class functions, state reached
   through another compilation unit.  Instrumented modules report lock
   acquisitions ([acquired]/[released], by lock *class* name, before
   they block on the mutex) and shared-state touches ([access], by root
   name).  [acquired] checks the order of [lock_order] below; for
   races the witness runs the classic Eraser refinement per root:

     - the first accesses stay in an initialization hole (a single
       executor owns the root; no refinement), because OCaml programs
       overwhelmingly build state before publishing it;
     - once a second executor touches the root, every access
       intersects the root's candidate set with the locks its executor
       holds at that moment;
     - an empty candidate set after a shared-phase *write* is a race
       report (reads-only sharing after initialization is allowed —
       that is the single-writer publication pattern).

   An executor is a (domain, thread) pair, so Thread.t threads inside
   one domain are distinguished from parallel domains.  Race reports
   accumulate; [reports] returns them and the test suites assert the
   list stays empty (and that a deliberately seeded race fills it). *)

module SS = Set.Make (String)

(* Ascending ranks: a lock may only be taken while every held lock
   ranks strictly lower.  Leaf ranks (>= 44) belong to the
   observability locks, which are taken under everything; the
   witness's own guard ranks above them because it is only ever the
   innermost acquisition.  "fixture-lock" is the class of the lint
   fixture corpus. *)
let lock_order =
  [
    ("table-writer", 10);
    ("cursor-table", 12);
    ("rpc-server-stats", 13);
    ("metrics-http", 17);
    ("pager-latch", 30);
    ("wal-append", 35);
    ("pager-io", 40);
    ("trace-ambient", 44);
    ("trace-ring", 45);
    ("trace-log", 46);
    ("obs-registry", 47);
    ("obs-histogram", 48);
    ("events-sink", 49);
    ("race-witness", 55);
    ("fixture-lock", 60);
  ]

let rank cls = List.assoc_opt cls lock_order

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "SSDB_RACE_CHECK" with Some "1" -> true | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* The witness's own guard, class "race-witness". *)
let lock = Mutex.create ()

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

type executor = int * int  (* domain id, thread id *)

let self () : executor = ((Domain.self () :> int), Thread.id (Thread.self ()))

(* lock-class names currently held, innermost first, per executor *)
let held : (executor, string list) Hashtbl.t = Hashtbl.create 16

type root_state = {
  mutable owner : executor option;  (* Some: still in the init hole *)
  mutable cset : SS.t option;  (* candidate locks; None until shared *)
  mutable written_shared : bool;
  mutable reported : bool;
}

let state : (string, root_state) Hashtbl.t = Hashtbl.create 32
let report_acc : string list ref = ref []

let acquired name =
  if enabled () then begin
    let refusal =
      with_lock lock (fun () ->
          let ex = self () in
          let stack = Option.value ~default:[] (Hashtbl.find_opt held ex) in
          match (rank name, stack) with
          | None, _ ->
              Some
                (Printf.sprintf
                   "undeclared lock class %s; declare its rank in Race_check.lock_order"
                   name)
          | Some r, top :: _ when Option.get (rank top) >= r ->
              Some
                (Printf.sprintf "acquiring %s (rank %d) while holding %s (rank %d)" name
                   r top
                   (Option.get (rank top)))
          | Some _, _ ->
              Hashtbl.replace held ex (name :: stack);
              None)
    in
    Option.iter (fun why -> failwith ("Race_check: lock-order violation: " ^ why)) refusal
  end

let released name =
  if enabled () then
    with_lock lock (fun () ->
        let ex = self () in
        let rec drop = function
          | [] -> []
          | n :: rest when String.equal n name -> rest
          | n :: rest -> n :: drop rest
        in
        match drop (Option.value ~default:[] (Hashtbl.find_opt held ex)) with
        | [] -> Hashtbl.remove held ex
        | stack -> Hashtbl.replace held ex stack)

let access ?(write = false) root =
  if enabled () then
    with_lock lock (fun () ->
        let ex = self () in
        let held_now =
          SS.of_list (Option.value ~default:[] (Hashtbl.find_opt held ex))
        in
        match Hashtbl.find_opt state root with
        | None ->
            Hashtbl.replace state root
              { owner = Some ex; cset = None; written_shared = false; reported = false }
        | Some st ->
            if st.owner <> Some ex then begin
              st.owner <- None;
              let cands =
                match st.cset with None -> held_now | Some c -> SS.inter c held_now
              in
              st.cset <- Some cands;
              if write then st.written_shared <- true;
              if st.written_shared && SS.is_empty cands && not st.reported then begin
                st.reported <- true;
                let dom, thr = ex in
                report_acc :=
                  Printf.sprintf
                    "race: %s of `%s' from domain %d thread %d shares no lock with \
                     earlier accessors"
                    (if write then "write" else "read")
                    root dom thr
                  :: !report_acc
              end
            end)

let reports () = with_lock lock (fun () -> List.rev !report_acc)

let reset () =
  with_lock lock (fun () ->
      (* held stacks survive a reset: locks taken before it are still
         held after it *)
      Hashtbl.reset state;
      report_acc := [])
