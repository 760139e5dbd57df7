(* The cursor table (see cursor_table.mli): an {!Lru} of entries behind
   one mutex.  Every removal goes through [remove_locked], which queues
   the entry's hook; [with_lock] runs the queue after the unlock. *)

module Obs = Secshare_obs

type reason = Drained | Client_close | Ttl | Cap | Connection_close | Shutdown

let reason_label = function
  | Drained -> "drained"
  | Client_close -> "client_close"
  | Ttl -> "ttl"
  | Cap -> "cap"
  | Connection_close -> "connection_close"
  | Shutdown -> "shutdown"

type stats = { open_cursors : int; evicted_cursors : int; expired_cursors : int }
type 'a entry = { payload : 'a; mutable last_used : float }

type 'a t = {
  cursors : (int, 'a entry) Lru.t;  (** most recently used first *)
  mutable next_id : int;
  ttl : float option;
  now : unit -> float;
  on_remove : reason -> int -> 'a -> unit;
  mutable evictions : int;
  mutable expiries : int;
  lock : Mutex.t;  (** guards every field above *)
}

let create ?ttl ?(now = Unix.gettimeofday) ~max ~on_remove () =
  {
    cursors = Lru.create (Stdlib.max 1 max);
    next_id = 1;
    ttl;
    now;
    on_remove;
    evictions = 0;
    expiries = 0;
    lock = Mutex.create ();
  }

(* Run [f] under the lock, handing it the queue of removed entries;
   their hooks run after the unlock, in removal order, even when [f]
   raises. *)
let with_lock t f =
  let removed = ref [] in
  Obs.Race_check.acquired "cursor-table";
  Mutex.lock t.lock;
  Obs.Race_check.access ~write:true "cursor_table.cursors";
  Fun.protect
    ~finally:(fun () ->
      Obs.Race_check.released "cursor-table";
      Mutex.unlock t.lock;
      List.iter
        (fun (reason, id, payload) -> t.on_remove reason id payload)
        (List.rev !removed))
    (fun () -> f removed)

(* The single removal path. *)
let remove_locked t removed reason id =
  match Lru.remove t.cursors id with
  | None -> ()
  | Some entry ->
      (match reason with
      | Ttl ->
          t.expiries <- t.expiries + 1;
          t.evictions <- t.evictions + 1
      | Cap | Connection_close | Shutdown -> t.evictions <- t.evictions + 1
      | Drained | Client_close -> ());
      removed := (reason, id, entry.payload) :: !removed

(* Remove entries from the cold end while [stale] holds of the oldest;
   returns how many went. *)
let rec pop_locked t removed reason ~stale =
  match Lru.oldest t.cursors with
  | Some (id, entry) when stale entry ->
      remove_locked t removed reason id;
      1 + pop_locked t removed reason ~stale
  | _ -> 0

(* Entries are in last-use order, so the first one still inside the
   TTL ends the sweep. *)
let sweep_locked t removed =
  match t.ttl with
  | None -> 0
  | Some ttl ->
      let now = t.now () in
      pop_locked t removed Ttl ~stale:(fun entry -> now -. entry.last_used > ttl)

let add t payload =
  with_lock t (fun removed ->
      ignore (sweep_locked t removed);
      ignore
        (pop_locked t removed Cap ~stale:(fun _ ->
             Lru.size t.cursors >= Lru.capacity t.cursors));
      let id = t.next_id in
      t.next_id <- id + 1;
      Lru.add t.cursors ~key:id ~value:{ payload; last_used = t.now () };
      id)

let use t id f =
  with_lock t (fun removed ->
      ignore (sweep_locked t removed);
      match Lru.find t.cursors id with
      | None -> None
      | Some entry ->
          entry.last_used <- t.now ();
          Some (f entry.payload))

let remove t id reason = with_lock t (fun removed -> remove_locked t removed reason id)
let sweep t = with_lock t (fun removed -> sweep_locked t removed)

let clear t =
  with_lock t (fun removed ->
      ignore (pop_locked t removed Shutdown ~stale:(fun _ -> true)))

let size t = with_lock t (fun _ -> Lru.size t.cursors)

let stats t =
  with_lock t (fun _ ->
      {
        open_cursors = Lru.size t.cursors;
        evicted_cursors = t.evictions;
        expired_cursors = t.expiries;
      })
