(* A bounded map with least-recently-used eviction: a hash table over
   an intrusive doubly-linked recency list, so find/add/evict are all
   O(1).  Used for the client's share-regeneration cache, where every
   entry is recomputable — eviction can never lose information, only
   time — and, behind a lock, as the storage of {!Cursor_table}. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards most recent *)
  mutable next : ('k, 'v) node option;  (* towards least recent *)
}

type stats = { hits : int; misses : int; evictions : int }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let size t = Hashtbl.length t.table
let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some node ->
      t.hits <- t.hits + 1;
      if t.head != Some node then begin
        unlink t node;
        push_front t node
      end;
      Some node.value

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key;
      Some node.value

let oldest t = Option.map (fun node -> (node.key, node.value)) t.tail

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.evictions <- t.evictions + 1

let add t ~key ~value =
  ignore (remove t key);
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  let node = { key; value; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t node
