module Obs = Secshare_obs

(* Pool observability: how deep the shared run queue is right now, and
   a latency histogram per executor.  Labels are structural ("w0",
   "caller") — nothing about the work's content ever reaches a label,
   per the information-flow rules of DESIGN.md §9. *)
let obs_queue_depth =
  Obs.Registry.gauge ~help:"Evaluation-pool tasks queued but not yet started."
    "ssdb_pool_queue_depth"

let obs_tasks =
  Obs.Registry.counter ~help:"Evaluation-pool tasks executed."
    "ssdb_pool_tasks_total"

let () =
  Obs.Registry.declare ~kind:Obs.Registry.K_histogram
    ~help:"Evaluation-pool task run time in seconds, by executor."
    "ssdb_pool_task_seconds"

let observe_task ~executor seconds =
  Obs.Registry.inc obs_tasks;
  Obs.Histogram.observe
    (Obs.Registry.histogram ~labels:[ ("worker", executor) ] "ssdb_pool_task_seconds")
    seconds

type t = {
  workers : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

(* Run one task, timing it for the per-executor histogram.  Task
   closures never raise: [map_array] wraps the user function so
   failures land in the call's [first_exn] cell instead. *)
let run_task ~executor task =
  let t0 = Unix.gettimeofday () in
  task ();
  observe_task ~executor (Unix.gettimeofday () -. t0)

let worker_loop t i =
  let executor = "w" ^ string_of_int i in
  let rec loop () =
    Obs.Race_check.acquired "pool-queue";
    Mutex.lock t.lock;
    Obs.Race_check.access "pool.closed";
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work_available t.lock
    done;
    if Queue.is_empty t.queue then begin
      Obs.Race_check.released "pool-queue";
      Mutex.unlock t.lock (* closed: drain done *)
    end
    else begin
      let task = Queue.pop t.queue in
      Obs.Race_check.access ~write:true "pool.queue";
      Obs.Race_check.released "pool-queue";
      Mutex.unlock t.lock;
      Obs.Registry.gauge_add obs_queue_depth (-1);
      run_task ~executor task;
      loop ()
    end
  in
  loop ()

let create ~workers () =
  let workers = max 1 workers in
  let t =
    {
      workers;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      closed = false;
      domains = [||];
    }
  in
  if workers > 1 then
    t.domains <- Array.init workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let size t = t.workers

let close t =
  (* the flag is part of the queue monitor even when no workers were
     spawned: a racing map on another domain must not observe a torn
     closed/queue pair *)
  Obs.Race_check.acquired "pool-queue";
  Mutex.lock t.lock;
  t.closed <- true;
  Obs.Race_check.access ~write:true "pool.closed";
  Condition.broadcast t.work_available;
  Obs.Race_check.released "pool-queue";
  Mutex.unlock t.lock;
  Array.iter Domain.join t.domains

(* A latch per map call, using the pool lock as its monitor. *)
type call = { mutable remaining : int; finished : Condition.t }

let map_array t a ~f =
  let len = Array.length a in
  if Array.length t.domains = 0 || len <= 1 then Array.map f a
  else begin
    let[@atomic_ok
         "each slot is written by exactly one task; publication to the caller is \
          ordered by the call.remaining monitor"] results =
      Array.make len None
    in
    let[@atomic_ok
         "written under the pool lock; the caller reads it only after remaining = 0, \
          ordered by the same monitor"] first_exn =
      ref None
    in
    (* More chunks than workers so an uneven row (one very deep
       subtree) doesn't leave the other workers idle at the tail. *)
    let nchunks = min len (2 * Array.length t.domains) in
    let chunk_size = (len + nchunks - 1) / nchunks in
    let call = { remaining = nchunks; finished = Condition.create () } in
    let task lo =
      fun () ->
        let hi = min (lo + chunk_size) len - 1 in
        (try
           for i = lo to hi do
             results.(i) <- Some (f a.(i))
           done
         with exn ->
           Obs.Race_check.acquired "pool-queue";
           Mutex.lock t.lock;
           if !first_exn = None then first_exn := Some exn;
           Obs.Race_check.released "pool-queue";
           Mutex.unlock t.lock);
        Obs.Race_check.acquired "pool-queue";
        Mutex.lock t.lock;
        call.remaining <- call.remaining - 1;
        if call.remaining = 0 then Condition.signal call.finished;
        Obs.Race_check.released "pool-queue";
        Mutex.unlock t.lock
    in
    (* gauge goes up before the enqueue so a racing dequeue can only
       leave it transiently high, never negative *)
    Obs.Registry.gauge_add obs_queue_depth nchunks;
    Obs.Race_check.acquired "pool-queue";
    Mutex.lock t.lock;
    for c = 0 to nchunks - 1 do
      Queue.add (task (c * chunk_size)) t.queue
    done;
    Obs.Race_check.access ~write:true "pool.queue";
    Condition.broadcast t.work_available;
    Obs.Race_check.released "pool-queue";
    Mutex.unlock t.lock;
    (* The caller helps: steal queued chunks (of any in-flight call)
       instead of sleeping, so a busy pool never makes a map slower
       than running it inline. *)
    Obs.Race_check.acquired "pool-queue";
    Mutex.lock t.lock;
    while call.remaining > 0 do
      if Queue.is_empty t.queue then Condition.wait call.finished t.lock
      else begin
        let task = Queue.pop t.queue in
        Obs.Race_check.access ~write:true "pool.queue";
        Obs.Race_check.released "pool-queue";
        Mutex.unlock t.lock;
        Obs.Registry.gauge_add obs_queue_depth (-1);
        run_task ~executor:"caller" task;
        Obs.Race_check.acquired "pool-queue";
        Mutex.lock t.lock
      end
    done;
    Obs.Race_check.released "pool-queue";
    Mutex.unlock t.lock;
    (match !first_exn with Some exn -> raise exn | None -> ());
    Array.map
      (function Some v -> v | None -> failwith "Pool.map_array: missing result")
      results
  end

let map_list t l ~f = Array.to_list (map_array t (Array.of_list l) ~f)
