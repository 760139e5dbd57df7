(** Shared generators and helpers for the test suites. *)

module Tree = Secshare_xml.Tree

let small_tags = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta"; "eta" ]

(* A random element tree over a small tag set: depth-bounded, with a
   size budget threaded through so documents stay small but varied. *)
let gen_tree : Tree.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tag = oneofl small_tags in
  let text_words = oneofl [ "joan"; "johnson"; "data"; "query"; "trie"; "xml" ] in
  sized_size (int_range 1 40) @@ fix (fun self budget ->
      let* name = tag in
      if budget <= 1 then return (Tree.element name [])
      else
        let* n_children = int_range 0 (min 4 budget) in
        let child_budget = if n_children = 0 then 0 else (budget - 1) / n_children in
        let* children = list_repeat n_children (self child_budget) in
        let* with_text = bool in
        let* word = text_words in
        let children = if with_text then Tree.text word :: children else children in
        return (Tree.element name children))

let gen_query_of_tags tags : Secshare_xpath.Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_range 1 4 in
  let step_gen =
    let* axis = oneofl [ Secshare_xpath.Ast.Child; Secshare_xpath.Ast.Descendant ] in
    let* test =
      oneof
        [
          map (fun n -> Secshare_xpath.Ast.Name n) (oneofl tags);
          return Secshare_xpath.Ast.Any;
        ]
    in
    return { Secshare_xpath.Ast.axis; test; contains = None }
  in
  list_repeat len step_gen

let gen_query = gen_query_of_tags small_tags

let pres_of_metas metas =
  List.map (fun (m : Secshare_rpc.Protocol.node_meta) -> m.Secshare_rpc.Protocol.pre) metas

let test_seed = Secshare_prg.Seed.of_passphrase "test-suite-seed"

let db_of_tree ?(p = 83) ?(e = 1) ?trie tree =
  let config =
    {
      Secshare_core.Database.default_config with
      p;
      e;
      trie;
      seed = Some test_seed;
      mapping = `From_document;
    }
  in
  match Secshare_core.Database.create_tree ~config tree with
  | Ok db -> db
  | Error msg -> failwith ("db_of_tree: " ^ msg)

let must_query ?engine ?strictness db q =
  match Secshare_core.Database.query ?engine ?strictness db q with
  | Ok r -> r
  | Error msg -> failwith ("query failed: " ^ msg)

(** A fault-injecting protocol server, wire-compatible with
    {!Secshare_rpc.Transport.socket}.  It speaks real frames over a
    real Unix-domain socket, but consults a per-call [plan] that can
    stall, drop the connection before replying, truncate a reply
    mid-frame, or answer garbage — exercising the client's timeout,
    retry, and reconnect paths.  Call numbers are global across
    connections (so "fail call 1, serve call 2" tests reconnects). *)
module Flaky = struct
  module Frame = Secshare_rpc.Frame
  module Protocol = Secshare_rpc.Protocol

  type fault =
    | Stall of float  (** read the request, sleep, then drop the link *)
    | Close_before_reply  (** read the request, close without answering *)
    | Truncate_reply  (** send half a frame, then close *)
    | Garbage_reply of string
        (** a well-framed payload sent verbatim, meant to be undecodable *)

  type t = {
    path : string;
    listen_fd : Unix.file_descr;
    mutable running : bool;
    mutable calls : int;
    mutable trace_ids : int64 list;  (** newest first; see {!trace_ids} *)
    lock : Mutex.t;
    mutable threads : Thread.t list;
    mutable client_fds : Unix.file_descr list;
  }

  let next_call t ~trace_id =
    Mutex.lock t.lock;
    t.calls <- t.calls + 1;
    t.trace_ids <- trace_id :: t.trace_ids;
    let n = t.calls in
    Mutex.unlock t.lock;
    n

  let serve_connection t ~handler ~plan fd =
    let finished = ref false in
    while (not !finished) && t.running do
      match Frame.recv_traced fd with
      | exception (Failure _ | Unix.Unix_error _) -> finished := true
      | trace_id, payload -> (
          let n = next_call t ~trace_id in
          match plan n with
          | None -> (
              let reply =
                match Protocol.decode_request payload with
                | request -> handler request
                | exception _ -> Protocol.Error_msg "undecodable request"
              in
              match Frame.send ~trace_id fd (Protocol.encode_response reply) with
              | () -> ()
              | exception (Failure _ | Unix.Unix_error _) -> finished := true)
          | Some (Stall seconds) ->
              Thread.delay seconds;
              finished := true
          | Some Close_before_reply -> finished := true
          | Some Truncate_reply ->
              let reply =
                Protocol.encode_response (Protocol.Error_msg "you will never read this")
              in
              let header = Bytes.create Frame.header_bytes in
              Bytes.set_int32_be header 0 (Int32.of_int (String.length reply));
              Bytes.set_int64_be header 4 trace_id;
              let partial = String.sub reply 0 (String.length reply / 2) in
              (try
                 ignore (Unix.write fd header 0 Frame.header_bytes);
                 ignore
                   (Unix.write fd (Bytes.of_string partial) 0 (String.length partial))
               with Failure _ | Unix.Unix_error _ -> ());
              finished := true
          | Some (Garbage_reply payload) -> (
              match Frame.send ~trace_id fd payload with
              | () -> ()
              | exception (Failure _ | Unix.Unix_error _) -> finished := true))
    done;
    Mutex.lock t.lock;
    t.client_fds <- List.filter (fun other -> other != fd) t.client_fds;
    Mutex.unlock t.lock;
    try Unix.close fd with Unix.Unix_error _ -> ()

  let start ?(handler = fun _ -> Protocol.Pong) ~plan path =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen_fd (Unix.ADDR_UNIX path);
    Unix.listen listen_fd 16;
    let t =
      {
        path;
        listen_fd;
        running = true;
        calls = 0;
        trace_ids = [];
        lock = Mutex.create ();
        threads = [];
        client_fds = [];
      }
    in
    let accept_thread =
      Thread.create
        (fun () ->
          while t.running do
            match Unix.accept t.listen_fd with
            | fd, _ ->
                Mutex.lock t.lock;
                t.client_fds <- fd :: t.client_fds;
                t.threads <- Thread.create (serve_connection t ~handler ~plan) fd :: t.threads;
                Mutex.unlock t.lock
            | exception Unix.Unix_error _ -> Thread.yield ()
          done)
        ()
    in
    Mutex.lock t.lock;
    t.threads <- accept_thread :: t.threads;
    Mutex.unlock t.lock;
    t

  let calls t =
    Mutex.lock t.lock;
    let n = t.calls in
    Mutex.unlock t.lock;
    n

  (* Trace ids seen on received frames, in arrival order — lets tests
     assert that a query's id survives the client's retry/reconnect
     machinery (every attempt carries the same id). *)
  let trace_ids t =
    Mutex.lock t.lock;
    let ids = List.rev t.trace_ids in
    Mutex.unlock t.lock;
    ids

  let stop t =
    if t.running then begin
      t.running <- false;
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_UNIX t.path) with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      Mutex.lock t.lock;
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.client_fds;
      let threads = t.threads in
      t.threads <- [];
      Mutex.unlock t.lock;
      List.iter Thread.join threads;
      try Unix.unlink t.path with Unix.Unix_error _ -> ()
    end
end
