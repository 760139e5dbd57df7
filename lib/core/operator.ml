module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Obs = Secshare_obs

let () =
  Obs.Registry.declare ~kind:Obs.Registry.K_histogram
    ~help:
      "Operator lifetime wall seconds (cumulative: a pull includes its upstream), by \
       operator."
    "ssdb_client_op_seconds"

(* Operator names carry plan parameters ("scan-children+eval@5"); the
   metric label keeps only the prefix before the first parameter
   delimiter so label values stay a closed enumeration — evaluation
   points never reach the registry. *)
let base_name name =
  let cut = ref (String.length name) in
  String.iteri
    (fun i ch ->
      match ch with ('+' | '(' | '[' | '@') when i < !cut -> cut := i | _ -> ())
    name;
  String.sub name 0 !cut

(* Batch-pull operators: each [next] call returns one bounded batch of
   node metadata (or [None] when the stream is dry), pulling batches
   from the operator upstream on demand.  Frontiers are never
   materialized whole except where the algorithm itself needs a full
   level (the pruned look-ahead walk).

   Batches carry no ordering guarantee and may duplicate nodes across
   batches where axis ranges of distinct sources overlap; plans insert
   [Dedup] where the engines' cost model needs uniqueness, and the
   engine sorts the final result once. *)

type batch = Protocol.node_meta array

type t = {
  stats : Metrics.op_stats;
  next_fn : unit -> batch option;
  close_fn : unit -> unit;
  mutable closed : bool;
  mutable op_trace : int64;  (** ambient trace captured at the first pull *)
  mutable op_started : float;  (** wall clock of the first pull; 0 = never pulled *)
  agg_ref : Query_common.value option ref;
      (** an {!aggregate} sink deposits its result here; every other
          operator leaves it [None] *)
}

let stats t = t.stats

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close_fn ();
    (* one span and one histogram sample per operator lifetime, both
       skipped when the operator was never pulled *)
    if t.op_started > 0.0 then begin
      Obs.Histogram.observe
        (Obs.Registry.histogram
           ~labels:[ ("operator", base_name t.stats.Metrics.op_name) ]
           "ssdb_client_op_seconds")
        t.stats.Metrics.wall_seconds;
      Obs.Trace.emit ~trace_id:t.op_trace
        ~name:("op:" ^ t.stats.Metrics.op_name)
        ~start:t.op_started ~duration:t.stats.Metrics.wall_seconds ()
    end
  end

let next t =
  if t.op_started = 0.0 then begin
    t.op_started <- Unix.gettimeofday ();
    t.op_trace <- Obs.Trace.current_id ()
  end;
  let t0 = Unix.gettimeofday () in
  let result = t.next_fn () in
  (* cumulative: a pull from upstream runs inside this window, so an
     operator's wall time includes its inputs (like EXPLAIN ANALYZE) *)
  t.stats.Metrics.wall_seconds <-
    t.stats.Metrics.wall_seconds +. (Unix.gettimeofday () -. t0);
  (match result with
  | Some batch ->
      t.stats.Metrics.batches <- t.stats.Metrics.batches + 1;
      t.stats.Metrics.rows_out <- t.stats.Metrics.rows_out + Array.length batch
  | None -> ());
  result

let make ?(close = fun () -> ()) ?(agg_ref = ref None) stats next_fn =
  {
    stats;
    next_fn;
    close_fn = close;
    closed = false;
    op_trace = 0L;
    op_started = 0.0;
    agg_ref;
  }

(* Pull one batch from upstream, counting it as this operator's input.
   Goes through [next] (not [next_fn]) so the upstream operator's own
   accounting runs. *)
let pull stats input =
  match next input with
  | Some batch ->
      stats.Metrics.rows_in <- stats.Metrics.rows_in + Array.length batch;
      Some batch
  | None -> None

(* Attribute the transport traffic of [f] to this operator, also when
   [f] fails: a round trip the transport counted is never dropped. *)
let with_rpc filter stats f =
  let c = Client_filter.rpc_counters filter in
  let calls0 = c.Transport.calls in
  let bytes0 = c.Transport.bytes_sent + c.Transport.bytes_received in
  Fun.protect f ~finally:(fun () ->
      stats.Metrics.rpc_calls <- stats.Metrics.rpc_calls + (c.Transport.calls - calls0);
      stats.Metrics.rpc_bytes <-
        stats.Metrics.rpc_bytes
        + (c.Transport.bytes_sent + c.Transport.bytes_received - bytes0))

(* Release an abandoned scan cursor at teardown, attributed to the
   operator that opened it.  Best effort: a server that already dropped
   the cursor (TTL, disconnect) has nothing left to release. *)
let close_cursor filter stats c =
  try with_rpc filter stats (fun () -> Client_filter.cursor_close filter c)
  with Client_filter.Filter_error _ -> ()

let pres_of metas = List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) metas

(* The containment sieve of a filter step: one [Eval_batch] round trip
   per point over the surviving metas, nodes dropping out at their
   first failing point (the engines' short-circuiting cost model). *)
let contains_all filter stats metas points =
  List.fold_left
    (fun metas point ->
      match metas with
      | [] -> []
      | _ ->
          with_rpc filter stats (fun () ->
              Client_filter.containment_batch filter ~counts:stats.Metrics.counts metas
                ~point))
    metas points

(* --- fused scan plumbing -------------------------------------------- *)

(* Drive a [Scan_eval] / [Scan_next] conversation over the batches
   [upstream] yields: each batch opens one scan (axis ranges + share
   evaluation in a single message), continuation batches stream through
   [Scan_next], and every batch is merged with the regenerated client
   shares so only rows containing [points] come out.  The open cursor
   is tracked so teardown can release it eagerly.  This is the client's
   only cursor loop. *)
let fused_scan_stream filter stats ~points ~target_of_batch upstream =
  let max_items = Client_filter.scan_batch filter in
  let cursor = ref None in
  let merge rows =
    Client_filter.filter_scan_rows filter ~counts:stats.Metrics.counts rows ~points
  in
  let rec next_batch () =
    match !cursor with
    | Some c ->
        let rows, k =
          with_rpc filter stats (fun () ->
              Client_filter.scan_next filter ~cursor:c ~max_items)
        in
        cursor := k;
        let metas = merge rows in
        if metas = [] then next_batch () else Some (Array.of_list metas)
    | None -> (
        match upstream () with
        | None -> None
        | Some batch -> (
            match target_of_batch batch with
            | None -> next_batch ()
            | Some target ->
                let rows, k =
                  with_rpc filter stats (fun () ->
                      Client_filter.scan_eval filter ~target ~points ~max_items)
                in
                cursor := k;
                let metas = merge rows in
                if metas = [] && k = None then next_batch ()
                else Some (Array.of_list metas)))
  in
  let close () =
    let c = !cursor in
    cursor := None;
    Option.iter (close_cursor filter stats) c
  in
  (next_batch, close)

(* --- sources and scans ---------------------------------------------- *)

(* The children of each upstream batch's nodes: one [Scan_eval] over
   [Children_of] per batch, evaluating the shares at [points] when the
   plan fused any (with none it is a plain streamed scan).  Every child
   axis runs through here: the child scan, a fused root scan and each
   level of the pruned walk. *)
let children_stream filter stats ~points upstream =
  fused_scan_stream filter stats ~points
    ~target_of_batch:(fun batch ->
      if Array.length batch = 0 then None
      else Some (Protocol.Children_of (pres_of (Array.to_list batch))))
    upstream

let scan_children name filter ~eval input =
  let stats = Metrics.op_stats name in
  let next_batch, close =
    children_stream filter stats ~points:(Option.to_list eval) (fun () ->
        pull stats input)
  in
  make ~close stats next_batch

(* A one-shot source emitting the virtual document node, whose only
   child is the root: feeding it to the child scan turns a fused first
   query step into a [Scan_eval] too. *)
let document_node_source () =
  let stats = Metrics.op_stats "document-node" in
  let emitted = ref false in
  make stats (fun () ->
      if !emitted then None
      else begin
        emitted := true;
        Some [| { Protocol.pre = 0; post = 0; parent = 0 } |]
      end)

let scan_root name filter ~eval =
  match eval with
  | Some _ -> scan_children name filter ~eval (document_node_source ())
  | None ->
      let stats = Metrics.op_stats name in
      let emitted = ref false in
      make stats (fun () ->
          if !emitted then None
          else begin
            emitted := true;
            Option.map
              (fun root -> [| root |])
              (with_rpc filter stats (fun () -> Client_filter.root filter))
          end)

let scan_descendants name filter ~eval ~include_self input =
  let stats = Metrics.op_stats name in
  (* subtree ranges against the accelerator encoding: descendants of
     v are exactly the rows with pre > v.pre and post < v.post; the
     +self variant starts at v.pre and admits post = v.post.  Whether
     a containment point rides in the scan is the plan's decision: an
     unfused lowering leaves [eval] empty and follows the scan with its
     own [Eval_batch] step. *)
  let next_batch, close =
    fused_scan_stream filter stats ~points:(Option.to_list eval)
      ~target_of_batch:(fun batch ->
        if Array.length batch = 0 then None
        else
          Some
            (Protocol.Pre_ranges
               (List.map
                  (fun (m : Protocol.node_meta) ->
                    if include_self then (m.Protocol.pre, m.Protocol.post + 1)
                    else (m.Protocol.pre + 1, m.Protocol.post))
                  (Array.to_list batch))))
      (fun () -> pull stats input)
  in
  make ~close stats next_batch

(* The advanced engine's look-ahead walk: descend level by level from
   the source nodes, keeping (and descending into) only children whose
   subtree contains [eval] and every prune point — dead branches are
   never entered.  Each level is one children scan carrying [eval]; the
   prune points then drop out in [Eval_batch] rounds.  The walk needs a
   whole level to form the next frontier, so it is a per-level
   pipeline breaker; each [next] emits one level's survivors. *)
let pruned_scan name filter ~eval ~prune ~include_self input =
  let stats = Metrics.op_stats name in
  let points = Option.to_list eval in
  let started = ref false in
  let frontier = ref [] in
  let close_level = ref (fun () -> ()) in
  let gather_level level =
    let pending = ref (Some (Array.of_list level)) in
    let next_batch, close =
      children_stream filter stats ~points (fun () ->
          let batch = !pending in
          pending := None;
          batch)
    in
    close_level := close;
    let rec drain acc =
      match next_batch () with
      | Some metas -> drain (metas :: acc)
      | None -> List.concat_map Array.to_list (List.rev acc)
    in
    contains_all filter stats (drain []) prune
  in
  let emit_level () =
    match !frontier with
    | [] -> None
    | level -> (
        let survivors = gather_level level in
        frontier := survivors;
        match survivors with
        | [] -> None
        | _ -> Some (Array.of_list survivors))
  in
  let next_batch () =
    if !started then emit_level ()
    else begin
      started := true;
      let sources = ref [] in
      let rec gather_sources () =
        match pull stats input with
        | Some batch ->
            sources := !sources @ Array.to_list batch;
            gather_sources ()
        | None -> ()
      in
      gather_sources ();
      frontier := !sources;
      if not include_self then emit_level ()
      else
        (* the sources themselves are candidates (first [//] step);
           the walk below descends from them unfiltered either way *)
        match contains_all filter stats !sources (points @ prune) with
        | [] -> emit_level ()
        | keep -> Some (Array.of_list keep)
    end
  in
  make ~close:(fun () -> !close_level ()) stats next_batch

(* The parents of each upstream batch's nodes: one point-free
   [Scan_eval] per batch, a one-pre window [(p, p + 1)] for each
   distinct nonzero parent [p], with no post bound (0xFFFFFFFF, the
   wire's largest u32). *)
let parent_step name filter input =
  let stats = Metrics.op_stats name in
  let next_batch, close =
    fused_scan_stream filter stats ~points:[]
      ~target_of_batch:(fun batch ->
        let parents =
          Array.to_list batch
          |> List.filter_map (fun (m : Protocol.node_meta) ->
                 if m.Protocol.parent = 0 then None else Some m.Protocol.parent)
          |> List.sort_uniq compare
        in
        match parents with
        | [] -> None
        | _ ->
            Some
              (Protocol.Bounded_pre_ranges
                 (List.map (fun p -> (p, p + 1, 0xFFFFFFFF)) parents)))
      (fun () -> pull stats input)
  in
  make ~close stats next_batch

(* --- per-row transforms --------------------------------------------- *)

let filter_containment name filter ~points input =
  let stats = Metrics.op_stats name in
  let rec next_batch () =
    match pull stats input with
    | None -> None
    | Some batch -> (
        match contains_all filter stats (Array.to_list batch) points with
        | [] -> next_batch ()
        | metas -> Some (Array.of_list metas))
  in
  make stats next_batch

let filter_equality name filter ~point input =
  let stats = Metrics.op_stats name in
  let rec next_batch () =
    match pull stats input with
    | None -> None
    | Some batch -> (
        let survivors =
          List.filter
            (fun m ->
              with_rpc filter stats (fun () ->
                  Client_filter.equality filter ~counts:stats.Metrics.counts m ~point))
            (Array.to_list batch)
        in
        match survivors with [] -> next_batch () | _ -> Some (Array.of_list survivors))
  in
  make stats next_batch

let dedup name input =
  let stats = Metrics.op_stats name in
  let seen = Hashtbl.create 256 in
  let rec next_batch () =
    match pull stats input with
    | None -> None
    | Some batch -> (
        let fresh =
          List.filter
            (fun (m : Protocol.node_meta) ->
              if Hashtbl.mem seen m.Protocol.pre then false
              else begin
                Hashtbl.add seen m.Protocol.pre ();
                true
              end)
            (Array.to_list batch)
        in
        match fresh with [] -> next_batch () | _ -> Some (Array.of_list fresh))
  in
  make stats next_batch

(* The aggregate sink: drain the whole pipeline, then fold the matched
   set into one number.  Count never talks to the server beyond what
   the pipeline already did; Sum/Avg make exactly one [Agg_eval] round
   trip — a constant-size reply however many rows matched — and strip
   the client's blinding sum to recover the scaled total. *)
let aggregate name filter ~func ~scale input =
  let stats = Metrics.op_stats name in
  let agg_ref = ref None in
  let next_batch () =
    if !agg_ref <> None then None
    else begin
      let acc = ref [] in
      let rec drain_upstream () =
        match pull stats input with
        | Some batch ->
            Array.iter (fun m -> acc := m :: !acc) batch;
            drain_upstream ()
        | None -> ()
      in
      drain_upstream ();
      let metas = Query_common.sort_dedup !acc in
      let count = List.length metas in
      let value =
        match (func : Secshare_xpath.Ast.agg_func) with
        | Count -> Query_common.Count count
        | (Sum | Avg) as f ->
            let total =
              if count = 0 then 0
              else begin
                let pres = pres_of metas in
                let server_count, server_sum =
                  with_rpc filter stats (fun () ->
                      Client_filter.agg_eval filter pres)
                in
                if server_count <> count then
                  raise
                    (Query_common.Query_error
                       (Printf.sprintf "Agg_eval folded %d rows, expected %d"
                          server_count count));
                Numeric.lift
                  (Numeric.add server_sum (Client_filter.blind_sum filter pres))
              end
            in
            let sum = Qnum.make total (Qnum.pow10 scale) in
            if f = Sum then Query_common.Sum sum
            else if count = 0 then Query_common.Avg Qnum.zero
            else
              (* divide the already-reduced sum so the denominator
                 stays as small as the fraction allows *)
              Query_common.Avg (Qnum.make sum.Qnum.num (sum.Qnum.den * count))
      in
      agg_ref := Some value;
      None
    end
  in
  make ~agg_ref stats next_batch

(* --- plan execution -------------------------------------------------- *)

let build filter plan =
  let build_op prev op =
    let name = Plan.op_to_string op in
    let input () =
      match prev with
      | Some t -> t
      | None -> invalid_arg ("plan operator needs an input: " ^ name)
    in
    match op with
    | Plan.Scan { axis = Plan.Root_scan; eval } -> scan_root name filter ~eval
    | Plan.Scan { axis = Plan.Child_scan; eval } ->
        scan_children name filter ~eval (input ())
    | Plan.Scan { axis = Plan.Descendant_scan { include_self }; eval } ->
        scan_descendants name filter ~eval ~include_self (input ())
    | Plan.Pruned_scan { eval; prune; include_self } ->
        pruned_scan name filter ~eval ~prune ~include_self (input ())
    | Plan.Parent_step -> parent_step name filter (input ())
    | Plan.Filter_containment { points } ->
        filter_containment name filter ~points (input ())
    | Plan.Filter_equality { point } -> filter_equality name filter ~point (input ())
    | Plan.Dedup -> dedup name (input ())
    | Plan.Aggregate { func; scale } -> aggregate name filter ~func ~scale (input ())
  in
  let rec go prev built = function
    | [] -> List.rev built
    | op :: rest ->
        let t = build_op prev op in
        go (Some t) (t :: built) rest
  in
  go None [] plan

let close_all ops = List.iter close (List.rev ops)

let drain ops =
  match List.rev ops with
  | [] -> []
  | sink :: _ ->
      Fun.protect
        ~finally:(fun () -> close_all ops)
        (fun () ->
          let acc = ref [] in
          let rec go () =
            match next sink with
            | Some batch ->
                Array.iter (fun m -> acc := m :: !acc) batch;
                go ()
            | None -> ()
          in
          go ();
          List.rev !acc)

(* The one query driver: an engine only chooses the plan.  A plan
   ending in an [Aggregate] sink evaluates to the value the sink
   deposited; any other plan to its rows in document order.  A failed
   query still hands back its operators' rows: the work it did before
   the failure is counted like any other. *)
let run filter plan =
  let ops = build filter plan in
  let outcome =
    match drain ops with
    | metas -> (
        match List.rev ops with
        | { agg_ref = { contents = Some value }; _ } :: _ -> Ok value
        | _ -> Ok (Query_common.Nodes (Query_common.sort_dedup metas)))
    | exception Query_common.Query_error msg -> Error msg
    | exception Client_filter.Filter_error msg -> Error ("filter: " ^ msg)
  in
  (outcome, List.map stats ops)
