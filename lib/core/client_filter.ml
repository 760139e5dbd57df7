module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Evals = Secshare_poly.Evals
module Obs = Secshare_obs

exception Filter_error of string

(* Share-cache observability: pure hit/miss/evict counts, no key or
   polynomial material (DESIGN.md §9). *)
let obs_cache_hits =
  Obs.Registry.counter ~help:"Client share-regeneration cache hits."
    "ssdb_client_share_cache_hits_total"

let obs_cache_misses =
  Obs.Registry.counter ~help:"Client share-regeneration cache misses (PRG runs)."
    "ssdb_client_share_cache_misses_total"

let obs_cache_evictions =
  Obs.Registry.counter ~help:"Client share-regeneration cache LRU evictions."
    "ssdb_client_share_cache_evictions_total"

type t = {
  ring : Secshare_poly.Ring.t;
  seed : Secshare_prg.Seed.t;
  transport : Transport.t;
  scan_batch : int;
  batch_eval : bool;
  share_cache : (int, Evals.t) Lru.t option;
      (* pre -> regenerated client share, for the equality test; [Evals]
         ops are pure, so cached shares can never be mutated through
         use *)
  reader : Secshare_prg.Node_prg.reader;
      (* the containment test's single slots; never cached *)
}

let create ring ~seed ?(scan_batch = 256) ?(batch_eval = true) ?(share_cache = 4096)
    transport =
  {
    ring;
    seed;
    transport;
    scan_batch = max 1 scan_batch;
    batch_eval;
    share_cache = (if share_cache <= 0 then None else Some (Lru.create share_cache));
    reader = Secshare_prg.Node_prg.reader ~ring ~seed;
  }

let rpc_counters t = Transport.counters t.transport
let scan_batch t = t.scan_batch
let share_cache_stats t = Option.map Lru.stats t.share_cache

(* Regenerate (or recall) the whole client share of [pre]. *)
let client_poly t ~pre =
  match t.share_cache with
  | None -> Share.client t.ring ~seed:t.seed ~pre
  | Some cache -> (
      match Lru.find cache pre with
      | Some poly ->
          Obs.Registry.inc obs_cache_hits;
          poly
      | None ->
          Obs.Registry.inc obs_cache_misses;
          let poly = Share.client t.ring ~seed:t.seed ~pre in
          let before = (Lru.stats cache).Lru.evictions in
          Lru.add cache ~key:pre ~value:poly;
          Obs.Registry.inc ~by:((Lru.stats cache).Lru.evictions - before)
            obs_cache_evictions;
          poly)

let call t request =
  match Transport.call t.transport request with
  | Protocol.Error_msg msg -> raise (Filter_error msg)
  | response -> response

let protocol_error what response =
  raise
    (Filter_error
       (Format.asprintf "unexpected response to %s: %a" what Protocol.pp_response response))

let root t =
  match call t Protocol.Root with
  | Protocol.Node_opt meta -> meta
  | response -> protocol_error "Root" response

let children t ~pre =
  match call t (Protocol.Children pre) with
  | Protocol.Nodes metas -> metas
  | response -> protocol_error "Children" response

(* --- scans (Scan_eval / Scan_next) --- *)

let scan_eval t ~target ~points ~max_items =
  match call t (Protocol.Scan_eval { target; points; max_items }) with
  | Protocol.Scan_batch { rows; cursor } -> (rows, cursor)
  | response -> protocol_error "Scan_eval" response

let scan_next t ~cursor ~max_items =
  match call t (Protocol.Scan_next { cursor; max_items }) with
  | Protocol.Scan_batch { rows; cursor } -> (rows, cursor)
  | response -> protocol_error "Scan_next" response

let cursor_close t cursor =
  match call t (Protocol.Cursor_close cursor) with
  | Protocol.Pong -> ()
  | response -> protocol_error "Cursor_close" response

(* The containment test (paper §5.2), the one place it is decided:
   for each point, read the client share of [meta] at the point's slot,
   add the server's value, and keep the node when every sum is zero.
   [pts] are prepared once per batch ({!Share.point}); [reply] names
   the response in errors.  A server value outside the field is the
   server's fault, refused like any other bad reply rather than
   silently reduced. *)
let verdict t ~(counts : Metrics.t) ~reply pts (meta : Protocol.node_meta) server_values =
  if List.length server_values <> List.length pts then
    raise (Filter_error (reply ^ " arity mismatch"));
  List.iter
    (fun v ->
      if v < 0 || v >= t.ring.Secshare_poly.Ring.order then
        raise (Filter_error ("malformed " ^ reply ^ " reply: value outside the field")))
    server_values;
  counts.nodes_examined <- counts.nodes_examined + 1;
  counts.evaluations <- counts.evaluations + List.length pts;
  let pre = meta.Protocol.pre in
  let contains pt server =
    Share.combine_evaluations t.ring ~client:(Share.client_value t.reader ~pre pt) ~server
    = 0
  in
  List.for_all2 contains pts server_values

(* Merge one fused batch: each row carries its server evaluations at
   every point, in order. *)
let filter_scan_rows t ~counts rows ~points =
  match points with
  | [] -> List.map fst rows
  | _ ->
      let pts = List.map (Share.point t.ring) points in
      List.filter_map
        (fun (meta, server_values) ->
          if verdict t ~counts ~reply:"Scan_batch" pts meta server_values then Some meta
          else None)
        rows

(* One [Eval_batch] round trip for [metas], one value per node. *)
let eval_batch t ~counts metas ~point =
  let pres = List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) metas in
  match call t (Protocol.Eval_batch { pres; point }) with
  | Protocol.Values values ->
      if List.length values <> List.length metas then
        raise (Filter_error "Eval_batch arity mismatch");
      let pts = [ Share.point t.ring point ] in
      List.filter_map
        (fun (meta, v) ->
          if verdict t ~counts ~reply:"Values" pts meta [ v ] then Some meta else None)
        (List.combine metas values)
  | response -> protocol_error "Eval_batch" response

let containment_batch t ~counts metas ~point =
  match metas with
  | [] -> []
  | _ when not t.batch_eval ->
      (* one one-row round trip per node: the cost model of the
         paper's per-call RMI filter *)
      List.concat_map (fun meta -> eval_batch t ~counts [ meta ] ~point) metas
  | _ -> eval_batch t ~counts metas ~point

(* --- aggregation (Agg_eval) --- *)

let agg_eval t pres =
  match call t (Protocol.Agg_eval { pres }) with
  | Protocol.Agg_partial { count; sum } ->
      if sum < 0 || sum >= Numeric.modulus then
        raise (Filter_error "malformed Agg_partial reply: sum outside the field");
      (count, sum)
  | response -> protocol_error "Agg_eval" response

(* The client's half of an aggregate: the sum of the PRG blinding
   values the encoder subtracted from each matched leaf. *)
let blind_sum t pres =
  List.fold_left
    (fun acc pre -> Numeric.add acc (Numeric.blind ~seed:t.seed ~pre))
    0 pres

let fetch_shares t pres =
  match call t (Protocol.Shares pres) with
  | Protocol.Shares_data shares ->
      if List.length shares <> List.length pres then
        raise (Filter_error "Shares arity mismatch");
      shares
  | response -> protocol_error "Shares" response

(* client + server, with the client half served from the cache.  A
   short or out-of-range share is the server's fault, reported like any
   other bad reply rather than escaping as [Invalid_argument]. *)
let reconstruct t ~pre share_bytes =
  let client = client_poly t ~pre in
  try Share.add_packed t.ring ~client share_bytes
  with Invalid_argument msg -> raise (Filter_error ("malformed Shares_data reply: " ^ msg))

(* The node's tag value, or a typed refusal: a guess of "not equal"
   would silently drop a node the reference keeps (DESIGN.md §7). *)
let tag_value t ~(counts : Metrics.t) (meta : Protocol.node_meta) =
  let pre = meta.Protocol.pre in
  let child_metas = children t ~pre in
  let pres = pre :: List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) child_metas in
  let shares = fetch_shares t pres in
  let polys = List.map2 (fun pre share -> reconstruct t ~pre share) pres shares in
  counts.equality_tests <- counts.equality_tests + 1;
  counts.reconstructions <- counts.reconstructions + List.length polys;
  counts.nodes_examined <- counts.nodes_examined + 1;
  match polys with
  | [] -> assert false
  | node_poly :: child_polys -> (
      let product = Share.product t.ring child_polys in
      match Evals.recover_linear_factor t.ring ~product ~node:node_poly with
      | Ok value -> value
      | Error `Degenerate ->
          counts.degenerate_divisions <- counts.degenerate_divisions + 1;
          raise
            (Filter_error
               (Printf.sprintf
                  "equality test at pre %d: the children's product is zero (the map \
                   leaves no spare point)"
                  pre))
      | Error `Not_linear ->
          raise
            (Filter_error
               (Printf.sprintf
                  "malformed Shares_data reply: pre %d is not (x - t) times its \
                   children's product"
                  pre)))

let equality t ~counts meta ~point = tag_value t ~counts meta = point

let close t = Transport.close t.transport
