type node_meta = { pre : int; post : int; parent : int }

(** What a fused scan walks over.  [Pre_ranges] pairs are
    [(from_pre, below_post)]: ascending-[pre] runs that stop at the
    first row whose [post] reaches [below_post] (see
    [Node_table.scan_range]). *)
type scan_target =
  | Children_of of int list
  | Pre_ranges of (int * int) list
  | Bounded_pre_ranges of (int * int * int) list

(* A shard server's place in a sharded deployment (or the whole
   deployment, summarised by a router).  Carries topology and the
   field only, never key material or share bytes. *)
type manifest_info = {
  shard_id : int;  (** 1-based Shamir x-coordinate; 0 identifies a router *)
  shards : int;  (** n: how many shard servers exist *)
  threshold : int;  (** t: how many must answer to reconstruct *)
  p : int;  (** field characteristic of the shares served *)
  e : int;  (** field extension degree *)
  total_rows : int;
}

let single_server ~p ~e ~rows =
  { shard_id = 1; shards = 1; threshold = 1; p; e; total_rows = rows }

type request =
  | Ping
  | Root
  | Children of int
  | Cursor_close of int
  | Eval_batch of { pres : int list; point : int }
  | Shares of int list
  | Scan_eval of { target : scan_target; points : int list; max_items : int }
      (** Fused scan + evaluation: walk the target ranges and return
          each row's metadata together with its share evaluated at
          every point, one batch per round trip. *)
  | Scan_next of { cursor : int; max_items : int }
      (** Continue a [Scan_eval] whose reply carried a cursor. *)
  | Manifest
      (** Handshake: which shard is this, out of what topology?  A
          single-server deployment answers with the trivial 1-of-1
          manifest. *)
  | Agg_eval of { pres : int list }
      (** Fold the numeric shares of the listed rows into one blinded
          partial sum — the constant-size aggregation reply
          ([Agg_partial]), however many rows matched. *)

type response =
  | Pong
  | Node_opt of node_meta option
  | Nodes of node_meta list
  | Values of int list
  | Shares_data of bytes list
  | Scan_batch of { rows : (node_meta * int list) list; cursor : int option }
      (** One batch of a fused scan: each row carries the server-share
          evaluations at the request's points, in order.  [cursor] is
          present when more batches remain (drain with [Scan_next] or
          abandon with [Cursor_close]). *)
  | Manifest_data of manifest_info
  | Agg_partial of { count : int; sum : int }
      (** Blinded partial aggregate: [sum] is the server-share sum in
          the numeric field — meaningless without the client's
          blinding shares.  Always the same size on the wire. *)
  | Error_msg of string

let write_meta w (m : node_meta) =
  Wire.write_u32 w m.pre;
  Wire.write_u32 w m.post;
  Wire.write_u32 w m.parent

let read_meta r =
  let pre = Wire.read_u32 r in
  let post = Wire.read_u32 r in
  let parent = Wire.read_u32 r in
  { pre; post; parent }

let encode_request req =
  let w = Wire.writer () in
  (match req with
  | Ping -> Wire.write_u8 w 0
  | Root -> Wire.write_u8 w 1
  | Children pre ->
      Wire.write_u8 w 2;
      Wire.write_u32 w pre
  (* request tag 3 belonged to the retired single-node parent lookup
     (a point-free [Scan_eval] over one-pre windows now), tags 4 and 5,
     in both directions, to a retired materialising subtree cursor,
     request tag 9 / response tag 8 to a retired single-share fetch,
     request tag 7 / response tag 6 to the retired single-node
     evaluation (a one-row [Eval_batch] now), request tag 11 /
     response tag 10 to the retired table-stats probe, response tag 13
     to the manifest reply without the field, response tag 15 to the
     one with partition bounds and response tag 16 to the one of
     servers storing coefficient-domain shares: decoders reject them,
     and they are never reused *)
  | Cursor_close cursor ->
      Wire.write_u8 w 6;
      Wire.write_u32 w cursor
  | Eval_batch { pres; point } ->
      Wire.write_u8 w 8;
      Wire.write_list w (Wire.write_u32 w) pres;
      Wire.write_u32 w point
  | Shares pres ->
      Wire.write_u8 w 10;
      Wire.write_list w (Wire.write_u32 w) pres
  | Scan_eval { target; points; max_items } ->
      Wire.write_u8 w 12;
      (match target with
      | Children_of parents ->
          Wire.write_u8 w 0;
          Wire.write_list w (Wire.write_u32 w) parents
      | Pre_ranges ranges ->
          Wire.write_u8 w 1;
          Wire.write_list w
            (fun (from_pre, below_post) ->
              Wire.write_u32 w from_pre;
              Wire.write_u32 w below_post)
            ranges
      | Bounded_pre_ranges ranges ->
          Wire.write_u8 w 2;
          Wire.write_list w
            (fun (from_pre, until_pre, below_post) ->
              Wire.write_u32 w from_pre;
              Wire.write_u32 w until_pre;
              Wire.write_u32 w below_post)
            ranges);
      Wire.write_list w (Wire.write_u32 w) points;
      Wire.write_u32 w max_items
  | Scan_next { cursor; max_items } ->
      Wire.write_u8 w 13;
      Wire.write_u32 w cursor;
      Wire.write_u32 w max_items
  | Manifest -> Wire.write_u8 w 14
  | Agg_eval { pres } ->
      Wire.write_u8 w 15;
      Wire.write_list w (Wire.write_u32 w) pres);
  Wire.contents w

let decode_request s =
  let r = Wire.reader s in
  let req =
    match Wire.read_u8 r with
    | 0 -> Ping
    | 1 -> Root
    | 2 -> Children (Wire.read_u32 r)
    | 6 -> Cursor_close (Wire.read_u32 r)
    | 8 ->
        let pres = Wire.read_list r (fun () -> Wire.read_u32 r) in
        let point = Wire.read_u32 r in
        Eval_batch { pres; point }
    | 10 -> Shares (Wire.read_list r (fun () -> Wire.read_u32 r))
    | 12 ->
        let target =
          match Wire.read_u8 r with
          | 0 -> Children_of (Wire.read_list r (fun () -> Wire.read_u32 r))
          | 1 ->
              Pre_ranges
                (Wire.read_list r (fun () ->
                     let from_pre = Wire.read_u32 r in
                     let below_post = Wire.read_u32 r in
                     (from_pre, below_post)))
          | 2 ->
              Bounded_pre_ranges
                (Wire.read_list r (fun () ->
                     let from_pre = Wire.read_u32 r in
                     let until_pre = Wire.read_u32 r in
                     let below_post = Wire.read_u32 r in
                     (from_pre, until_pre, below_post)))
          | tag ->
              raise (Wire.Decode_error (Printf.sprintf "unknown scan target tag %d" tag))
        in
        let points = Wire.read_list r (fun () -> Wire.read_u32 r) in
        let max_items = Wire.read_u32 r in
        Scan_eval { target; points; max_items }
    | 13 ->
        let cursor = Wire.read_u32 r in
        let max_items = Wire.read_u32 r in
        Scan_next { cursor; max_items }
    | 14 -> Manifest
    | 15 -> Agg_eval { pres = Wire.read_list r (fun () -> Wire.read_u32 r) }
    | tag -> raise (Wire.Decode_error (Printf.sprintf "unknown request tag %d" tag))
  in
  Wire.expect_end r;
  req

(* The encoded length of the replies that grow with a batch, so their
   writer allocates the frame once (Wire.writer). *)
let response_size = function
  | Scan_batch { rows; cursor } ->
      5
      + List.fold_left (fun acc (_, values) -> acc + 16 + (4 * List.length values)) 0 rows
      + if cursor = None then 1 else 5
  | Values vs -> 5 + (4 * List.length vs)
  | Nodes metas -> 5 + (12 * List.length metas)
  | Shares_data bs -> 5 + List.fold_left (fun acc b -> acc + 4 + Bytes.length b) 0 bs
  | _ -> 64

let encode_response resp =
  let w = Wire.writer ~size:(response_size resp) () in
  (match resp with
  | Pong -> Wire.write_u8 w 0
  | Node_opt None -> Wire.write_u8 w 1
  | Node_opt (Some m) ->
      Wire.write_u8 w 2;
      write_meta w m
  | Nodes metas ->
      Wire.write_u8 w 3;
      Wire.write_list w (write_meta w) metas
  | Values vs ->
      Wire.write_u8 w 7;
      Wire.write_list w (Wire.write_u32 w) vs
  | Shares_data bs ->
      Wire.write_u8 w 9;
      Wire.write_list w (Wire.write_bytes w) bs
  | Error_msg msg ->
      Wire.write_u8 w 11;
      Wire.write_string w msg
  | Scan_batch { rows; cursor } ->
      Wire.write_u8 w 12;
      Wire.write_list w
        (fun (m, values) ->
          write_meta w m;
          Wire.write_list w (Wire.write_u32 w) values)
        rows;
      (match cursor with
      | None -> Wire.write_u8 w 0
      | Some c ->
          Wire.write_u8 w 1;
          Wire.write_u32 w c)
  | Manifest_data { shard_id; shards; threshold; p; e; total_rows } ->
      Wire.write_u8 w 17;
      Wire.write_u32 w shard_id;
      Wire.write_u32 w shards;
      Wire.write_u32 w threshold;
      Wire.write_u32 w p;
      Wire.write_u32 w e;
      Wire.write_u32 w total_rows
  | Agg_partial { count; sum } ->
      Wire.write_u8 w 14;
      Wire.write_u32 w count;
      Wire.write_i64 w sum);
  Wire.contents w

let decode_response s =
  let r = Wire.reader s in
  let resp =
    match Wire.read_u8 r with
    | 0 -> Pong
    | 1 -> Node_opt None
    | 2 -> Node_opt (Some (read_meta r))
    | 3 -> Nodes (Wire.read_list r (fun () -> read_meta r))
    | 7 -> Values (Wire.read_list r (fun () -> Wire.read_u32 r))
    | 9 -> Shares_data (Wire.read_list r (fun () -> Wire.read_bytes r))
    | 11 -> Error_msg (Wire.read_string r)
    | 12 ->
        let rows =
          Wire.read_list r (fun () ->
              let m = read_meta r in
              let values = Wire.read_list r (fun () -> Wire.read_u32 r) in
              (m, values))
        in
        let cursor =
          match Wire.read_u8 r with
          | 0 -> None
          | 1 -> Some (Wire.read_u32 r)
          | tag ->
              raise (Wire.Decode_error (Printf.sprintf "unknown cursor flag %d" tag))
        in
        Scan_batch { rows; cursor }
    | 17 ->
        let shard_id = Wire.read_u32 r in
        let shards = Wire.read_u32 r in
        let threshold = Wire.read_u32 r in
        let p = Wire.read_u32 r in
        let e = Wire.read_u32 r in
        let total_rows = Wire.read_u32 r in
        Manifest_data { shard_id; shards; threshold; p; e; total_rows }
    | 14 ->
        let count = Wire.read_u32 r in
        let sum = Wire.read_i64 r in
        (* the offending value stays out of the error text: partial
           sums never reach logs, even malformed ones *)
        if sum < 0 then raise (Wire.Decode_error "negative aggregate sum");
        Agg_partial { count; sum }
    | tag -> raise (Wire.Decode_error (Printf.sprintf "unknown response tag %d" tag))
  in
  Wire.expect_end r;
  resp

(* Stable lowercase opcode names: these are metric label values and
   slow-query-log tokens, so they must stay free of request payload. *)
let request_name = function
  | Ping -> "ping"
  | Root -> "root"
  | Children _ -> "children"
  | Cursor_close _ -> "cursor_close"
  | Eval_batch _ -> "eval_batch"
  | Shares _ -> "shares"
  | Scan_eval _ -> "scan_eval"
  | Scan_next _ -> "scan_next"
  | Manifest -> "manifest"
  | Agg_eval _ -> "agg_eval"

let pp_meta fmt m = Format.fprintf fmt "(pre=%d,post=%d,parent=%d)" m.pre m.post m.parent

let pp_request fmt = function
  | Ping -> Format.pp_print_string fmt "Ping"
  | Root -> Format.pp_print_string fmt "Root"
  | Children pre -> Format.fprintf fmt "Children(%d)" pre
  | Cursor_close c -> Format.fprintf fmt "Cursor_close(%d)" c
  (* pp_request runs on the trusted client only (protocol_error
     diagnostics, tests); the server formats requests solely through
     request_name, which carries no payload. *)
  | Eval_batch { pres; point } ->
      (Format.fprintf fmt "Eval_batch(%d nodes,point=%d)" (List.length pres) point
      [@lint.suppress
        "secret-sink" ~reason:"client-side diagnostic printer; server uses request_name"])
  | Shares pres -> Format.fprintf fmt "Shares(%d nodes)" (List.length pres)
  | Scan_eval { target; points; max_items } ->
      let target_s =
        match target with
        | Children_of parents -> Printf.sprintf "children-of %d" (List.length parents)
        | Pre_ranges ranges -> Printf.sprintf "%d ranges" (List.length ranges)
        | Bounded_pre_ranges ranges ->
            Printf.sprintf "%d bounded ranges" (List.length ranges)
      in
      Format.fprintf fmt "Scan_eval(%s,%d points,max=%d)" target_s (List.length points)
        max_items
  | Scan_next { cursor; max_items } ->
      Format.fprintf fmt "Scan_next(%d,max=%d)" cursor max_items
  | Manifest -> Format.pp_print_string fmt "Manifest"
  | Agg_eval { pres } -> Format.fprintf fmt "Agg_eval(%d nodes)" (List.length pres)

let pp_response fmt = function
  | Pong -> Format.pp_print_string fmt "Pong"
  | Node_opt None -> Format.pp_print_string fmt "Node_opt(none)"
  | Node_opt (Some m) -> Format.fprintf fmt "Node_opt%a" pp_meta m
  | Nodes metas -> Format.fprintf fmt "Nodes(%d)" (List.length metas)
  | Values vs -> Format.fprintf fmt "Values(%d)" (List.length vs)
  | Shares_data bs -> Format.fprintf fmt "Shares_data(%d)" (List.length bs)
  | Scan_batch { rows; cursor } ->
      Format.fprintf fmt "Scan_batch(%d,%s)" (List.length rows)
        (match cursor with None -> "exhausted" | Some c -> Printf.sprintf "cursor=%d" c)
  | Manifest_data { shard_id; shards; threshold; p; e; total_rows } ->
      Format.fprintf fmt "Manifest_data(shard=%d/%d,t=%d,field=%d^%d,rows=%d)" shard_id
        shards threshold p e total_rows
  (* Only the count: the share sum is key-dependent material and must
     never reach logs (lint rule secret-flow/agg-sink). *)
  | Agg_partial { count; sum = _ } -> Format.fprintf fmt "Agg_partial(count=%d)" count
  | Error_msg msg -> Format.fprintf fmt "Error(%s)" msg
