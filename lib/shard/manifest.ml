(* Deployment descriptor for sharded serving (see manifest.mli). *)

module Protocol = Secshare_rpc.Protocol

type t = {
  shard_id : int;
  shards : int;
  threshold : int;
  p : int;
  e : int;
  rows : int;
}

let validate m =
  if m.shards < 1 then Error (Printf.sprintf "manifest: shards = %d < 1" m.shards)
  else if m.threshold < 1 || m.threshold > m.shards then
    Error
      (Printf.sprintf "manifest: threshold %d outside [1, %d]" m.threshold m.shards)
  else if m.shard_id < 0 || m.shard_id > m.shards then
    Error
      (Printf.sprintf "manifest: shard_id %d outside [0, %d]" m.shard_id m.shards)
  else if m.rows < 0 then Error (Printf.sprintf "manifest: rows = %d < 0" m.rows)
  else Ok ()

let same_deployment a b =
  a.shards = b.shards && a.threshold = b.threshold && a.p = b.p && a.e = b.e
  && a.rows = b.rows

let group_consistent = function
  | [] -> Error "manifest group: no shards"
  | first :: _ as all -> (
      let rec check seen = function
        | [] -> Ok { first with shard_id = 0 }
        | m :: rest -> (
            match validate m with
            | Error _ as e -> e
            | Ok () ->
                if not (same_deployment first m) then
                  Error
                    (Printf.sprintf
                       "manifest group: shard %d disagrees with shard %d on the \
                        deployment"
                       m.shard_id first.shard_id)
                else if m.shard_id < 1 then
                  Error "manifest group: member with router shard_id 0"
                else if List.mem m.shard_id seen then
                  Error
                    (Printf.sprintf "manifest group: duplicate shard_id %d" m.shard_id)
                else check (m.shard_id :: seen) rest)
      in
      check [] all)

let to_info m =
  {
    Protocol.shard_id = m.shard_id;
    shards = m.shards;
    threshold = m.threshold;
    p = m.p;
    e = m.e;
    total_rows = m.rows;
  }

let of_info (i : Protocol.manifest_info) =
  {
    shard_id = i.Protocol.shard_id;
    shards = i.Protocol.shards;
    threshold = i.Protocol.threshold;
    p = i.Protocol.p;
    e = i.Protocol.e;
    rows = i.Protocol.total_rows;
  }

let shard_db_path base i = Printf.sprintf "%s.shard%d" base i
let manifest_path db = db ^ ".manifest"

let save path m =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "# secshare shard manifest\n\
         shard_id = %d\n\
         shards = %d\n\
         threshold = %d\n\
         p = %d\n\
         e = %d\n\
         rows = %d\n"
        m.shard_id m.shards m.threshold m.p m.e m.rows)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      let ( let* ) = Result.bind in
      let lines = String.split_on_char '\n' contents in
      let value key =
        List.find_map
          (fun line ->
            match String.index_opt line '=' with
            | Some i when String.trim (String.sub line 0 i) = key ->
                Some (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> None)
          lines
      in
      let fail fmt = Printf.ksprintf (fun m -> Error ("manifest " ^ path ^ ": " ^ m)) fmt in
      let int key =
        match value key with
        | None -> fail "missing %s" key
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n -> Ok n
            | None -> fail "malformed %s" key)
      in
      let* shard_id = int "shard_id" in
      let* shards = int "shards" in
      let* threshold = int "threshold" in
      let* p = int "p" in
      let* e = int "e" in
      let* rows = int "rows" in
      let m = { shard_id; shards; threshold; p; e; rows } in
      Result.map (fun () -> m) (validate m)
