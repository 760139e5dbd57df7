module Obs = Secshare_obs

(* File layout:
     8 bytes   magic "SSDBWAL4"
     records   u32 payload length | u32 crc32(payload) | payload

   Payload encodings (all little-endian):
     kind 1  Row         u8 kind, u64 lsn, u32 pre, u32 post, u32 parent,
                         u32 share length, share bytes
     kind 2  Page_image  u8 kind, u64 lsn, u32 page index, image bytes
     kind 3  Commit      u8 kind, u64 lsn
     kind 4  Checkpoint  u8 kind, u64 lsn *)

let magic = "SSDBWAL4"
let header_len = String.length magic

(* Logs of the retired formats (see [Pager.retired_magics]): refused
   before any record is read or the file is touched. *)
let retired_magics =
  [
    ("SSDBWAL2", "whose shares follow the first-refill sampler");
    ("SSDBWAL3", "whose shares are coefficient vectors");
  ]

(* Shares live in page cells whose length field is u16; the log field
   is u32 so the format never truncates, and appends reject anything a
   page could not hold anyway. *)
let max_share_len = 0xFFFF

(* One record must fit the scanner's sanity bound with room to spare:
   the largest legal payload is a page image (pages are <= 0xFFFF
   bytes) or a max-share row. *)
let max_payload = 1 lsl 24

type t = {
  fd : Unix.file_descr;
  lock : Mutex.t;  (** serialises appends/sync/checkpoint on the shared fd *)
  mutable entries : int;
  mutable lsn : int64;  (** next LSN to assign *)
}

type append_error = Share_too_large of int

let obs_records =
  Obs.Registry.counter ~help:"Records appended to write-ahead logs."
    "ssdb_wal_records_total"

let obs_bytes =
  Obs.Registry.counter ~help:"Bytes appended to write-ahead logs (framing included)."
    "ssdb_wal_bytes_total"

let obs_fsyncs =
  Obs.Registry.counter ~help:"fsync calls on write-ahead log fds."
    "ssdb_wal_fsyncs_total"

let obs_checkpoints =
  Obs.Registry.counter ~help:"Write-ahead log checkpoints (log truncations)."
    "ssdb_wal_checkpoints_total"

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Store_io.write_all ~kind:Store_io.Wal_write fd (Bytes.of_string magic);
  Store_io.fsync fd;
  { fd; lock = Mutex.create (); entries = 0; lsn = 1L }

(* --- record codecs ------------------------------------------------- *)

type record =
  | Row of int64 * Page.row
  | Page_image of int64 * int * bytes
  | Commit of int64
  | Checkpoint of int64

let encode_record = function
  | Row (lsn, row) ->
      let share_len = Bytes.length row.Page.share in
      let payload = Bytes.create (25 + share_len) in
      Bytes.set_uint8 payload 0 1;
      Bytes.set_int64_le payload 1 lsn;
      Bytes.set_int32_le payload 9 (Int32.of_int row.Page.pre);
      Bytes.set_int32_le payload 13 (Int32.of_int row.Page.post);
      Bytes.set_int32_le payload 17 (Int32.of_int row.Page.parent);
      Bytes.set_int32_le payload 21 (Int32.of_int share_len);
      Bytes.blit row.Page.share 0 payload 25 share_len;
      payload
  | Page_image (lsn, page, image) ->
      let payload = Bytes.create (13 + Bytes.length image) in
      Bytes.set_uint8 payload 0 2;
      Bytes.set_int64_le payload 1 lsn;
      Bytes.set_int32_le payload 9 (Int32.of_int page);
      Bytes.blit image 0 payload 13 (Bytes.length image);
      payload
  | Commit lsn ->
      let payload = Bytes.create 9 in
      Bytes.set_uint8 payload 0 3;
      Bytes.set_int64_le payload 1 lsn;
      payload
  | Checkpoint lsn ->
      let payload = Bytes.create 9 in
      Bytes.set_uint8 payload 0 4;
      Bytes.set_int64_le payload 1 lsn;
      payload

let decode_record payload =
  let len = Bytes.length payload in
  if len < 9 then None
  else
    let lsn = Bytes.get_int64_le payload 1 in
    match Bytes.get_uint8 payload 0 with
    | 1 ->
        if len < 25 then None
        else begin
          let pre = Int32.to_int (Bytes.get_int32_le payload 9) in
          let post = Int32.to_int (Bytes.get_int32_le payload 13) in
          let parent = Int32.to_int (Bytes.get_int32_le payload 17) in
          let share_len = Int32.to_int (Bytes.get_int32_le payload 21) in
          if share_len < 0 || len <> 25 + share_len then None
          else
            Some
              (Row (lsn, { Page.pre; post; parent; share = Bytes.sub payload 25 share_len }))
        end
    | 2 ->
        if len < 13 then None
        else begin
          let page = Int32.to_int (Bytes.get_int32_le payload 9) in
          if page < 0 then None else Some (Page_image (lsn, page, Bytes.sub payload 13 (len - 13)))
        end
    | 3 -> if len = 9 then Some (Commit lsn) else None
    | 4 -> if len = 9 then Some (Checkpoint lsn) else None
    | _ -> None

(* --- appending ----------------------------------------------------- *)

(* Caller holds [t.lock]. *)
let append_record_locked t record =
  let payload = encode_record record in
  let frame = Bytes.create (8 + Bytes.length payload) in
  Bytes.set_int32_le frame 0 (Int32.of_int (Bytes.length payload));
  Bytes.set_int32_le frame 4 (Crc32.digest_bytes payload);
  Bytes.blit payload 0 frame 8 (Bytes.length payload);
  Store_io.write_all ~kind:Store_io.Wal_write t.fd frame;
  t.entries <- t.entries + 1;
  Obs.Registry.inc obs_records;
  Obs.Registry.inc ~by:(Bytes.length frame) obs_bytes

let take_lsn_locked t =
  let lsn = t.lsn in
  t.lsn <- Int64.add lsn 1L;
  lsn

let sync_locked t =
  Store_io.fsync t.fd;
  Obs.Registry.inc obs_fsyncs

let append_row t row =
  let share_len = Bytes.length row.Page.share in
  if share_len > max_share_len then Error (Share_too_large share_len)
  else begin
    with_lock t.lock (fun () ->
        append_record_locked t (Row (take_lsn_locked t, row));
        sync_locked t);
    Ok ()
  end

let append_page_images t images =
  with_lock t.lock (fun () ->
      List.iter
        (fun (page, image) ->
          append_record_locked t (Page_image (take_lsn_locked t, page, image)))
        images)

let append_commit t =
  with_lock t.lock (fun () -> append_record_locked t (Commit (take_lsn_locked t)))

let sync t = with_lock t.lock (fun () -> sync_locked t)

let checkpoint t =
  with_lock t.lock (fun () ->
      (* The record-then-truncate pair is crash-ordered: if the
         process dies after the fsync of the checkpoint record but
         before the truncation, the surviving log still tells recovery
         (via the checkpoint LSN) that everything before it is already
         durable in the heap. *)
      append_record_locked t (Checkpoint (take_lsn_locked t));
      sync_locked t;
      Store_io.ftruncate t.fd header_len;
      ignore (Unix.lseek t.fd header_len Unix.SEEK_SET);
      sync_locked t;
      t.entries <- 0;
      Obs.Registry.inc obs_checkpoints)

(* --- scanning ------------------------------------------------------ *)

type recovery_plan = {
  redo_pages : (int * bytes) list;
  redo_rows : Page.row list;
  last_checkpoint : int64 option;
  max_lsn : int64;
  records : int;
  valid_bytes : int;
  discarded_bytes : int;
}

let scan path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      let len = String.length contents in
      let retired =
        List.find_opt (fun (m, _) -> String.starts_with ~prefix:m contents) retired_magics
      in
      if len > 0 && len < header_len then Error "wal file shorter than its header"
      else if Option.is_some retired then
        let m, why = Option.get retired in
        Error
          (Printf.sprintf
             "write-ahead log in the retired %s format, %s: re-encode the document" m why)
      else if len >= header_len && not (String.equal (String.sub contents 0 header_len) magic)
      then Error "not a wal file (bad magic)"
      else begin
        let records = ref [] and count = ref 0 in
        let rec go pos =
          if pos + 8 > len then pos
          else begin
            let payload_len = Int32.to_int (String.get_int32_le contents pos) in
            let crc = String.get_int32_le contents (pos + 4) in
            if payload_len < 9 || payload_len > max_payload || pos + 8 + payload_len > len
            then pos (* torn tail *)
            else begin
              let payload = Bytes.of_string (String.sub contents (pos + 8) payload_len) in
              if not (Int32.equal crc (Crc32.digest_bytes payload)) then pos
              else
                match decode_record payload with
                | None -> pos
                | Some record ->
                    records := record :: !records;
                    incr count;
                    go (pos + 8 + payload_len)
            end
          end
        in
        let valid_bytes = go (min len header_len) in
        let records = List.rev !records in
        let lsn_of = function
          | Row (lsn, _) | Page_image (lsn, _, _) | Commit lsn | Checkpoint lsn -> lsn
        in
        let max_lsn =
          List.fold_left
            (fun acc r -> if Int64.compare (lsn_of r) acc > 0 then lsn_of r else acc)
            0L records
        in
        let last_checkpoint =
          List.fold_left
            (fun acc r -> match r with Checkpoint lsn -> Some lsn | _ -> acc)
            None records
        in
        let past_ckpt lsn =
          match last_checkpoint with None -> true | Some c -> Int64.compare lsn c > 0
        in
        (* newest image per page wins *)
        let images : (int, int64 * bytes) Hashtbl.t = Hashtbl.create 16 in
        let rows = ref [] in
        List.iter
          (fun r ->
            match r with
            | Row (lsn, row) -> if past_ckpt lsn then rows := row :: !rows
            | Page_image (lsn, page, image) ->
                if past_ckpt lsn then begin
                  match Hashtbl.find_opt images page with
                  | Some (prev, _) when Int64.compare prev lsn > 0 -> ()
                  | _ -> Hashtbl.replace images page (lsn, image)
                end
            | Commit _ | Checkpoint _ -> ())
          records;
        let redo_pages =
          Hashtbl.fold (fun page (_, image) acc -> (page, image) :: acc) images []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        Ok
          {
            redo_pages;
            redo_rows = List.rev !rows;
            last_checkpoint;
            max_lsn;
            records = !count;
            valid_bytes;
            discarded_bytes = len - valid_bytes;
          }
      end

let open_existing path =
  if not (Sys.file_exists path) then
    (* A table created without [durable] has no log at all; a durable
       open adopts it by starting a fresh one, exactly as [create]
       would have. *)
    match create path with
    | wal -> Ok wal
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  else
  match scan path with
  | Error _ as e -> e
  | Ok plan -> (
      match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
      | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
      | fd ->
          (* a torn tail is cut off so new appends extend the valid
             prefix instead of hiding behind garbage *)
          if plan.valid_bytes < header_len then begin
            (* fresh or empty file: stamp the header *)
            Store_io.ftruncate fd 0;
            Store_io.write_all ~kind:Store_io.Wal_write fd (Bytes.of_string magic);
            Store_io.fsync fd
          end
          else if plan.discarded_bytes > 0 then begin
            Store_io.ftruncate fd plan.valid_bytes;
            Store_io.fsync fd
          end;
          ignore (Unix.lseek fd 0 Unix.SEEK_END);
          Ok
            {
              fd;
              lock = Mutex.create ();
              entries = plan.records;
              lsn = Int64.add plan.max_lsn 1L;
            })

let entry_count t = with_lock t.lock (fun () -> t.entries)
let next_lsn t = with_lock t.lock (fun () -> t.lsn)
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
