module Obs = Secshare_obs

type recovery_stats = {
  redo_pages : int;
  redo_rows : int;
  wal_records : int;
  discarded_bytes : int;
}

(* The node table answers three reads: a row by pre, a node's
   children, and a pre-contiguous subtree run.  Pre numbers are dense
   keys, so all three read int columns indexed by pre, built by the
   page pass of [open_file] and kept current by [insert]:

   - [loc]: the row locator, [-1] for an absent pre;
   - [last_child]: the largest pre among its children, [0] for none.
     Slot 0 is the virtual parent of the roots;
   - [prev_sibling]: the next smaller pre with the same parent, [0] at
     the end of the list.

   A sibling list runs in descending pre, so the common insertion
   orders (pre order, and the encoder's post order) link each child
   at the head in O(1), and a walk that conses the rows yields them
   in ascending pre.

   The columns live side by side in chunks of [chunk] pres, three ints
   per pre.  A chunk is allocated when a row's pre or parent first
   falls in it, up to [max_pre], and never moves: growing copies only
   the chunk directory.  So building a table leaves no discarded
   arrays behind, a dense table's capacity stays within one chunk of
   its largest pre, and a lone row at a far pre costs one chunk. *)
type t = {
  pager : Pager.t;
  mutable fill_page : int; (* index of the page currently accepting rows, -1 if none *)
  mutable chunks : int array array; (* the columns; [no_chunk] where none yet *)
  mutable rows : int;
  mutable wal : Wal.t option; (* present in durable file mode *)
  checkpoint_every : int option; (* auto-checkpoint after this many inserts *)
  mutable since_checkpoint : int;
  mutable recovery : recovery_stats option; (* set when open_file replayed a log *)
  write_lock : Mutex.t; (* serialises inserts; reads take no lock *)
}

let obs_redo_pages =
  Obs.Registry.counter ~help:"Page images replayed from write-ahead logs on recovery."
    "ssdb_store_recovery_redo_pages_total"

let obs_redo_rows =
  Obs.Registry.counter ~help:"Rows replayed from write-ahead logs on recovery."
    "ssdb_store_recovery_redo_rows_total"

let obs_recoveries =
  Obs.Registry.counter ~help:"Table opens that replayed a write-ahead log."
    "ssdb_store_recoveries_total"

let obs_backfilled_pages =
  Obs.Registry.counter
    ~help:"Unreadable hole pages backfilled with empty images on recovery."
    "ssdb_store_recovery_backfilled_pages_total"

let max_pre = (1 lsl 24) - 1
let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let no_chunk : int array = [||]

(* The columns of a pre, as offsets into its chunk's triple. *)
let loc = 0
let last_child = 1
let prev_sibling = 2
let get t pre column = t.chunks.(pre lsr chunk_bits).((3 * (pre land (chunk - 1))) + column)

let set t pre column v =
  t.chunks.(pre lsr chunk_bits).((3 * (pre land (chunk - 1))) + column) <- v

let allocated t pre =
  pre >= 0
  && pre lsr chunk_bits < Array.length t.chunks
  && t.chunks.(pre lsr chunk_bits) != no_chunk

(* Row locator: page index and slot packed into one int. *)
let slot_bits = 12
let max_slots = 1 lsl slot_bits
let locator ~page ~slot = (page lsl slot_bits) lor slot
let locator_page loc = loc lsr slot_bits
let locator_slot loc = loc land (max_slots - 1)

let make ?checkpoint_every pager =
  {
    pager;
    fill_page = -1;
    chunks = [||];
    rows = 0;
    wal = None;
    checkpoint_every;
    since_checkpoint = 0;
    recovery = None;
    write_lock = Mutex.create ();
  }

let create ?page_size () = make (Pager.in_memory ?page_size ())

let wal_path path = path ^ ".wal"

(* Log-before-write hook for the pager: the images about to overwrite
   heap pages are appended to the WAL, sealed with a commit record and
   fsynced — only then may the pager touch the heap file.  A crash
   that tears any of those heap writes is repaired by page redo. *)
let page_barrier wal images =
  Wal.append_page_images wal images;
  Wal.append_commit wal;
  Wal.sync wal

let attach_wal t wal =
  t.wal <- Some wal;
  Pager.set_write_barrier t.pager (Some (page_barrier wal))

let[@init_path
     "the table is not published until create_file returns; no other executor can \
      reach it"] create_file ?page_size ?cache_pages ?(durable = false) ?checkpoint_every
    path =
  let t = make ?checkpoint_every (Pager.create_file ?page_size ?cache_pages path) in
  if durable then attach_wal t (Wal.create (wal_path path));
  t

let mem t pre = allocated t pre && get t pre loc >= 0

(* Refuse a row whose numbers would reach past [max_pre], or
   whose pre is taken.  Runs before the row reaches a page or the log;
   [op] names the public operation that met the row ("insert", or
   "open_file" for a heap or logged row). *)
let admit ~op t (row : Page.row) =
  let check what v ~lo =
    if v < lo || v > max_pre then
      invalid_arg
        (Printf.sprintf "Node_table.%s: %s %d outside [%d, %d]" op what v lo max_pre)
  in
  check "pre" row.Page.pre ~lo:1;
  check "parent" row.Page.parent ~lo:0;
  if mem t row.Page.pre then
    invalid_arg (Printf.sprintf "Node_table.%s: duplicate pre %d" op row.Page.pre)

(* Allocate the chunk holding [pre]; the directory doubles, and the
   chunks already allocated stay where they are. *)
let grow t pre =
  let c = pre lsr chunk_bits in
  let dir = Array.length t.chunks in
  if c >= dir then begin
    let chunks = Array.make (max (c + 1) (2 * dir)) no_chunk in
    Array.blit t.chunks 0 chunks 0 dir;
    t.chunks <- chunks
  end;
  if t.chunks.(c) == no_chunk then
    t.chunks.(c) <- Array.init (3 * chunk) (fun i -> if i mod 3 = loc then -1 else 0)

(* Record an admitted row at [row_loc] and link it into its parent's
   descending sibling list. *)
let index_row t (row : Page.row) row_loc =
  let pre = row.Page.pre and parent = row.Page.parent in
  grow t pre;
  grow t parent;
  set t pre loc row_loc;
  let head = get t parent last_child in
  if head < pre then begin
    set t pre prev_sibling head;
    set t parent last_child pre
  end
  else begin
    let at = ref head in
    while get t !at prev_sibling > pre do
      at := get t !at prev_sibling
    done;
    set t pre prev_sibling (get t !at prev_sibling);
    set t !at prev_sibling pre
  end;
  t.rows <- t.rows + 1

(* Insert into pages and columns without touching the log (used both
   by the public insert and by WAL recovery). *)
let insert_unlogged ~op t row =
  admit ~op t row;
  if Bytes.length row.Page.share > Wal.max_share_len then
    invalid_arg
      (Printf.sprintf "Node_table.%s: share of %d bytes exceeds the %d-byte limit" op
         (Bytes.length row.Page.share) Wal.max_share_len);
  let try_add page_idx =
    let page = Pager.get t.pager page_idx in
    match Page.add_row page row with
    | Some slot ->
        Pager.mark_dirty t.pager page_idx;
        Some (locator ~page:page_idx ~slot)
    | None -> None
  in
  let loc =
    let existing = if t.fill_page >= 0 then try_add t.fill_page else None in
    match existing with
    | Some loc -> loc
    | None ->
        let fresh = Page.create ~size:(Pager.page_size t.pager) in
        let idx = Pager.append t.pager fresh in
        t.fill_page <- idx;
        (match try_add idx with
        | Some loc -> loc
        | None -> invalid_arg ("Node_table." ^ op ^ ": row does not fit in a fresh page"))
  in
  index_row t row loc

(* Caller holds [write_lock].  Durability ordering — each step must be
   complete before the next begins:
     1. WAL: dirty page images + commit record, fsynced   (Pager.flush
        runs the write barrier before any heap write)
     2. heap: page images and the file header written
     3. heap: fsync
     4. WAL: checkpoint record, fsync, truncate
   Step 4 after step 3 is the lost-write fix: the log may only forget
   changes the heap has durably promised to keep.  Truncating before
   the heap fsync would leave a crash window where neither file holds
   the data. *)
let flush_locked t =
  Pager.flush t.pager;
  match t.wal with
  | None -> ()
  | Some wal ->
      Pager.sync t.pager;
      Wal.checkpoint wal;
      t.since_checkpoint <- 0

(* Inserts are serialised by [write_lock]; column and page reads take
   no lock at all (see the .mli for the read-after-load discipline). *)
let insert t row =
  Mutex.lock t.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.write_lock)
    (fun () ->
      insert_unlogged ~op:"insert" t row;
      match t.wal with
      | None -> ()
      | Some wal -> (
          (match Wal.append_row wal row with
          | Ok () -> ()
          | Error (Wal.Share_too_large n) ->
              (* unreachable: insert_unlogged bounds the share first *)
              invalid_arg
                (Printf.sprintf "Node_table.insert: share of %d bytes too large" n));
          t.since_checkpoint <- t.since_checkpoint + 1;
          match t.checkpoint_every with
          | Some every when t.since_checkpoint >= every -> flush_locked t
          | _ -> ()))

let fetch t loc =
  let page = Pager.get t.pager (locator_page loc) in
  Page.get_row page (locator_slot loc)

(* --- recovery ------------------------------------------------------ *)

(* During recovery [tolerate_holes] repairs hole pages: a page below
   the heap frontier that never reached the disk, because it was still
   dirty in the cache when the process died while a higher-index page
   was evicted (logged and heap-written) past it.  Such a page reads
   back as zeros (or a torn fragment) and fails [Page.deserialize].
   Every row it held was inserted after the last checkpoint — a
   checkpoint heap-writes every dirty page — so the log's row records
   re-create them all; the hole itself is backfilled with a valid
   empty page image so the heap is self-consistent again.  The redo
   pass runs first, so any page with a logged image is already valid
   here: what still fails to read is exactly a hole. *)
let rebuild_indexes ?(tolerate_holes = false) t =
  for pidx = 0 to Pager.page_count t.pager - 1 do
    let page =
      match Pager.get t.pager pidx with
      | page -> page
      | exception Failure _ when tolerate_holes ->
          let empty = Page.create ~size:(Pager.page_size t.pager) in
          Pager.install_page t.pager pidx (Page.serialize empty);
          Obs.Registry.inc obs_backfilled_pages;
          Pager.get t.pager pidx
    in
    Page.iter_rows page ~f:(fun slot row ->
        admit ~op:"open_file" t row;
        index_row t row (locator ~page:pidx ~slot))
  done;
  t.fill_page <- Pager.page_count t.pager - 1

let empty_plan =
  {
    Wal.redo_pages = [];
    redo_rows = [];
    last_checkpoint = None;
    max_lsn = 0L;
    records = 0;
    valid_bytes = 0;
    discarded_bytes = 0;
  }

let[@init_path
     "recovery and index rebuild run before the table is published; no other executor \
      can reach it"] open_file ?cache_pages ?(durable = false) ?checkpoint_every path =
  (* Scan the log (if any) before opening the heap: its page images
     determine whether a short/torn heap file is tolerable. *)
  let plan_result =
    if Sys.file_exists (wal_path path) then Wal.scan (wal_path path)
    else Ok empty_plan
  in
  match plan_result with
  | Error msg -> Error ("wal: " ^ msg)
  | Ok plan -> (
      let recovering = plan.Wal.records > 0 in
      let pager_result =
        match Pager.open_file ?cache_pages ~recovery:recovering path with
        | Ok _ as ok -> ok
        | Error (Pager.Retired msg) -> Error msg
        | Error (Pager.Unreadable msg) when not recovering -> Error msg
        | Error (Pager.Unreadable _) -> (
            (* The heap file is unreadable (missing, empty, or torn
               header) while the log holds records.  A completed
               checkpoint always leaves a durable valid heap header
               behind (the heap is fsynced before the log truncates),
               so an unreadable header proves no checkpoint ever
               completed — the log still holds every change since the
               table was created, and the heap is rebuilt from it. *)
            let page_size =
              match plan.Wal.redo_pages with
              | (_, image) :: _ -> Some (Bytes.length image)
              | [] -> None
            in
            match Pager.create_file ?page_size ?cache_pages path with
            | pager -> Ok pager
            | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err))
      in
      match pager_result with
      | Error _ as e -> e
      | Ok pager -> (
          let t = make ?checkpoint_every pager in
          (* From here on the pager fd (and later the WAL fd) must not
             leak: every early return closes what is open so repeated
             failed opens do not exhaust descriptors. *)
          match
            (* Redo pass: lay logged post-images over the heap file.
               Every CRC-valid image is applied (newest LSN per page)
               — an image was only ever logged en route to a heap
               write, so a page that differs is exactly a torn or lost
               write. *)
            List.iter
              (fun (idx, image) -> Pager.install_page pager idx image)
              plan.Wal.redo_pages;
            rebuild_indexes ~tolerate_holes:recovering t;
            (* Row redo: re-insert logged rows the redone pages do not
               already hold (rows acknowledged after the last page
               flush). *)
            List.iter
              (fun row ->
                if not (mem t row.Page.pre) then insert_unlogged ~op:"open_file" t row)
              plan.Wal.redo_rows
          with
          | exception Invalid_argument msg ->
              Pager.abort pager;
              Error msg
          | exception Failure msg ->
              Pager.abort pager;
              Error msg
          | exception Unix.Unix_error (err, _, _) ->
              (* ENOSPC/EIO from the redo writes: fail the open without
                 leaking the pager fd *)
              Pager.abort pager;
              Error (Unix.error_message err)
          | () ->
              if recovering then begin
                t.recovery <-
                  Some
                    {
                      redo_pages = List.length plan.Wal.redo_pages;
                      redo_rows = List.length plan.Wal.redo_rows;
                      wal_records = plan.Wal.records;
                      discarded_bytes = plan.Wal.discarded_bytes;
                    };
                Obs.Registry.inc obs_recoveries;
                Obs.Registry.inc ~by:(List.length plan.Wal.redo_pages) obs_redo_pages;
                Obs.Registry.inc ~by:(List.length plan.Wal.redo_rows) obs_redo_rows
              end;
              if durable || recovering then begin
                match Wal.open_existing (wal_path path) with
                | Error msg ->
                    Pager.abort pager;
                    Error ("wal: " ^ msg)
                | Ok wal -> (
                    match
                      attach_wal t wal;
                      (* Checkpoint the recovered state so the next
                         crash replays only new work.  Ordering as in
                         [flush_locked]: heap flushed and fsynced
                         before the log truncates. *)
                      if recovering then flush_locked t;
                      if not durable then begin
                        (* the caller did not ask for a durable table:
                           recovery is done, detach the log *)
                        Pager.set_write_barrier pager None;
                        t.wal <- None;
                        Wal.close wal
                      end
                    with
                    | exception Failure msg ->
                        Wal.close wal;
                        Pager.abort pager;
                        Error msg
                    | exception Unix.Unix_error (err, _, _) ->
                        (* e.g. the post-recovery checkpoint's fsync
                           failing: close both fds, report an Error *)
                        Wal.close wal;
                        Pager.abort pager;
                        Error (Unix.error_message err)
                    | () -> Ok t)
              end
              else Ok t))

let recovery_stats t = t.recovery

let find_by_pre t pre = if mem t pre then Some (fetch t (get t pre loc)) else None

(* A sibling list, consed from its descending links: ascending pre. *)
let siblings t head =
  let rec walk pre acc =
    if pre = 0 then acc else walk (get t pre prev_sibling) (fetch t (get t pre loc) :: acc)
  in
  walk head []

let children t ~parent =
  if allocated t parent then siblings t (get t parent last_child) else []

let root t =
  if not (allocated t 0) then None
  else begin
    (* the smallest pre with parent 0 ends the roots' list *)
    let pre = ref (get t 0 last_child) in
    while !pre <> 0 && get t !pre prev_sibling <> 0 do
      pre := get t !pre prev_sibling
    done;
    find_by_pre t !pre
  end

(* Rows from [from_pre] in ascending pre, below [until_pre], while
   their post stays below [below_post]; [f] returns [None] to stop.
   Absent pres are skipped. *)
let fold_run t ~from_pre ~until_pre ~below_post ~init ~f =
  let last = min (until_pre - 1) ((Array.length t.chunks * chunk) - 1) in
  let rec go pre acc =
    if pre > last then acc
    else if not (allocated t pre) then go ((pre lor (chunk - 1)) + 1) acc
    else if get t pre loc < 0 then go (pre + 1) acc
    else begin
      let row = fetch t (get t pre loc) in
      if row.Page.post >= below_post then acc
      else match f acc row with Some acc -> go (pre + 1) acc | None -> acc
    end
  in
  go (max 1 from_pre) init

let fold_descendants t ~pre ~post ~init ~f =
  fold_run t ~from_pre:(pre + 1) ~until_pre:max_int ~below_post:post ~init
    ~f:(fun acc row -> Some (f acc row))

let descendants t ~pre ~post =
  List.rev (fold_descendants t ~pre ~post ~init:[] ~f:(fun acc row -> row :: acc))

let scan_range t ~from_pre ~until_pre ~below_post ~max_rows =
  let max_rows = max 1 max_rows in
  let resume = ref None in
  let _, rows =
    fold_run t ~from_pre ~until_pre ~below_post ~init:(0, [])
      ~f:(fun (count, rows) row ->
        if count < max_rows then Some (count + 1, row :: rows)
        else begin
          (* budget hit: this row was not taken, restart here *)
          resume := Some row.Page.pre;
          None
        end)
  in
  (List.rev rows, !resume)

let row_count t = t.rows
let data_bytes t = Pager.data_bytes t.pager

let index_bytes t =
  Array.fold_left (fun words c -> words + Array.length c) (Array.length t.chunks) t.chunks
  * (Sys.word_size / 8)

let iter t ~f =
  for pidx = 0 to Pager.page_count t.pager - 1 do
    let page = Pager.get t.pager pidx in
    Page.iter_rows page ~f:(fun _ row -> f row)
  done

let flush t =
  Mutex.lock t.write_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.write_lock) (fun () -> flush_locked t)

let close t =
  flush t;
  Pager.close t.pager;
  match t.wal with None -> () | Some wal -> Wal.close wal
