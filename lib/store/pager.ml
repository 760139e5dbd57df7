module Obs = Secshare_obs

type cache_stats = { hits : int; misses : int; evictions : int }

let obs_page_writes =
  Obs.Registry.counter ~help:"Page images written to heap files."
    "ssdb_store_page_writes_total"

let obs_fsyncs =
  Obs.Registry.counter ~help:"fsync calls on heap-file fds."
    "ssdb_store_fsyncs_total"

let default_page_size = 8192
let header_size = 64
let file_magic = "SSDBPAG3"

(* Retired formats, each with why its shares no longer match the
   client's: such a file is refused, never decoded or rebuilt. *)
let retired_magics =
  [
    ("SSDBPAG1", "whose shares follow the first-refill sampler");
    ("SSDBPAG2", "whose shares are coefficient vectors");
  ]

type open_error = Unreadable of string | Retired of string

type cache_entry = { page : Page.t; mutable dirty : bool; mutable last_used : int }

type file_state = {
  fd : Unix.file_descr;
  latch : Mutex.t;  (** guards the buffer pool and [npages] *)
  io : Mutex.t;  (** serialises lseek+read/write pairs on the shared fd *)
  capacity : int;  (** max resident pages *)
  cache : (int, cache_entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable npages : int;  (** the file-growth frontier *)
  mutable barrier : ((int * bytes) list -> unit) option;
      (** write-ahead hook: called with the exact serialized images
          about to be written to the heap file, before any of them is.
          The durable node table points this at the WAL so page
          overwrites are redo-protected against torn writes. *)
}

type backing = Memory of Page.t array ref * int ref | File of file_state
type t = { psize : int; backing : backing }

(* Lock order (never acquire upward): latch -> io.  ssdb_lint's
   lock-order pass checks this lexically at every acquisition site;
   [with_lock] reports each acquisition to the runtime witness
   (SSDB_RACE_CHECK=1) under its class [cls], which checks the declared
   ranks across function boundaries the static pass cannot see. *)
let with_lock ~cls m f =
  Obs.Race_check.acquired cls;
  Mutex.lock m;
  Fun.protect
    ~finally:(fun () ->
      Obs.Race_check.released cls;
      Mutex.unlock m)
    f

let page_size t = t.psize

let in_memory ?(page_size = default_page_size) () =
  { psize = page_size; backing = Memory (ref [||], ref 0) }

(* The header is 64 bytes and assumed to land atomically (it never
   straddles a sector); page images get no such assumption — their
   overwrites are protected by the WAL's page-image redo records. *)
let write_header fd psize npages =
  let hdr = Bytes.make header_size '\000' in
  Bytes.blit_string file_magic 0 hdr 0 8;
  Bytes.set_int32_le hdr 8 (Int32.of_int psize);
  Bytes.set_int32_le hdr 12 (Int32.of_int npages);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Store_io.write_all ~kind:Store_io.Header_write fd hdr

let make_file_state fd npages cache_pages =
  {
    fd;
    latch = Mutex.create ();
    io = Mutex.create ();
    capacity = max 1 cache_pages;
    cache = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    npages;
    barrier = None;
  }

let create_file ?(page_size = default_page_size) ?(cache_pages = 256) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_header fd page_size 0;
  { psize = page_size; backing = File (make_file_state fd 0 cache_pages) }

let open_file ?(cache_pages = 256) ?(recovery = false) path =
  match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error (err, _, _) -> Error (Unreadable (Unix.error_message err))
  | fd -> (
      let hdr = Bytes.create header_size in
      let n = Unix.read fd hdr 0 header_size in
      let magic = Bytes.sub_string hdr 0 (min n 8) in
      match List.assoc_opt magic retired_magics with
      | Some why ->
          Unix.close fd;
          Error
            (Retired
               (Printf.sprintf
                  "page file in the retired %s format, %s: re-encode the document" magic
                  why))
      | None ->
          if n <> header_size || not (String.equal magic file_magic) then begin
            Unix.close fd;
            Error (Unreadable "not a page file (bad header)")
          end
          else begin
            let psize = Int32.to_int (Bytes.get_int32_le hdr 8) in
            let npages = Int32.to_int (Bytes.get_int32_le hdr 12) in
            let expected = header_size + (npages * psize) in
            let actual = (Unix.fstat fd).Unix.st_size in
            if actual < expected && not recovery then begin
              Unix.close fd;
              Error
                (Unreadable
                   (Printf.sprintf "torn page file: %d bytes, header promises %d" actual
                      expected))
            end
            else
              (* [recovery] tolerates a short file: the caller is about to
                 lay WAL page images over the damage before any read. *)
              Ok { psize; backing = File (make_file_state fd npages cache_pages) }
          end)

let page_count t =
  match t.backing with
  | Memory (_, used) -> !used
  | File st -> with_lock ~cls:"pager-latch" st.latch (fun () -> st.npages)

let write_image_at st psize idx image =
  with_lock ~cls:"pager-io" st.io (fun () ->
      ignore (Unix.lseek st.fd (header_size + (idx * psize)) Unix.SEEK_SET);
      Store_io.write_all ~kind:Store_io.Page_write st.fd image;
      Obs.Registry.inc obs_page_writes)

let read_page_at st psize idx =
  let image = Bytes.create psize in
  with_lock ~cls:"pager-io" st.io (fun () ->
      ignore (Unix.lseek st.fd (header_size + (idx * psize)) Unix.SEEK_SET);
      match Store_io.really_read st.fd image 0 psize with
      | () -> ()
      | exception Failure _ -> failwith (Printf.sprintf "Pager: page %d short read" idx));
  match Page.deserialize image with
  | Ok page -> page
  | Error msg -> failwith (Printf.sprintf "Pager: page %d corrupt: %s" idx msg)

(* The _locked suffix is the called-with-lock-held convention ssdb_lint
   enforces: the caller owns the latch. *)
let evict_locked st psize =
  while Hashtbl.length st.cache >= st.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun idx entry ->
        match !victim with
        | Some (_, best) when best.last_used <= entry.last_used -> ()
        | _ -> victim := Some (idx, entry))
      st.cache;
    match !victim with
    | None -> failwith "Pager: cannot evict from an empty cache"
    | Some (idx, entry) ->
        if entry.dirty then begin
          (* log-before-write: the exact image about to overwrite the
             heap page is WAL-logged and fsynced first (the barrier
             does both), so a crash that tears this write is repaired
             by redo on the next open.  The barrier runs under the
             latch — unlike flush, which batches images and runs it
             latch-free — so a dirty eviction stalls every cache read
             behind the log fsync; acceptable because dirty evictions
             are rare under a sane cache budget, and the alternative
             (dropping the latch around the write) would let a
             concurrent mark_dirty on the victim be lost. *)
          let image = Page.serialize entry.page in
          (match st.barrier with Some log -> log [ (idx, image) ] | None -> ());
          write_image_at st psize idx image
        end;
        Hashtbl.remove st.cache idx;
        st.evictions <- st.evictions + 1
  done

let append t page =
  if Page.size page <> t.psize then invalid_arg "Pager.append: page size mismatch";
  match t.backing with
  | Memory (pages, used) ->
      if !used >= Array.length !pages then begin
        let grown = Array.make (max 16 (2 * Array.length !pages)) page in
        Array.blit !pages 0 grown 0 !used;
        pages := grown
      end;
      !pages.(!used) <- page;
      incr used;
      !used - 1
  | File st ->
      with_lock ~cls:"pager-latch" st.latch (fun () ->
          let idx = st.npages in
          st.npages <- st.npages + 1;
          evict_locked st t.psize;
          st.clock <- st.clock + 1;
          Obs.Race_check.access ~write:true "pager.cache";
          Hashtbl.replace st.cache idx { page; dirty = true; last_used = st.clock };
          idx)

let out_of_range idx count =
  invalid_arg (Printf.sprintf "Pager.get: page %d out of [0, %d)" idx count)

let get t idx =
  match t.backing with
  | Memory (pages, used) ->
      if idx < 0 || idx >= !used then out_of_range idx !used;
      !pages.(idx)
  | File st ->
      with_lock ~cls:"pager-latch" st.latch (fun () ->
          if idx < 0 || idx >= st.npages then out_of_range idx st.npages;
          st.clock <- st.clock + 1;
          (* a write: even a hit advances the clock and the counters *)
          Obs.Race_check.access ~write:true "pager.cache";
          match Hashtbl.find_opt st.cache idx with
          | Some entry ->
              entry.last_used <- st.clock;
              st.hits <- st.hits + 1;
              entry.page
          | None ->
              (* The disk read happens under the latch, so a page is
                 faulted in exactly once even when several sessions
                 miss on it at once. *)
              st.misses <- st.misses + 1;
              let page = read_page_at st t.psize idx in
              evict_locked st t.psize;
              Hashtbl.replace st.cache idx { page; dirty = false; last_used = st.clock };
              page)

let mark_dirty t idx =
  match t.backing with
  | Memory _ -> ()
  | File st ->
      with_lock ~cls:"pager-latch" st.latch (fun () ->
          match Hashtbl.find_opt st.cache idx with
          | Some entry -> entry.dirty <- true
          | None -> ())

(* Serialized snapshots of every dirty page, taken under the latch.
   These exact images are what the barrier logs and what the write
   phase puts on disk, so the logged redo image always matches the
   heap write it protects. *)
let dirty_images st =
  with_lock ~cls:"pager-latch" st.latch (fun () ->
      Hashtbl.fold
        (fun idx entry acc ->
          if entry.dirty then (idx, Page.serialize entry.page) :: acc else acc)
        st.cache [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let flush t =
  match t.backing with
  | Memory _ -> ()
  | File st ->
      let images = dirty_images st in
      (* the barrier runs with no latch held: it appends to the WAL
         and fsyncs, which must not block cache reads *)
      (match st.barrier with
      | Some log when images <> [] -> log images
      | _ -> ());
      with_lock ~cls:"pager-latch" st.latch (fun () ->
          List.iter
            (fun (idx, image) ->
              write_image_at st t.psize idx image;
              match Hashtbl.find_opt st.cache idx with
              | Some entry -> entry.dirty <- false
              | None -> ())
            images;
          with_lock ~cls:"pager-io" st.io (fun () ->
              write_header st.fd t.psize st.npages))

let sync t =
  match t.backing with
  | Memory _ -> ()
  | File st ->
      with_lock ~cls:"pager-io" st.io (fun () ->
          Store_io.fsync st.fd;
          Obs.Registry.inc obs_fsyncs)

let set_write_barrier t barrier =
  match t.backing with
  | Memory _ -> ()
  | File st -> st.barrier <- barrier

let install_page t idx image =
  match t.backing with
  | Memory _ -> invalid_arg "Pager.install_page: memory backing"
  | File st ->
      if Bytes.length image <> t.psize then
        invalid_arg "Pager.install_page: image size mismatch";
      (match Page.deserialize image with
      | Ok _ -> ()
      | Error msg ->
          failwith (Printf.sprintf "Pager: redo image for page %d corrupt: %s" idx msg));
      with_lock ~cls:"pager-latch" st.latch (fun () ->
          if idx >= st.npages then st.npages <- idx + 1;
          Hashtbl.remove st.cache idx;
          write_image_at st t.psize idx image)

let close t =
  match t.backing with
  | Memory _ -> ()
  | File st ->
      flush t;
      sync t;
      Unix.close st.fd

let abort t =
  match t.backing with
  | Memory _ -> ()
  | File st -> ( try Unix.close st.fd with Unix.Unix_error _ -> ())

let data_bytes t = page_count t * t.psize

let cache_stats t =
  match t.backing with
  | Memory _ -> { hits = 0; misses = 0; evictions = 0 }
  | File st ->
      with_lock ~cls:"pager-latch" st.latch (fun () ->
          { hits = st.hits; misses = st.misses; evictions = st.evictions })
