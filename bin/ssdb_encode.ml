(* CLI: the paper's MySQLEncode — encode a plaintext XML document into
   a server-side database file of polynomial shares.

   As in §5.1, the encoder takes a map file, a seed file and the XML
   document; both secret files can be created on the fly.  Only the
   encoder takes the field (-p, -e); the map and the manifests record it. *)

open Cmdliner

module Mapping = Secshare_core.Mapping
module Encode = Secshare_core.Encode
module Seed = Secshare_prg.Seed
module Ring = Secshare_poly.Ring
module Node_table = Secshare_store.Node_table
module Manifest = Secshare_shard.Manifest

let err = Cli.err
let usage_err = Cli.usage_err

(* The seed and the map are made in memory; [run] writes a fresh one
   only once the encode has succeeded, so a refused document leaves no
   secret file behind.  [true] marks a fresh one. *)
let load_or_create_seed path =
  if Sys.file_exists path then Result.map (fun seed -> (seed, false)) (Seed.load path)
  else Result.map (fun seed -> (seed, true)) (Seed.generate ())

let load_or_create_mapping path ~q ~trie xml_path =
  if Sys.file_exists path then
    Result.bind (Mapping.load path) (fun m ->
        let q' = Mapping.field_order m in
        if q' = q then Ok (m, false)
        else Error (Printf.sprintf "%s has q = %d, not p^e = %d" path q' q))
  else begin
    match In_channel.with_open_bin xml_path In_channel.input_all with
    | exception Sys_error m -> Error m
    | contents -> (
        match Secshare_xml.Tree.of_string contents with
        | Error m -> Error m
        | Ok tree ->
            let base = Mapping.of_tree ~q tree in
            let with_alpha =
              match (base, trie) with
              | Ok m, Some _ -> Mapping.with_trie_alphabet m
              | other, _ -> other
            in
            Result.map (fun m -> (m, true)) with_alpha)
  end

(* Encode the document at [xml_path] into fresh in-memory tables (the
   shares and the numeric column).  Nothing is written yet: both output
   shapes create their files only once the document has been encoded,
   so a refused document leaves every existing output as it was. *)
let encode_file ring ~mapping ~seed ~trie ~agg_scale xml_path =
  match open_in_bin xml_path with
  | exception Sys_error m -> Error (Encode.Xml_error m)
  | ic ->
      let table = Node_table.create () and numbers = Node_table.create () in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Encode.encode_channel ring ~mapping ~seed ~table ~numbers ~agg_scale ?trie ic
          |> Result.map (fun stats -> (stats, table, numbers)))

let encode_single ~ring ~mapping ~seed ~trie ~agg_scale ~db_path ~durable
    ~checkpoint_every xml_path =
  match encode_file ring ~mapping ~seed ~trie ~agg_scale xml_path with
  | Error e -> err "encoding failed: %s" (Encode.error_to_string e)
  | Ok (stats, source, num_source) ->
      List.iter
        (fun (table, path) ->
          let file = Node_table.create_file ~durable ?checkpoint_every path in
          Node_table.iter table ~f:(Node_table.insert file);
          Node_table.close file)
        [ (source, db_path); (num_source, Cli.nums_path db_path) ];
      Manifest.save (Manifest.manifest_path db_path)
        (Manifest.of_info
           (Secshare_rpc.Protocol.single_server ~p:ring.Ring.characteristic
              ~e:ring.Ring.degree ~rows:(Node_table.row_count source)));
      Printf.printf
        "encoded %d nodes (%d elements, %d trie nodes, %d numeric) in %.2f s\n\
         database: %s (%d data bytes, + .manifest), numeric column: %s\n"
        stats.Encode.nodes stats.Encode.elements stats.Encode.trie_nodes
        stats.Encode.numeric_nodes stats.Encode.duration_seconds db_path
        (Node_table.data_bytes source) (Cli.nums_path db_path);
      `Ok 0

(* Sharded output: deal every server share of the encoded table into n
   Shamir shard tables (threshold t) with a fresh dealer seed that is
   deliberately NOT persisted — holding it would let anyone collapse
   the t-of-n masking back to the single-server share.  The numeric
   column is dealt with the same (discarded) seed into one
   X.shardI.nums file per shard. *)
let encode_sharded ~ring ~mapping ~seed ~trie ~agg_scale ~db_path ~durable
    ~checkpoint_every ~shards ~threshold xml_path =
  match encode_file ring ~mapping ~seed ~trie ~agg_scale xml_path with
  | Error e -> err "encoding failed: %s" (Encode.error_to_string e)
  | Ok (stats, source, num_source) -> (
      match Seed.generate () with
      | Error m -> err "dealer seed: %s" m
      | Ok dealer_seed -> (
          let shard_db i = Manifest.shard_db_path db_path (i + 1) in
          let sinks =
            Array.init shards (fun i ->
                Node_table.create_file ~durable ?checkpoint_every (shard_db i))
          in
          let num_sinks =
            Array.init shards (fun i ->
                Node_table.create_file ~durable ?checkpoint_every
                  (Cli.nums_path (shard_db i)))
          in
          let close_all () =
            Array.iter Node_table.close sinks;
            Array.iter Node_table.close num_sinks
          in
          match
            let manifests =
              Secshare_shard.Split.split_table ring ~threshold ~shards ~dealer_seed
                ~source ~sinks
            in
            Secshare_shard.Split.split_numbers ~threshold ~shards ~dealer_seed
              ~source:num_source ~sinks:num_sinks;
            manifests
          with
          | exception Invalid_argument m ->
              close_all ();
              err "sharding failed: %s" m
          | manifests ->
              Array.iteri
                (fun i manifest ->
                  Manifest.save (Manifest.manifest_path (shard_db i)) manifest)
                manifests;
              close_all ();
              Printf.printf
                "encoded %d nodes (%d elements, %d trie nodes, %d numeric) in %.2f s\n\
                 sharded %d-of-%d: %s.shard1..%d (+ .manifest, .nums each)\n"
                stats.Encode.nodes stats.Encode.elements stats.Encode.trie_nodes
                stats.Encode.numeric_nodes stats.Encode.duration_seconds threshold shards
                db_path shards;
              `Ok 0))

let run xml_path map_path seed_path db_path ring trie_mode durable checkpoint_every
    shards threshold agg_scale =
  let trie =
    match trie_mode with
    | "none" -> Ok None
    | "compressed" -> Ok (Some Secshare_trie.Expand.Compressed)
    | "uncompressed" -> Ok (Some Secshare_trie.Expand.Uncompressed)
    | other -> Error other
  in
  match trie with
  | Error other -> usage_err "unknown --trie mode %S (none|compressed|uncompressed)" other
  | Ok _ when shards < 1 -> usage_err "--shards must be >= 1"
  | Ok _ when threshold < 1 || threshold > shards ->
      usage_err "--threshold %d outside [1, %d]" threshold shards
  | Ok _ when shards >= ring.Ring.order ->
      usage_err
        "--shards %d needs %d distinct nonzero x-coordinates but the field has only %d"
        shards shards ring.Ring.n
  | Ok _ when agg_scale < 0 || agg_scale > Mapping.max_agg_scale ->
      usage_err "--agg-scale %d outside [0, %d]" agg_scale Mapping.max_agg_scale
  | Ok trie -> (
      match load_or_create_seed seed_path with
      | Error m -> err "seed: %s" m
      | Ok (seed, fresh_seed) -> (
          match load_or_create_mapping map_path ~q:ring.Ring.order ~trie xml_path with
          | Error m -> err "map: %s" m
          | Ok (mapping, fresh_map) ->
              let status =
                if shards > 1 then
                  encode_sharded ~ring ~mapping ~seed ~trie ~agg_scale ~db_path ~durable
                    ~checkpoint_every ~shards ~threshold xml_path
                else
                  encode_single ~ring ~mapping ~seed ~trie ~agg_scale ~db_path ~durable
                    ~checkpoint_every xml_path
              in
              if status = `Ok 0 then begin
                if fresh_seed then begin
                  Seed.save seed_path seed;
                  Printf.eprintf "wrote fresh seed to %s\n" seed_path
                end;
                (* the encoder learned which tags are aggregatable; the
                   client needs those flags, so the map is saved even
                   when it was loaded *)
                Mapping.save map_path mapping;
                if fresh_map then
                  Printf.eprintf "wrote map file (%d names) to %s\n" (Mapping.size mapping)
                    map_path
              end;
              status))

let xml_path =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"XML" ~doc:"Input XML document.")

let p_arg =
  Arg.(value & opt int 83 & info [ "p" ] ~docv:"P" ~doc:"Field characteristic (prime).")

let e_arg =
  Arg.(
    value & opt int 1
    & info [ "e" ] ~docv:"E" ~doc:"Field extension degree; p^e must be at most 2^20.")

(* [-p] and [-e], admitted by [Ring.checked] while the command line is
   evaluated: a refused pair is a command-line error before [run]
   touches anything. *)
let ring = Term.(term_result' (const (fun p e -> Ring.checked ~p ~e) $ p_arg $ e_arg))

let db_path =
  Arg.(
    value & opt string "secshare.db"
    & info [ "o"; "db" ] ~docv:"FILE" ~doc:"Output database (server share) file.")

let trie_arg =
  Arg.(
    value & opt string "none"
    & info [ "trie" ] ~docv:"MODE" ~doc:"Text handling: none, compressed or uncompressed.")

let durable_arg =
  Cli.durable ~doc:"Write every row through a write-ahead log (crash-safe encoding)."

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With $(b,--durable): checkpoint the write-ahead log every $(docv) inserts, \
           bounding log growth and recovery time.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Split the output into $(docv) Shamir shard databases \
           ($(b,FILE.shard1)..$(b,FILE.shardN), each with a $(b,.manifest)) instead \
           of one file.  Serve each with ssdb_server and front them with \
           ssdb_router.")

let threshold_arg =
  Arg.(
    value & opt int 1
    & info [ "t"; "threshold" ] ~docv:"T"
        ~doc:
          "With $(b,--shards): any $(docv) shards reconstruct every share (and \
           $(docv)-1 learn nothing); up to N-$(docv) shards may be down without \
           losing answers.")

let agg_scale_arg =
  Arg.(
    value
    & opt int Secshare_core.Numeric.default_scale
    & info [ "agg-scale" ] ~docv:"DIGITS"
        ~doc:
          "Fixed-point fractional digits for the numeric share column backing \
           $(b,sum())/$(b,avg()) queries.  Tags whose every occurrence is a numeric \
           leaf are flagged aggregatable in the map file.")

let cmd =
  let doc = "encode an XML document into an encrypted share database" in
  Cmd.v (Cmd.info "ssdb_encode" ~doc)
    Term.(
      ret
        (const run $ xml_path
        $ Cli.map_path ~doc:"Map file (created from the document if missing)."
        $ Cli.seed_path ~doc:"Seed file (generated if missing); keep it secret."
        $ db_path $ ring $ trie_arg
       $ durable_arg $ checkpoint_every_arg $ shards_arg $ threshold_arg
       $ agg_scale_arg))

let () = exit (Cmd.eval' cmd)
