module Wire = Secshare_rpc.Wire
module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Server = Secshare_rpc.Server

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- wire primitives --- *)

let test_wire_roundtrip () =
  let w = Wire.writer () in
  Wire.write_u8 w 200;
  Wire.write_u32 w 0;
  Wire.write_u32 w 0xFFFFFFFF;
  Wire.write_i64 w (-42);
  Wire.write_string w "hello";
  Wire.write_bytes w (Bytes.of_string "\x00\xff");
  Wire.write_list w (Wire.write_u32 w) [ 1; 2; 3 ];
  let r = Wire.reader (Wire.contents w) in
  check Alcotest.int "u8" 200 (Wire.read_u8 r);
  check Alcotest.int "u32 zero" 0 (Wire.read_u32 r);
  check Alcotest.int "u32 max" 0xFFFFFFFF (Wire.read_u32 r);
  check Alcotest.int "i64" (-42) (Wire.read_i64 r);
  check Alcotest.string "string" "hello" (Wire.read_string r);
  check Alcotest.string "bytes" "\x00\xff" (Bytes.to_string (Wire.read_bytes r));
  check Alcotest.(list int) "list" [ 1; 2; 3 ] (Wire.read_list r (fun () -> Wire.read_u32 r));
  Wire.expect_end r

let test_wire_errors () =
  let r = Wire.reader "\x01" in
  ignore (Wire.read_u8 r);
  Alcotest.check_raises "underflow" (Wire.Decode_error "need 4 bytes at offset 1, have 1")
    (fun () -> ignore (Wire.read_u32 r));
  let w = Wire.writer () in
  Wire.write_u8 w 7;
  Wire.write_u8 w 8;
  let r = Wire.reader (Wire.contents w) in
  ignore (Wire.read_u8 r);
  (match Wire.expect_end r with
  | exception Wire.Decode_error _ -> ()
  | () -> Alcotest.fail "trailing bytes accepted");
  Alcotest.check_raises "u32 range" (Invalid_argument "Wire.write_u32: -1 out of range")
    (fun () -> Wire.write_u32 (Wire.writer ()) (-1))

(* --- protocol codec --- *)

let gen_meta =
  QCheck2.Gen.(
    let* pre = int_range 0 1000000 in
    let* post = int_range 0 1000000 in
    let* parent = int_range 0 1000000 in
    return { Protocol.pre; post; parent })

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.Root;
        map (fun p -> Protocol.Children p) (int_range 0 100000);
        map (fun p -> Protocol.Parent p) (int_range 0 100000);
        map (fun c -> Protocol.Cursor_close c) (int_range 0 1000);
        map (fun (ps, x) -> Protocol.Eval_batch { pres = ps; point = x })
          (pair (list_size (int_range 0 20) (int_range 0 100000)) (int_range 1 82));
        map (fun ps -> Protocol.Shares ps) (list_size (int_range 0 20) (int_range 0 100000));
        map
          (fun (ps, (xs, m)) ->
            Protocol.Scan_eval
              { target = Protocol.Children_of ps; points = xs; max_items = m })
          (pair
             (list_size (int_range 0 10) (int_range 0 100000))
             (pair (list_size (int_range 0 5) (int_range 1 82)) (int_range 1 100)));
        map
          (fun (rs, (xs, m)) ->
            Protocol.Scan_eval
              { target = Protocol.Pre_ranges rs; points = xs; max_items = m })
          (pair
             (list_size (int_range 0 10) (pair (int_range 0 100000) (int_range 0 100000)))
             (pair (list_size (int_range 0 5) (int_range 1 82)) (int_range 1 100)));
        map
          (fun (rs, (xs, m)) ->
            Protocol.Scan_eval
              { target = Protocol.Bounded_pre_ranges rs; points = xs; max_items = m })
          (pair
             (list_size (int_range 0 10)
                (triple (int_range 0 100000) (int_range 0 100000) (int_range 0 100000)))
             (pair (list_size (int_range 0 5) (int_range 1 82)) (int_range 1 100)));
        map (fun (c, m) -> Protocol.Scan_next { cursor = c; max_items = m })
          (pair (int_range 0 1000) (int_range 1 100));
        return Protocol.Manifest;
        map (fun ps -> Protocol.Agg_eval { pres = ps })
          (list_size (int_range 0 20) (int_range 0 100000));
      ])

let gen_bytes = QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 50)))

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Pong;
        return (Protocol.Node_opt None);
        map (fun m -> Protocol.Node_opt (Some m)) gen_meta;
        map (fun ms -> Protocol.Nodes ms) (list_size (int_range 0 20) gen_meta);
        map (fun vs -> Protocol.Values vs) (list_size (int_range 0 30) (int_range 0 100000));
        map (fun bs -> Protocol.Shares_data bs) (list_size (int_range 0 10) gen_bytes);
        map (fun s -> Protocol.Error_msg s) (string_size (int_range 0 40));
        map
          (fun (rows, c) -> Protocol.Scan_batch { rows; cursor = c })
          (pair
             (list_size (int_range 0 10)
                (pair gen_meta (list_size (int_range 0 5) (int_range 0 100000))))
          @@ map (fun c -> if c = 0 then None else Some c) (int_range 0 1000));
        map
          (fun ((id, (n, t)), (rows, bounds)) ->
            Protocol.Manifest_data
              { shard_id = id; shards = n; threshold = t; total_rows = rows; bounds })
          (pair
             (pair (int_range 0 8) (pair (int_range 1 8) (int_range 1 8)))
             (pair (int_range 0 100000) (list_size (int_range 1 8) (int_range 1 100000))));
        map
          (fun (count, sum) -> Protocol.Agg_partial { count; sum })
          (pair (int_range 0 100000) (int_range 0 ((1 lsl 61) - 2)));
      ])

let protocol_codec_suite =
  [
    qtest "request roundtrip" gen_request (fun req ->
        Protocol.decode_request (Protocol.encode_request req) = req);
    qtest "response roundtrip" gen_response (fun resp ->
        Protocol.decode_response (Protocol.encode_response resp) = resp);
  ]

let fuzz_suite =
  let gen_garbage = QCheck2.Gen.(string_size (int_range 0 64)) in
  [
    qtest ~count:500 "decode_request never crashes" gen_garbage (fun s ->
        match Protocol.decode_request s with
        | _ -> true
        | exception Wire.Decode_error _ -> true);
    qtest ~count:500 "decode_response never crashes" gen_garbage (fun s ->
        match Protocol.decode_response s with
        | _ -> true
        | exception Wire.Decode_error _ -> true);
    qtest ~count:200 "bit-flipped requests decode or fail cleanly"
      QCheck2.Gen.(pair gen_request (pair (int_range 0 1000) (int_range 0 7)))
      (fun (req, (pos, bit)) ->
        let encoded = Bytes.of_string (Protocol.encode_request req) in
        if Bytes.length encoded = 0 then true
        else begin
          let pos = pos mod Bytes.length encoded in
          Bytes.set_uint8 encoded pos (Bytes.get_uint8 encoded pos lxor (1 lsl bit));
          match Protocol.decode_request (Bytes.to_string encoded) with
          | _ -> true
          | exception Wire.Decode_error _ -> true
        end);
  ]

let test_decode_garbage () =
  (match Protocol.decode_request "\xFF" with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "bad tag accepted");
  (match Protocol.decode_request "" with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  match Protocol.decode_response (Protocol.encode_response Protocol.Pong ^ "x") with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* Byte-exact encodings of one fixed instance of every constructor,
   so no tag number or field layout can drift silently. *)
let pinned_requests =
  let open Protocol in
  [
    (Ping, "00");
    (Root, "01");
    (Children 17, "0211000000");
    (Parent 18, "0312000000");
    (Cursor_close 9, "0609000000");
    (Eval_batch { pres = [ 1; 2; 70000 ]; point = 82 }, "080300000001000000020000007011010052000000");
    (Shares [ 4; 5 ], "0a020000000400000005000000");
    ( Scan_eval { target = Children_of [ 1; 9 ]; points = [ 5; 17 ]; max_items = 256 },
      "0c0002000000010000000900000002000000050000001100000000010000" );
    ( Scan_eval { target = Pre_ranges [ (2, 40); (50, 60) ]; points = []; max_items = 64 },
      "0c01020000000200000028000000320000003c0000000000000040000000" );
    ( Scan_eval { target = Bounded_pre_ranges [ (2, 30, 40) ]; points = [ 42 ]; max_items = 1 },
      "0c0201000000020000001e00000028000000010000002a00000001000000" );
    (Scan_next { cursor = 11; max_items = 256 }, "0d0b00000000010000");
    (Manifest, "0e");
    (Agg_eval { pres = [ 8; 0xFFFFFFFF ] }, "0f0200000008000000ffffffff");
  ]

let pinned_responses =
  let open Protocol in
  let meta = { pre = 7; post = 300; parent = 1 } in
  [
    (Pong, "00");
    (Node_opt None, "01");
    (Node_opt (Some meta), "02070000002c01000001000000");
    (Nodes [ meta; meta ], "0302000000070000002c01000001000000070000002c01000001000000");
    (Values [ 0; 82 ], "07020000000000000052000000");
    (Shares_data [ Bytes.empty; Bytes.of_string "z" ], "090200000000000000010000007a");
    (Error_msg "unknown cursor 3", "0b10000000756e6b6e6f776e20637572736f722033");
    ( Scan_batch { rows = [ (meta, [ 1; 2 ]) ]; cursor = Some 5 },
      "0c01000000070000002c010000010000000200000001000000020000000105000000" );
    (Scan_batch { rows = []; cursor = None }, "0c0000000000");
    ( Manifest_data { shard_id = 2; shards = 3; threshold = 2; total_rows = 100; bounds = [ 1; 50 ] },
      "0d02000000030000000200000064000000020000000100000032000000" );
    (Agg_partial { count = 3; sum = (1 lsl 61) - 2 }, "0e03000000feffffffffffff1f");
  ]

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_pinned_encodings () =
  List.iter
    (fun (req, expected) ->
      let name = Format.asprintf "%a" Protocol.pp_request req in
      check Alcotest.string name expected (hex (Protocol.encode_request req));
      check Alcotest.bool (name ^ " decodes back") true
        (Protocol.decode_request (Protocol.encode_request req) = req))
    pinned_requests;
  List.iter
    (fun (resp, expected) ->
      let name = Format.asprintf "%a" Protocol.pp_response resp in
      check Alcotest.string name expected (hex (Protocol.encode_response resp));
      check Alcotest.bool (name ^ " decodes back") true
        (Protocol.decode_response (Protocol.encode_response resp) = resp))
    pinned_responses

(* Tags 4 and 5 belonged to a retired subtree cursor.  Frames carrying
   them, with the payloads they used to have, must be rejected by both
   decoders. *)
let retired_frames = [ "\x04\x01\x00\x00\x00\x09\x00\x00\x00"; "\x05\x01\x00\x00\x00\x40\x00\x00\x00"; "\x04"; "\x05" ]

(* Request tag 9 / response tag 8 belonged to the retired single-share
   fetch ([Share]/[Share_data]), request tag 7 / response tag 6 to the
   retired single-node evaluation ([Eval]/[Value], now a one-row
   [Eval_batch]), and request tag 11 / response tag 10 to the retired
   table-stats probe ([Table_stats]/[Stats]), each in the encoding it
   used to have.  The other direction's tags 6 to 11 are live. *)
let retired_requests =
  retired_frames
  @ [ "\x09\x03\x00\x00\x00"; "\x07\x2a\x00\x00\x00\x05\x00\x00\x00"; "\x0b" ]

let retired_responses =
  retired_frames
  @ [
      "\x08\x04\x00\x00\x00\x00\xff\x61\x62";
      "\x06\x51\x00\x00\x00";
      "\x0a\x0c\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00";
    ]

let test_retired_tags_rejected () =
  let cursor_batch = "\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00" in
  List.iter
    (fun frame ->
      match Protocol.decode_request frame with
      | exception Wire.Decode_error _ -> ()
      | r -> Alcotest.failf "retired request tag decoded as %a" Protocol.pp_request r)
    (cursor_batch :: retired_requests);
  List.iter
    (fun frame ->
      match Protocol.decode_response frame with
      | exception Wire.Decode_error _ -> ()
      | r -> Alcotest.failf "retired response tag decoded as %a" Protocol.pp_response r)
    (cursor_batch :: retired_responses)

(* --- structure-aware fuzzing ---

   Start from valid encodings and damage them the ways a real stream
   does: a flipped bit, a cut-short frame, a stray byte, a neighbouring
   opcode.  Decoding must either produce a value that round-trips or
   raise [Wire.Decode_error]; and whatever decodes must get a reply
   from the serving handlers, never an exception. *)

type mutation =
  | Keep
  | Flip of int * int  (** byte position, bit *)
  | Truncate of int
  | Insert of int * int  (** position, byte *)
  | Swap_tag of int  (** replace the leading opcode *)

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        return Keep;
        map2 (fun pos bit -> Flip (pos, bit)) (int_range 0 1000) (int_range 0 7);
        map (fun n -> Truncate n) (int_range 0 1000);
        map2 (fun pos b -> Insert (pos, b)) (int_range 0 1000) (int_range 0 255);
        map (fun tag -> Swap_tag tag) (int_range 0 17);
      ])

let mutate s = function
  | Keep -> s
  | _ when s = "" -> s
  | Flip (pos, bit) ->
      let b = Bytes.of_string s in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
      Bytes.to_string b
  | Truncate n -> String.sub s 0 (n mod String.length s)
  | Insert (pos, byte) ->
      let pos = pos mod (String.length s + 1) in
      String.sub s 0 pos ^ String.make 1 (Char.chr byte)
      ^ String.sub s pos (String.length s - pos)
  | Swap_tag tag -> String.make 1 (Char.chr tag) ^ String.sub s 1 (String.length s - 1)

let decodes_cleanly decode encode s =
  match decode s with
  | v -> decode (encode v) = v
  | exception Wire.Decode_error _ -> true

(* A small document served two ways: one server filter, and a 2-of-3
   router over three dealt shards. *)
let fuzz_handlers =
  lazy
    (let module DB = Secshare_core.Database in
     let module Server_filter = Secshare_core.Server_filter in
     let ring = Secshare_poly.Ring.of_prime ~p:83 in
     let db = Test_support.db_of_tree (Secshare_xmark.Generate.generate ~factor:0.02 ()) in
     let tables = Array.init 3 (fun _ -> Secshare_store.Node_table.create ()) in
     let manifests =
       Secshare_shard.Split.split_table ring ~threshold:2 ~shards:3
         ~dealer_seed:Test_support.test_seed ~source:(DB.table db) ~sinks:tables
     in
     let shards =
       List.init 3 (fun i ->
           let filter =
             Server_filter.create
               ~manifest:(Secshare_shard.Manifest.to_info manifests.(i))
               ring tables.(i)
           in
           Transport.local ~handler:(Server_filter.handler filter))
     in
     let router =
       match Secshare_shard.Router.of_transports ring shards with
       | Ok r -> r
       | Error e -> failwith e
     in
     [
       ("server", Server_filter.handler (Server_filter.create ring (DB.table db)));
       ("router", Secshare_shard.Router.handler router);
     ])

let structured_fuzz_suite =
  [
    qtest ~count:1000 "mutated requests decode or fail cleanly"
      QCheck2.Gen.(pair gen_request gen_mutation)
      (fun (req, m) ->
        decodes_cleanly Protocol.decode_request Protocol.encode_request
          (mutate (Protocol.encode_request req) m));
    qtest ~count:1000 "mutated responses decode or fail cleanly"
      QCheck2.Gen.(pair gen_response gen_mutation)
      (fun (resp, m) ->
        decodes_cleanly Protocol.decode_response Protocol.encode_response
          (mutate (Protocol.encode_response resp) m));
    qtest ~count:300 "handlers answer every decodable mutated request"
      QCheck2.Gen.(pair gen_request gen_mutation)
      (fun (req, m) ->
        match Protocol.decode_request (mutate (Protocol.encode_request req) m) with
        | exception Wire.Decode_error _ -> true
        | req ->
            List.for_all
              (fun (_, handler) ->
                (* the reply must also survive the codec *)
                ignore (Protocol.encode_response (handler req));
                true)
              (Lazy.force fuzz_handlers));
  ]

(* --- transports --- *)

(* A tiny handler: Eval_batch returns pre + point for each pre,
   Children returns one fake node, everything else pongs. *)
let toy_handler : Protocol.request -> Protocol.response = function
  | Protocol.Eval_batch { pres; point } ->
      Protocol.Values (List.map (fun pre -> pre + point) pres)
  | Protocol.Children parent ->
      Protocol.Nodes [ { Protocol.pre = parent + 1; post = parent + 2; parent } ]
  | _ -> Protocol.Pong

(* A one-row [Eval_batch]: the toy handler answers [Values [ pre + point ]]. *)
let one_eval pre point = Protocol.Eval_batch { pres = [ pre ]; point }

let test_local_transport () =
  let t = Transport.local ~handler:toy_handler in
  (match Transport.call t (one_eval 40 2) with
  | Protocol.Values [ 42 ] -> ()
  | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Protocol.pp_response r));
  let counters = Transport.counters t in
  check Alcotest.int "calls" 1 counters.Transport.calls;
  check Alcotest.bool "bytes counted" true (counters.Transport.bytes_sent > 0);
  Transport.reset_counters t;
  check Alcotest.int "reset" 0 (Transport.counters t).Transport.calls

let test_socket_transport () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Transport.socket path with
      | Error e -> Alcotest.fail e
      | Ok t ->
          for i = 0 to 20 do
            match Transport.call t (one_eval i 1) with
            | Protocol.Values [ v ] -> check Alcotest.int "value" (i + 1) v
            | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Protocol.pp_response r)
          done;
          (match Transport.call t (Protocol.Children 7) with
          | Protocol.Nodes [ meta ] -> check Alcotest.int "child pre" 8 meta.Protocol.pre
          | _ -> Alcotest.fail "children failed");
          let counters = Transport.counters t in
          check Alcotest.int "calls" 22 counters.Transport.calls;
          Transport.close t)

let test_socket_multiple_clients () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let clients =
        List.init 4 (fun _ ->
            match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e)
      in
      List.iteri
        (fun i t ->
          match Transport.call t (one_eval (100 * i) 5) with
          | Protocol.Values [ v ] -> check Alcotest.int "value" ((100 * i) + 5) v
          | _ -> Alcotest.fail "call failed")
        clients;
      List.iter Transport.close clients)

let test_socket_connect_failure () =
  match Transport.socket "/nonexistent/never/here.sock" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connected to nothing"

let test_server_survives_handler_exception () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let handler = function
    | Protocol.Ping -> failwith "boom"
    | r -> toy_handler r
  in
  let server = Server.start ~path ~handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Transport.socket path with
      | Error e -> Alcotest.fail e
      | Ok t ->
          (match Transport.call t Protocol.Ping with
          | Protocol.Error_msg _ -> ()
          | _ -> Alcotest.fail "expected handler error");
          (* connection must still work *)
          (match Transport.call t (one_eval 1 1) with
          | Protocol.Values [ 2 ] -> ()
          | _ -> Alcotest.fail "connection broken after handler error");
          Transport.close t)

let test_retired_tag_over_socket () =
  (* a peer still speaking the retired tags gets a codec error back,
     and the connection keeps serving *)
  let module Frame = Secshare_rpc.Frame in
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let deadline () = Unix.gettimeofday () +. 5.0 in
          let roundtrip payload =
            Frame.send ~deadline:(deadline ()) fd payload;
            Protocol.decode_response (Frame.recv ~deadline:(deadline ()) fd)
          in
          List.iter
            (fun frame ->
              match roundtrip frame with
              | Protocol.Error_msg msg ->
                  check Alcotest.bool ("codec error: " ^ msg) true
                    (String.length msg >= 6 && String.sub msg 0 6 = "codec:")
              | r -> Alcotest.failf "retired tag answered with %a" Protocol.pp_response r)
            retired_requests;
          match roundtrip (Protocol.encode_request (one_eval 40 2)) with
          | Protocol.Values [ 42 ] -> ()
          | r -> Alcotest.failf "connection broken: %a" Protocol.pp_response r))

(* --- resilience: deadlines, retry, reconnect, drain --- *)

module Flaky = Test_support.Flaky

let fast_policy =
  {
    Transport.call_timeout = Some 1.0;
    max_retries = 2;
    backoff_base = 0.02;
    backoff_max = 0.1;
    backoff_jitter = 0.5;
  }

let with_flaky ?handler plan f =
  let path = Filename.temp_file "ssdb-flaky" ".sock" in
  Sys.remove path;
  let flaky = Flaky.start ?handler ~plan path in
  Fun.protect ~finally:(fun () -> Flaky.stop flaky) (fun () -> f flaky path)

let must_connect ?policy path =
  match Transport.socket ?policy path with
  | Ok t -> t
  | Error e -> Alcotest.fail ("connect: " ^ e)

let test_call_timeout_bounded () =
  (* a stalled server must not hang the client: the call fails within
     the configured deadline *)
  with_flaky
    (fun n -> if n = 1 then Some (Flaky.Stall 1.5) else None)
    (fun _flaky path ->
      let t =
        must_connect
          ~policy:{ fast_policy with Transport.call_timeout = Some 0.25; max_retries = 0 }
          path
      in
      let t0 = Unix.gettimeofday () in
      (match Transport.call t Protocol.Ping with
      | Protocol.Error_msg msg ->
          check Alcotest.bool ("timeout surfaced: " ^ msg) true
            (String.length msg >= 7)
      | r -> Alcotest.failf "expected timeout, got %a" Protocol.pp_response r);
      let elapsed = Unix.gettimeofday () -. t0 in
      check Alcotest.bool "bounded by deadline" true (elapsed < 1.0);
      check Alcotest.int "timeout counted" 1 (Transport.counters t).Transport.timeouts;
      Transport.close t)

let test_retry_reconnects () =
  (* server drops the connection on the first call: an idempotent
     request recovers transparently on a fresh connection *)
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Close_before_reply else None)
    (fun _flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t (one_eval 40 2) with
      | Protocol.Values [ 42 ] -> ()
      | r -> Alcotest.failf "expected recovery, got %a" Protocol.pp_response r);
      let counters = Transport.counters t in
      check Alcotest.int "one retry" 1 counters.Transport.retries;
      check Alcotest.int "one reconnect" 1 counters.Transport.reconnects;
      Transport.close t)

let test_truncated_reply_recovers () =
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Truncate_reply else None)
    (fun _flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t (one_eval 1 1) with
      | Protocol.Values [ 2 ] -> ()
      | r -> Alcotest.failf "expected recovery, got %a" Protocol.pp_response r);
      check Alcotest.bool "reconnected" true
        ((Transport.counters t).Transport.reconnects >= 1);
      Transport.close t)

let test_scan_next_never_retried () =
  (* Scan_next is not idempotent (a resend could skip a batch): the
     failure must surface instead of being retried *)
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Close_before_reply else None)
    (fun flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t (Protocol.Scan_next { cursor = 1; max_items = 4 }) with
      | Protocol.Error_msg _ -> ()
      | r -> Alcotest.failf "expected failure, got %a" Protocol.pp_response r);
      check Alcotest.int "no retries" 0 (Transport.counters t).Transport.retries;
      check Alcotest.int "server saw exactly one call" 1 (Flaky.calls flaky);
      Transport.close t)

let test_protocol_error_not_retried () =
  (* an undecodable reply from a live peer — garbage, or a retired
     response tag — is a protocol error: no retry, and the connection
     stays usable *)
  let replies = Array.of_list ("\xde\xad\xbe\xef" :: retired_responses) in
  let n_bad = Array.length replies in
  with_flaky ~handler:toy_handler
    (fun n -> if n <= n_bad then Some (Flaky.Garbage_reply replies.(n - 1)) else None)
    (fun _flaky path ->
      let t = must_connect ~policy:fast_policy path in
      Array.iter
        (fun _ ->
          match Transport.call t Protocol.Ping with
          | Protocol.Error_msg msg ->
              check Alcotest.bool ("codec error: " ^ msg) true
                (String.length msg >= 6 && String.sub msg 0 6 = "codec:")
          | r -> Alcotest.failf "expected codec error, got %a" Protocol.pp_response r)
        replies;
      check Alcotest.int "no retries" 0 (Transport.counters t).Transport.retries;
      (match Transport.call t (one_eval 1 1) with
      | Protocol.Values [ 2 ] -> ()
      | r -> Alcotest.failf "connection broken: %a" Protocol.pp_response r);
      check Alcotest.int "no reconnect" 0 (Transport.counters t).Transport.reconnects;
      Transport.close t)

let test_server_restart_recovery () =
  (* the acceptance scenario: kill the server between calls, restart
     it on the same path; the client recovers via retry + reconnect *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  let t =
    must_connect
      ~policy:{ fast_policy with Transport.max_retries = 5; call_timeout = Some 1.0 }
      path
  in
  (match Transport.call t (one_eval 1 1) with
  | Protocol.Values [ 2 ] -> ()
  | r -> Alcotest.failf "before restart: %a" Protocol.pp_response r);
  Server.stop server;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      (match Transport.call t (one_eval 40 2) with
      | Protocol.Values [ 42 ] -> ()
      | r -> Alcotest.failf "after restart: %a" Protocol.pp_response r);
      check Alcotest.bool "reconnected" true
        ((Transport.counters t).Transport.reconnects >= 1);
      Transport.close t)

let test_stopped_server_fails_fast () =
  (* with the server gone for good, the client must fail within the
     deadline/backoff budget — never hang *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  let t = must_connect ~policy:fast_policy path in
  (match Transport.call t Protocol.Ping with
  | Protocol.Pong -> ()
  | r -> Alcotest.failf "ping failed: %a" Protocol.pp_response r);
  Server.stop server;
  let t0 = Unix.gettimeofday () in
  (match Transport.call t (one_eval 1 1) with
  | Protocol.Error_msg _ -> ()
  | r -> Alcotest.failf "expected failure, got %a" Protocol.pp_response r);
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "failed fast" true (elapsed < 4.0);
  Transport.close t

let test_graceful_drain () =
  (* stop must let the in-flight request finish (and its response go
     out) before returning, then leave no handler thread behind *)
  let slow_handler request =
    match request with
    | Protocol.Eval_batch _ ->
        Thread.delay 0.3;
        toy_handler request
    | r -> toy_handler r
  in
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:slow_handler in
  let t = must_connect path in
  let result = ref None in
  let client =
    Thread.create
      (fun () -> result := Some (Transport.call t (one_eval 40 2)))
      ()
  in
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  Server.stop server;
  let stop_elapsed = Unix.gettimeofday () -. t0 in
  Thread.join client;
  (match !result with
  | Some (Protocol.Values [ 42 ]) -> ()
  | Some r -> Alcotest.failf "in-flight request lost: %a" Protocol.pp_response r
  | None -> Alcotest.fail "client never finished");
  check Alcotest.bool "stop waited for the in-flight request" true (stop_elapsed > 0.05);
  let stats = Server.stats server in
  check Alcotest.int "no active connections after drain" 0
    stats.Server.connections_active;
  Transport.close t

let test_server_stats () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let t = must_connect path in
      for _ = 1 to 5 do
        ignore (Transport.call t Protocol.Ping)
      done;
      Transport.close t;
      (* the handler thread notices the close asynchronously *)
      let rec settle n =
        let stats = Server.stats server in
        if stats.Server.connections_active > 0 && n > 0 then begin
          Thread.delay 0.02;
          settle (n - 1)
        end
        else stats
      in
      let stats = settle 100 in
      check Alcotest.int "accepted" 1 stats.Server.connections_accepted;
      check Alcotest.int "handled" 5 stats.Server.requests_handled;
      check Alcotest.int "drained" 0 stats.Server.connections_active)

let test_accept_backoff_schedule () =
  (* the EMFILE accept backoff carried over from the threaded server:
     doubles from 10ms, saturates at 1s.  Pinned as a pure function so
     a schedule regression (e.g. losing the cap and sleeping for
     minutes under descriptor exhaustion) fails here instead of in
     production *)
  let expect =
    [ (1, 0.01); (2, 0.02); (3, 0.04); (4, 0.08); (5, 0.16); (6, 0.32);
      (7, 0.64); (8, 1.0); (9, 1.0); (100, 1.0) ]
  in
  List.iter
    (fun (failures, delay) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "delay after %d failures" failures)
        delay
        (Server.backoff_delay ~consecutive_failures:failures))
    expect;
  (* monotone non-decreasing: more failures never back off LESS *)
  for n = 1 to 63 do
    check Alcotest.bool "monotone" true
      (Server.backoff_delay ~consecutive_failures:(n + 1)
      >= Server.backoff_delay ~consecutive_failures:n)
  done

let test_many_concurrent_connections () =
  (* the event loop must hold well over the old thread-per-connection
     comfort zone on one poll set: open 128 connections at once, issue
     interleaved requests on all of them, and drain cleanly *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conns = Array.init 128 (fun _ -> must_connect path) in
      Fun.protect
        ~finally:(fun () -> Array.iter Transport.close conns)
        (fun () ->
          for round = 1 to 3 do
            Array.iteri
              (fun i t ->
                match Transport.call t (one_eval (40 + i) round) with
                | Protocol.Values [ v ] ->
                    check Alcotest.int
                      (Printf.sprintf "conn %d round %d" i round)
                      (40 + i + round) v
                | r -> Alcotest.failf "unexpected response: %a" Protocol.pp_response r)
              conns
          done;
          let stats = Server.stats server in
          check Alcotest.int "accepted all" 128 stats.Server.connections_accepted;
          check Alcotest.int "handled all" (128 * 3) stats.Server.requests_handled))

let () =
  Alcotest.run "rpc"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "errors" `Quick test_wire_errors;
        ] );
      ( "protocol",
        protocol_codec_suite @ fuzz_suite @ structured_fuzz_suite
        @ [
            Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
            Alcotest.test_case "pinned encodings" `Quick test_pinned_encodings;
            Alcotest.test_case "retired tags rejected" `Quick test_retired_tags_rejected;
          ] );
      ( "transport",
        [
          Alcotest.test_case "local" `Quick test_local_transport;
          Alcotest.test_case "socket end to end" `Quick test_socket_transport;
          Alcotest.test_case "multiple clients" `Quick test_socket_multiple_clients;
          Alcotest.test_case "connect failure" `Quick test_socket_connect_failure;
          Alcotest.test_case "handler exceptions contained" `Quick
            test_server_survives_handler_exception;
          Alcotest.test_case "retired tags get a codec error" `Quick
            test_retired_tag_over_socket;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "timeout is bounded" `Quick test_call_timeout_bounded;
          Alcotest.test_case "retry reconnects" `Quick test_retry_reconnects;
          Alcotest.test_case "truncated reply recovers" `Quick
            test_truncated_reply_recovers;
          Alcotest.test_case "scan_next never retried" `Quick
            test_scan_next_never_retried;
          Alcotest.test_case "protocol errors not retried" `Quick
            test_protocol_error_not_retried;
          Alcotest.test_case "server restart recovery" `Quick
            test_server_restart_recovery;
          Alcotest.test_case "stopped server fails fast" `Quick
            test_stopped_server_fails_fast;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "server stats" `Quick test_server_stats;
          Alcotest.test_case "accept backoff schedule" `Quick
            test_accept_backoff_schedule;
          Alcotest.test_case "128 concurrent connections" `Quick
            test_many_concurrent_connections;
        ] );
    ]
