type t = bytes

let of_bytes b =
  if Bytes.length b <> 32 then invalid_arg "Seed.of_bytes: seed must be 32 bytes";
  Bytes.copy b

let to_bytes t = Bytes.copy t

let to_hex t =
  String.concat "" (List.init 32 (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 t i)))

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let of_hex s =
  let s = String.trim s in
  if String.length s <> 64 then
    Error (Printf.sprintf "seed hex must be 64 characters, got %d" (String.length s))
  else begin
    let out = Bytes.create 32 in
    let bad = ref None in
    for i = 0 to 31 do
      match (hex_digit s.[2 * i], hex_digit s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set_uint8 out i ((hi lsl 4) lor lo)
      | _ -> if !bad = None then bad := Some (2 * i)
    done;
    match !bad with
    | Some pos -> Error (Printf.sprintf "invalid hex character near position %d" pos)
    | None -> Ok out
  end

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let of_passphrase phrase =
  (* Compress the passphrase to 64 bits, spread it over a ChaCha20 key,
     then run one expansion round so every seed byte depends on the
     whole digest. *)
  let digest = fnv1a64 (Printf.sprintf "%d:%s" (String.length phrase) phrase) in
  let key0 = Bytes.make 32 '\000' in
  for i = 0 to 7 do
    Bytes.set_uint8 key0 i
      (Int64.to_int (Int64.logand (Int64.shift_right_logical digest (8 * i)) 0xFFL))
  done;
  (* Mix in the raw passphrase bytes cyclically before expanding. *)
  String.iteri
    (fun i c ->
      let j = 8 + (i mod 24) in
      Bytes.set_uint8 key0 j (Bytes.get_uint8 key0 j lxor Char.code c))
    phrase;
  let nonce = Bytes.make 12 '\000' in
  Bytes.blit_string "seedderiv" 0 nonce 0 9;
  Chacha20.keystream ~key:key0 ~nonce ~counter:0 32

(* Key material comes from the OS entropy source or not at all: a
   clock-seeded fallback would make the key searchable by timestamp. *)
let generate () =
  match
    In_channel.with_open_bin "/dev/urandom" (fun ic -> In_channel.really_input_string ic 32)
  with
  | Some key -> Ok (Bytes.of_string key)
  | None -> Error "no entropy source: short read from /dev/urandom"
  | exception Sys_error msg -> Error ("no entropy source: " ^ msg)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_hex contents
  | exception Sys_error msg -> Error msg

(* [Filename.temp_file] creates the file with permissions 0o600, and
   the rename replaces [path] whole, mode included. *)
let write_secret_file path contents =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save path t = write_secret_file path (to_hex t ^ "\n")

let equal a b = Bytes.equal a b
