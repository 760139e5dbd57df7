type t = {
  q : int;
  by_name : (string, int) Hashtbl.t;
  by_value : (int, string) Hashtbl.t;
  mutable order : string list; (* reversed assignment order *)
  agg : (string, int) Hashtbl.t; (* aggregatable tag -> fixed-point scale *)
}

let field_order t = t.q
let size t = Hashtbl.length t.by_name
let names t = List.rev t.order

let create q =
  {
    q;
    by_name = Hashtbl.create 97;
    by_value = Hashtbl.create 97;
    order = [];
    agg = Hashtbl.create 7;
  }

let assign t name v =
  Hashtbl.replace t.by_name name v;
  Hashtbl.replace t.by_value v name;
  t.order <- name :: t.order

let next_free t =
  let rec go v = if Hashtbl.mem t.by_value v then go (v + 1) else v in
  go 1

let add_name t name =
  if Hashtbl.mem t.by_name name then Ok ()
  else begin
    let v = next_free t in
    if v >= t.q then
      Error
        (Printf.sprintf
           "field F_%d has only %d nonzero values; cannot map %d distinct names" t.q
           (t.q - 1)
           (size t + 1))
    else begin
      assign t name v;
      Ok ()
    end
  end

let of_names ~q names =
  if q < 2 then Error "field order must be at least 2"
  else begin
    let t = create q in
    let rec go = function
      | [] -> Ok t
      | name :: rest -> ( match add_name t name with Ok () -> go rest | Error _ as e -> e)
    in
    go names
  end

let of_dtd ~q dtd = of_names ~q (Secshare_xml.Dtd.element_names dtd)
let of_tree ~q tree = of_names ~q (Secshare_xml.Tree.tag_names tree)

let trie_names =
  List.map (String.make 1) Secshare_trie.Tokenize.alphabet
  @ [ Secshare_trie.Tokenize.end_marker ]

let with_trie_alphabet t =
  let rec go = function
    | [] -> Ok t
    | name :: rest -> ( match add_name t name with Ok () -> go rest | Error _ as e -> e)
  in
  go trie_names

let value t name = Hashtbl.find_opt t.by_name name
let value_exn t name = match value t name with Some v -> v | None -> raise Not_found
let name_of t v = Hashtbl.find_opt t.by_value v

(* --- aggregatable tags (numeric column flags) --- *)

let max_agg_scale = 18

let set_aggregatable t name ~scale =
  if not (Hashtbl.mem t.by_name name) then
    invalid_arg (Printf.sprintf "Mapping.set_aggregatable: unmapped name %S" name);
  if scale < 0 || scale > max_agg_scale then
    invalid_arg
      (Printf.sprintf "Mapping.set_aggregatable: scale %d outside [0, %d]" scale
         max_agg_scale);
  Hashtbl.replace t.agg name scale

let clear_aggregatable t = Hashtbl.reset t.agg
let aggregatable_scale t name = Hashtbl.find_opt t.agg name

let aggregatable_names t =
  List.filter (fun name -> Hashtbl.mem t.agg name) (names t)

(* Flag lines use a '%' prefix, which can never start an XML tag name,
   so old map files and new flag lines share one namespace safely. *)
let agg_prefix = "%agg."

let to_file_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "q = %d\n" t.q);
  List.iter
    (fun name ->
      Buffer.add_string buf (Printf.sprintf "%s = %d\n" name (value_exn t name)))
    (names t);
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s = %d\n" agg_prefix name (Hashtbl.find t.agg name)))
    (aggregatable_names t);
  Buffer.contents buf

let of_file_string contents =
  let lines = String.split_on_char '\n' contents in
  let parse_line line =
    match String.index_opt line '=' with
    | None -> Error (Printf.sprintf "malformed map line %S (expected name = value)" line)
    | Some i ->
        let name = String.trim (String.sub line 0 i) in
        let value_str = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        (match int_of_string_opt value_str with
        | None -> Error (Printf.sprintf "malformed value in map line %S" line)
        | Some v -> Ok (name, v))
  in
  let rec go t = function
    | [] -> (
        match t with
        | Some t when size t > 0 -> Ok t
        | Some _ -> Error "map file declares no names"
        | None -> Error "map file is missing the 'q = ...' header")
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go t rest
        else
          match parse_line line with
          | Error _ as e -> e
          | Ok (name, v) -> (
              match t with
              | None ->
                  if String.equal name "q" then
                    if v < 2 then Error "q must be at least 2" else go (Some (create v)) rest
                  else Error "map file must start with a 'q = ...' header"
              | Some t when String.length name > String.length agg_prefix
                            && String.sub name 0 (String.length agg_prefix) = agg_prefix ->
                  let tag =
                    String.sub name (String.length agg_prefix)
                      (String.length name - String.length agg_prefix)
                  in
                  if not (Hashtbl.mem t.by_name tag) then
                    Error
                      (Printf.sprintf "aggregatable flag for undeclared name %S" tag)
                  else if v < 0 || v > max_agg_scale then
                    Error
                      (Printf.sprintf "aggregatable scale %d for %s outside [0, %d]" v
                         tag max_agg_scale)
                  else begin
                    Hashtbl.replace t.agg tag v;
                    go (Some t) rest
                  end
              | Some t ->
                  if v < 1 || v >= field_order t then
                    Error (Printf.sprintf "value %d for %s outside [1, %d]" v name (field_order t - 1))
                  else if Hashtbl.mem t.by_name name then
                    Error (Printf.sprintf "duplicate name %s" name)
                  else if Hashtbl.mem t.by_value v then
                    Error (Printf.sprintf "value %d assigned twice" v)
                  else begin
                    assign t name v;
                    go (Some t) rest
                  end))
  in
  go None lines

let save path t = Secshare_prg.Seed.write_secret_file path (to_file_string t)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_file_string contents
  | exception Sys_error msg -> Error msg

let equal a b =
  a.q = b.q
  && size a = size b
  && List.for_all (fun name -> value a name = value b name) (names a)
  && Hashtbl.length a.agg = Hashtbl.length b.agg
  && Hashtbl.fold
       (fun name scale acc -> acc && Hashtbl.find_opt b.agg name = Some scale)
       a.agg true

let pp fmt t = Format.fprintf fmt "mapping(q=%d, %d names)" t.q (size t)
