(* Secret-flow: identifiers and producers that carry share/seed/
   polynomial/tag material must never appear in argument position of a
   logging, formatting, error-string or metric-label sink (DESIGN.md
   §9: telemetry must not become the side channel that breaks the
   client/server split).

   The check is name-based and untyped: an expression is tainted when
   it mentions an identifier from the secret vocabulary or applies a
   known secret producer.  That makes it a discipline as much as an
   analysis — secret values must keep their canonical names — which is
   exactly what a reviewer enforces today, mechanised. *)

open Parsetree

(* Exact (lowercased) last-component names that denote secret material. *)
let secret_names =
  [
    "seed";
    "share";
    "shares";
    "poly";
    "polys";
    "node_poly";
    "child_polys";
    "client_poly";
    "server_poly";
    "client_value";
    "server_value";
    "share_bytes";
    "coeffs";
    "secret";
    "plaintext";
    "tag_name";
    "tagname";
    "point";
    "points";
  ]

(* (module, function) calls whose *result* is secret material.  Each
   names a [val] of that module's .mli; test_lint checks that, so a
   rename cannot silently retire an entry. *)
let secret_producers =
  [
    ("Share", "client");
    ("Share", "server_share");
    ("Share", "reconstruct");
    ("Share", "add_packed");
    ("Share", "product");
    ("Share", "client_value");
    ("Share", "encode_node");
    ("Codec", "unpack_cyclic");
    ("Codec", "unpack_evals");
    ("Evals", "recover_linear_factor");
    ("Seed", "generate");
    ("Seed", "load");
    ("Seed", "of_hex");
    ("Seed", "to_hex");
    ("Mapping", "value");
    ("Mapping", "value_exn");
    ("Mapping", "name_of");
    ("Node_prg", "coefficients");
    ("Node_prg", "cipher");
    ("Node_prg", "client_poly");
    ("Node_prg", "client_value");
  ]

(* Partial-aggregate vocabulary: server-side code folds numeric shares
   into a blinded partial sum ([Agg_partial]).  The sum is uniformly
   random on its own, but a log line per query turns the server into a
   tape of its own replies — correlate two epochs (or subtract a known
   query) and the blinding cancels.  So the partial-sum names must
   never reach a sink in server code; log the row count or the reply
   size instead (DESIGN.md §15). *)
let agg_secret_names = [ "sum"; "partial_sum"; "agg_sum"; "total_sum"; "partial" ]

(* (module, function) calls whose result carries partial-aggregate
   material on the server side. *)
let agg_secret_producers = [ ("Numeric", "add"); ("Numeric", "of_bytes") ]

(* Server-side scope for the aggregate rule: the RPC layer, the shard
   router, the server-side filter, and the server binary. *)
let agg_server_scope path =
  Ast_util.path_has_prefix path ~prefix:"lib/rpc/"
  || Ast_util.path_has_prefix path ~prefix:"lib/shard/"
  ||
  match Ast_util.normalize_path path with
  | "lib/core/server_filter.ml" | "bin/ssdb_server.ml" -> true
  | _ -> false

let printf_like =
  [ "printf"; "eprintf"; "sprintf"; "fprintf"; "ksprintf"; "kfprintf"; "kprintf" ]

let format_like =
  [ "printf"; "eprintf"; "sprintf"; "asprintf"; "fprintf"; "kasprintf"; "kfprintf" ]

let event_like = [ "error"; "info"; "debug"; "logf" ]

(* Classify a callee path as a sink, returning a display name. *)
let sink_of path =
  match path with
  | [ "failwith" ] | [ "Stdlib"; "failwith" ] -> Some "failwith"
  | [ "invalid_arg" ] | [ "Stdlib"; "invalid_arg" ] -> Some "invalid_arg"
  | [ ("print_string" | "print_endline" | "prerr_string" | "prerr_endline") ] ->
      Some (List.hd path)
  | _ when List.length path >= 2 -> (
      let m = List.nth path (List.length path - 2) in
      let f = Ast_util.last_of path in
      match m with
      | "Printf" when List.mem f printf_like -> Some ("Printf." ^ f)
      | "Format" when List.mem f format_like -> Some ("Format." ^ f)
      | "Events" when List.mem f event_like -> Some ("Events." ^ f)
      | _ -> None)
  | _ -> None

let is_registry_family path =
  List.length path >= 2
  && String.equal (List.nth path (List.length path - 2)) "Registry"
  && List.mem (Ast_util.last_of path) [ "counter"; "gauge"; "histogram"; "declare" ]

(* Label values proven safe by construction: enumerations the server
   already knows (DESIGN.md §9). *)
let safe_label_fns = [ "reason_label"; "request_name"; "level_to_string"; "op_base_name" ]

(* Structure-only projections: applying one of these to a secret
   yields a value that reveals nothing but its size, so the taint scan
   does not descend into their arguments ([Bytes.length row.share] is
   how pp_row redacts the share bytes). *)
let declassifiers = [ "length" ]

(* Find subexpressions of [e] tainted by [names]/[producers]; call
   [report] for each. *)
let scan_vocab ~names ~producers ~producer_word ~report e =
  let super = Ast_iterator.default_iterator in
  let rec expr it e =
    match e.pexp_desc with
    | Pexp_apply (fn, _)
      when (match Ast_util.ident_last fn with
           | Some f -> List.mem f declassifiers
           | None -> false) ->
        ()
    | _ -> expr_inner it e
  and expr_inner it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        let name = String.lowercase_ascii (Ast_util.last_of (Ast_util.flatten_longident txt)) in
        if List.mem name names then report e.pexp_loc ("identifier `" ^ name ^ "'")
    | Pexp_field (_, lid) ->
        let name = String.lowercase_ascii (Ast_util.field_last lid) in
        if List.mem name names then report e.pexp_loc ("field `" ^ name ^ "'")
    | Pexp_apply (fn, _) -> (
        match Ast_util.ident_path fn with
        | Some path when List.length path >= 2 ->
            let m = List.nth path (List.length path - 2) in
            let f = Ast_util.last_of path in
            if List.mem (m, f) producers then
              report e.pexp_loc (Printf.sprintf "call to %s %s.%s" producer_word m f)
        | _ -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it e

let scan_taint ~report e =
  scan_vocab ~names:secret_names ~producers:secret_producers
    ~producer_word:"secret producer" ~report e

let scan_agg_taint ~report e =
  scan_vocab ~names:agg_secret_names ~producers:agg_secret_producers
    ~producer_word:"partial-aggregate producer" ~report e

let finding source ~loc ~rule ~allow_key msg =
  let line, col = Ast_util.line_col loc in
  Finding.v ~rule ~allow_key ~severity:Finding.Error ~file:source.Lint_source.path ~line
    ~col msg

(* Check one ~labels:[ (k, v); ... ] argument: each value expression
   must be a literal, a safe enumeration call, or an untainted
   identifier. *)
let check_labels source ~sink_loc labels_expr out =
  let check_value v =
    scan_taint v ~report:(fun loc what ->
        out
          (finding source ~loc ~rule:"secret-flow/label" ~allow_key:"secret-label"
             (Printf.sprintf "metric label value carries %s%s" what
                " - labels may only carry server-known enumerations (DESIGN.md \u{00a7}9)")));
    ignore sink_loc;
    match v.pexp_desc with
    | Pexp_apply (fn, _) -> (
        match Ast_util.ident_last fn with
        | Some f when List.mem f safe_label_fns -> ()
        | _ -> ())
    | _ -> ()
  in
  let rec walk_list e =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
      ->
        (match hd.pexp_desc with
        | Pexp_tuple [ _key; value ] -> check_value value
        | _ -> check_value hd);
        walk_list tl
    | _ -> ()
  in
  walk_list labels_expr

let run (source : Lint_source.t) : Finding.t list =
  let out_acc = ref [] in
  let out f = out_acc := f :: !out_acc in
  let server_side = agg_server_scope source.Lint_source.effective_path in
  Ast_util.iter_expressions source.Lint_source.structure (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, args) -> (
          match Ast_util.ident_path fn with
          | Some path -> (
              (match sink_of path with
              | Some sink_name ->
                  List.iter
                    (fun ((_ : Asttypes.arg_label), arg) ->
                      scan_taint arg ~report:(fun loc what ->
                          out
                            (finding source ~loc ~rule:"secret-flow/sink"
                               ~allow_key:"secret-sink"
                               (Printf.sprintf "%s reaches sink %s" what sink_name)));
                      if server_side then
                        scan_agg_taint arg ~report:(fun loc what ->
                            out
                              (finding source ~loc ~rule:"secret-flow/agg-sink"
                                 ~allow_key:"agg-sink"
                                 (Printf.sprintf
                                    "%s reaches sink %s in server code - partial \
                                     aggregate values must never be logged; report \
                                     the row count or reply size instead (DESIGN.md \
                                     \u{00a7}15)"
                                    what sink_name))))
                    args
              | None -> ());
              if is_registry_family path then
                List.iter
                  (fun (label, arg) ->
                    match label with
                    | Asttypes.Labelled "labels" ->
                        check_labels source ~sink_loc:e.pexp_loc arg out
                    | _ -> ())
                  args)
          | None -> ())
      | _ -> ());
  List.rev !out_acc
