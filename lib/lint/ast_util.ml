(* Small helpers over the compiler-libs Parsetree shared by every
   pass.  Everything here is untyped and name-based: the passes trade
   soundness for zero build-system coupling (they parse, they never
   typecheck), and DESIGN.md §11 documents that contract. *)

open Parsetree

let rec flatten_longident = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_longident l @ [ s ]
  | Longident.Lapply (a, b) -> flatten_longident a @ flatten_longident b

(* The (module-path, name) view of an identifier expression. *)
let ident_path expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten_longident txt)
  | _ -> None

let last_of path = List.nth path (List.length path - 1)

(* Last path component, e.g. [failwith], [Printf.sprintf] -> "sprintf". *)
let ident_last expr = Option.map last_of (ident_path expr)

(* Last component of a record-field longident. *)
let field_last lid = last_of (flatten_longident lid.Location.txt)

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Stable textual form of an expression, used to compare receiver
   expressions structurally (e.g. [acc] vs [t.metrics]). *)
let expr_to_string expr =
  try Format.asprintf "%a" Pprintast.expression expr with _ -> "<unprintable>"

(* Does [path] end with [suffix] (component-wise)? *)
let path_ends_with path ~suffix =
  let np = List.length path and ns = List.length suffix in
  np >= ns
  && List.for_all2 String.equal
       (List.filteri (fun i _ -> i >= np - ns) path)
       suffix

(* Normalize an on-disk or pretend path to repo-relative with forward
   slashes, e.g. "/src/repo/lib/core/share.ml" -> "lib/core/share.ml"
   when the repo root is a prefix; otherwise returned as-is. *)
let normalize_path path =
  let path =
    String.concat "/" (String.split_on_char '\\' path) (* windows-proof, cheap *)
  in
  let parts = String.split_on_char '/' path in
  let rec from_anchor = function
    | ("lib" | "bin" | "test" | "bench" | "examples") :: _ as tail ->
        Some (String.concat "/" tail)
    | _ :: rest -> from_anchor rest
    | [] -> None
  in
  match from_anchor parts with Some p -> p | None -> path

let path_has_prefix path ~prefix =
  let p = normalize_path path in
  String.length p >= String.length prefix && String.equal (String.sub p 0 (String.length prefix)) prefix

let basename path = Filename.basename path

(* Iterate every expression of a structure with [f] (pre-order),
   using the default iterator for everything else. *)
let iter_expressions structure f =
  let super = Ast_iterator.default_iterator in
  let expr it e =
    f e;
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure

(* The value-binding names enclosing each point of the tree matter to
   several passes ("is this inside [remove_locked]?").  This
   traversal threads that context: [f ~bindings expr] sees the stack
   of enclosing let-bound names, innermost first. *)
let iter_expressions_with_bindings structure f =
  let super = Ast_iterator.default_iterator in
  let bindings = ref [] in
  let binding_name vb =
    match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None
  in
  let with_binding name body =
    match name with
    | None -> body ()
    | Some n ->
        bindings := n :: !bindings;
        Fun.protect ~finally:(fun () -> bindings := List.tl !bindings) body
  in
  let value_binding it vb =
    with_binding (binding_name vb) (fun () -> super.value_binding it vb)
  in
  let expr it e =
    f ~bindings:!bindings e;
    super.expr it e
  in
  let it = { super with expr; value_binding } in
  it.structure it structure
