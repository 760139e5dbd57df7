(* Accounting discipline:

   - Cursor-table removals happen only inside [remove_locked], the
     single removal path of [Cursor_table] (DESIGN.md §10: it hands
     every removed cursor to the owner's hook exactly once, which keeps
     the open-cursor gauge, per-reason eviction counters and slow-query
     lifetimes from drifting apart, and closes router member cursors).
   - [Metrics.t] instances are merged only via the field-exhaustive
     [Metrics.add]: a manual `acc.f <- acc.f + other.f` silently drops
     counters the moment a new field is added. *)

open Parsetree

let metric_fields =
  [
    "evaluations";
    "equality_tests";
    "reconstructions";
    "nodes_examined";
    "degenerate_divisions";
  ]

let in_core path = Ast_util.path_has_prefix path ~prefix:"lib/core/"

let is_metrics_ml path =
  String.equal (Ast_util.normalize_path path) "lib/core/metrics.ml"

(* Does [expr] read a metric field of a record other than [base_str]? *)
let foreign_metric_read ~base_str expr =
  let found = ref None in
  let super = Ast_iterator.default_iterator in
  let expr_it it e =
    (match e.pexp_desc with
    | Pexp_field (b, lid) when List.mem (Ast_util.field_last lid) metric_fields ->
        let b_str = Ast_util.expr_to_string b in
        if not (String.equal b_str base_str) then found := Some (b_str, e.pexp_loc)
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr = expr_it } in
  it.expr it expr;
  !found

let run (source : Lint_source.t) : Finding.t list =
  let path = source.Lint_source.effective_path in
  let out_acc = ref [] in
  let finding ~loc ~rule ~allow_key msg =
    let line, col = Ast_util.line_col loc in
    out_acc :=
      Finding.v ~rule ~allow_key ~severity:Finding.Error ~file:source.Lint_source.path
        ~line ~col msg
    :: !out_acc
  in
  Ast_util.iter_expressions_with_bindings source.Lint_source.structure
    (fun ~bindings e ->
      match e.pexp_desc with
      (* Hashtbl/Lru.remove <x>.cursors _ outside remove_locked *)
      | Pexp_apply (fn, ((_, first) :: _ as _args))
        when in_core path
             && (match Ast_util.ident_path fn with
                | Some [ ("Hashtbl" | "Lru"); "remove" ] -> true
                | _ -> false) -> (
          match first.pexp_desc with
          | Pexp_field (_, lid) when String.equal (Ast_util.field_last lid) "cursors" ->
              if not (List.mem "remove_locked" bindings) then
                finding ~loc:e.pexp_loc ~rule:"accounting/cursor-removal"
                  ~allow_key:"cursor-removal"
                  "cursor-table removal outside Cursor_table.remove_locked: every \
                   cursor must leave through the single removal path (DESIGN.md \
                   \u{00a7}10)"
          | _ -> ())
      (* acc.f <- ... other.f ... where f is a Metrics counter *)
      | Pexp_setfield (base, lid, rhs)
        when List.mem (Ast_util.field_last lid) metric_fields
             && not (is_metrics_ml path) -> (
          let base_str = Ast_util.expr_to_string base in
          match foreign_metric_read ~base_str rhs with
          | Some (other, loc) ->
              finding ~loc ~rule:"accounting/metrics-merge" ~allow_key:"metrics-merge"
                (Printf.sprintf
                   "manual Metrics merge (%s.%s reads %s.%s): merge instances with \
                    the field-exhaustive Metrics.add instead"
                   base_str (Ast_util.field_last lid) other (Ast_util.field_last lid))
          | None -> ())
      | _ -> ());
  List.rev !out_acc
