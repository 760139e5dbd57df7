(* Lock-order: within the concurrent subtrees of lib/, nested
   acquisitions must follow the declared partial order (sites mapped in
   [Lock_table], ranks in [Race_check.lock_order], the one rank table;
   DESIGN.md §16), and every lock site must be declared.

   The analysis is lexical ([Lock_table.region]): [with_lock m (fun ()
   -> ...)] holds the lock for the wrapped closure, [Mutex.lock m]
   holds it for the rest of the enclosing sequence (or until a matching
   [Mutex.unlock m]).  Cross-function nesting (a callee that locks) is
   out of scope and is covered by the runtime witness
   (Race_check, SSDB_RACE_CHECK=1), which checks the same ranks.

   Files under lib/ but outside [Lock_table.in_scope] must not own
   locks at all; a lock primitive there is reported as
   lint-coverage/lock-order-skip instead of being silently dropped. *)

open Parsetree

(* Lock primitives that make an out-of-scope file a coverage gap. *)
let lock_primitive path =
  match path with
  | [ "Mutex"; ("create" | "lock" | "try_lock") ]
  | [ "Condition"; ("create" | "wait") ] ->
      true
  | _ -> false

let coverage_findings (source : Lint_source.t) : Finding.t list =
  let out_acc = ref [] in
  Ast_util.iter_expressions source.Lint_source.structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident _ | Pexp_apply _ -> (
          let fn = match e.pexp_desc with Pexp_apply (fn, _) -> fn | _ -> e in
          match Ast_util.ident_path fn with
          | Some path when lock_primitive path ->
              let line, col = Ast_util.line_col e.pexp_loc in
              out_acc :=
                Finding.v ~rule:"lint-coverage/lock-order-skip"
                  ~allow_key:"lint-coverage" ~severity:Finding.Warning
                  ~file:source.Lint_source.path ~line ~col
                  (Printf.sprintf
                     "%s uses %s but is outside the lock-order pass's scope; move \
                      the lock into a covered subtree or extend Lock_table.in_scope"
                     (Ast_util.normalize_path source.Lint_source.effective_path)
                     (String.concat "." path))
                :: !out_acc
          | _ -> ())
      | _ -> ());
  (* one warning per file is enough to make the gap visible *)
  match List.rev !out_acc with [] -> [] | f :: _ -> [ f ]

let run (source : Lint_source.t) : Finding.t list =
  let path = source.Lint_source.effective_path in
  if not (Lock_table.in_scope path) then
    if Ast_util.path_has_prefix path ~prefix:"lib/" then coverage_findings source
    else []
  else begin
    let file = path in
    let out_acc = ref [] in
    let finding ~loc ~rule ~allow_key msg =
      let line, col = Ast_util.line_col loc in
      out_acc :=
        Finding.v ~rule ~allow_key ~severity:Finding.Error
          ~file:source.Lint_source.path ~line ~col msg
        :: !out_acc
    in
    (* Stack of currently-held classes, innermost first; threaded
       through the traversal as mutable state. *)
    let held = ref [] in
    let wrapper_depth = ref 0 in
    let check_and_classify ~loc lock_expr =
      match Lock_table.lock_name_of lock_expr with
      | None ->
          finding ~loc ~rule:"lock-order/undeclared" ~allow_key:"lock-undeclared"
            "lock expression is not a declared lock site; add it to the order table";
          None
      | Some lock_name -> (
          match Lock_table.classify ~file ~lock_name with
          | None ->
              finding ~loc ~rule:"lock-order/undeclared" ~allow_key:"lock-undeclared"
                (Printf.sprintf
                   "lock `%s' is not in the declared order table for %s; declare its \
                    rank before taking it"
                   lock_name (Ast_util.basename file));
              None
          | Some k ->
              (match !held with
              | top :: _ when top.Lock_table.rank >= k.Lock_table.rank ->
                  finding ~loc ~rule:"lock-order/inversion" ~allow_key:"lock-order"
                    (Printf.sprintf
                       "acquires %s (rank %d) while holding %s (rank %d); a lock \
                        may only be taken under strictly lower ranks (see \
                        Race_check.lock_order)"
                       k.Lock_table.class_name k.Lock_table.rank
                       top.Lock_table.class_name top.Lock_table.rank)
              | _ -> ());
              Some k)
    in
    let super = Ast_iterator.default_iterator in
    let rec visit it e =
      match Lock_table.region ~in_wrapper:(!wrapper_depth > 0) e with
      | Some (Lock_table.Holding { lock; at; body; outside }) ->
          (match check_and_classify ~loc:at lock with
          | Some k ->
              held := k :: !held;
              Fun.protect
                ~finally:(fun () -> held := List.filter (fun h -> h != k) !held)
                (fun () -> List.iter (visit it) body)
          | None -> List.iter (visit it) body);
          List.iter (visit it) outside
      | Some (Lock_table.Releasing { lock; rest }) ->
          (match Lock_table.class_of ~file lock with
          | Some k ->
              held :=
                List.filter
                  (fun h ->
                    not (String.equal h.Lock_table.class_name k.Lock_table.class_name))
                  !held
          | None -> ());
          visit it rest
      | None -> super.expr it e
    in
    let expr it e = visit it e in
    let value_binding it vb =
      if Lock_table.is_wrapper_binding vb then begin
        incr wrapper_depth;
        Fun.protect
          ~finally:(fun () -> decr wrapper_depth)
          (fun () -> super.value_binding it vb)
      end
      else super.value_binding it vb
    in
    let it = { super with expr; value_binding } in
    it.structure it source.Lint_source.structure;
    List.rev !out_acc
  end
