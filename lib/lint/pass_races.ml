(* Whole-program guarded-by / domain-confinement checking over lib/.

   Phase 1 (per file) inventories the shared mutable roots — module
   level bindings whose right-hand side builds mutable state (ref,
   Hashtbl.create, Buffer.create, Array.make, Atomic.make, ...),
   mutable record fields, fields of mutable-container type, and local
   mutable bindings that escape into spawned closures — and records
   every access with its lexical lockset (the [with_lock]/[Mutex.lock]
   discipline of [Pass_lock_order]) and executor context (closures
   passed to Domain.spawn/Thread.create run elsewhere).

   Phase 2 (whole program) resolves calls across files, then runs two
   fixpoints: a callee's *entry lockset* is the intersection over all
   call sites of (locks held lexically at the site ∪ the caller's own
   entry lockset) — which is how the [_locked] suffix convention
   becomes a checked property — and a function's *domain* is the join
   of the domains it is called from, seeded by [@@runs_on] attributes
   and spawn sites (two different domains join to Mixed).

   Phase 3 checks every access against the declared model
   ([Concurrency_model] or inline attributes): Guarded_by roots must
   hold their class at every access, Guarded_writes at every write,
   Domain_confined roots must never be touched from a different or
   mixed domain, Atomic_ok roots pass with their recorded reason.
   Undeclared roots and declarations without a root are findings, so
   the model stays complete in both directions.

   Everything is untyped and name-based, per the lib/lint contract
   (DESIGN.md §11): roots are matched per file by name, so a field
   mutated from another compilation unit is outside the net — the
   SSDB_RACE_CHECK runtime witness is the dynamic backstop. *)

open Parsetree
module SS = Set.Make (String)

type ctx = Top | Spawned of string  (* executor the code runs on *)

type access = {
  acc_root : string;
  acc_write : bool;
  acc_locks : SS.t;
  acc_ctx : ctx;
  acc_fn : string;
  acc_loc : Location.t;
}

type call = {
  call_path : string list;
  call_locks : SS.t;
  call_ctx : ctx;
  call_fn : string;
  call_loc : Location.t;
}

type root = {
  root_name : string;
  root_loc : Location.t;
  root_attr : Concurrency_model.guard option;
  root_attr_err : string option;
  root_local : bool;  (* an escaping local, declared by attribute only *)
}

type file_info = {
  fi_path : string;  (* real path, for findings *)
  fi_eff : string;  (* normalized effective path *)
  fi_base : string;
  fi_fixture : bool;
  mutable fi_roots : root list;
  mutable fi_accesses : access list;
  mutable fi_calls : call list;
  mutable fi_defined : SS.t;  (* top-level binding names *)
  mutable fi_submodules : SS.t;
  mutable fi_runs_on : (string * string) list;  (* fn -> domain *)
  mutable fi_spawns : (string * string) list;  (* fn spawned by name -> domain *)
  mutable fi_init : SS.t;  (* [@@init_path] functions: pre-publication *)
  mutable fi_requires : (string * string) list;  (* fn -> required class *)
  mutable fi_attr_errs : (Location.t * string) list;
}

(* --- attribute parsing ------------------------------------------- *)

let attr_string (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* The concurrency attributes: at most one per binding/field. *)
let guard_of_attributes attrs =
  List.fold_left
    (fun (decl, err) (attr : attribute) ->
      let name = attr.attr_name.Location.txt in
      let with_payload mk =
        match attr_string attr with
        | Some s when String.length s > 0 -> (Some (mk s), err)
        | _ -> (decl, Some (Printf.sprintf "[@%s] needs a non-empty string payload" name))
      in
      match name with
      | "guarded_by" -> with_payload (fun s -> Concurrency_model.Guarded_by s)
      | "guarded_writes" -> with_payload (fun s -> Concurrency_model.Guarded_writes s)
      | "domain_confined" ->
          with_payload (fun s -> Concurrency_model.Domain_confined s)
      | "atomic_ok" -> with_payload (fun s -> Concurrency_model.Atomic_ok s)
      | _ -> (decl, err))
    (None, None) attrs

let named_string_attr name attrs =
  List.fold_left
    (fun acc (attr : attribute) ->
      if String.equal attr.attr_name.Location.txt name then attr_string attr else acc)
    None attrs

let runs_on_of_attributes attrs = named_string_attr "runs_on" attrs

(* [@@init_path "reason"]: the function runs before its state is
   published to any other executor (constructors, recovery), so its
   accesses are single-owner by construction and its call sites must
   not weaken callees' entry locksets. *)
let init_path_of_attributes attrs = named_string_attr "init_path" attrs

let has_attr name attrs =
  List.exists (fun (a : attribute) -> String.equal a.attr_name.Location.txt name) attrs

(* [@@requires "class"]: the function's contract is that callers hold
   the lock class; it seeds the entry lockset and is checked at every
   resolved call site. *)
let requires_of_attributes attrs = named_string_attr "requires" attrs

(* --- mutable-root shapes ------------------------------------------ *)

let rec strip_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_constraint e
  | _ -> e

(* Does this right-hand side build mutable state directly? *)
let mutable_maker e =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply (fn, _) -> (
      match Ast_util.ident_path fn with
      | Some [ "ref" ] | Some [ "Stdlib"; "ref" ] -> true
      | Some path when List.length path >= 2 -> (
          match (List.nth path (List.length path - 2), Ast_util.last_of path) with
          | "Hashtbl", "create"
          | "Queue", "create"
          | "Buffer", "create"
          | "Atomic", "make"
          | "Array", ("make" | "init" | "make_matrix")
          | "Bytes", ("create" | "make")
          | "Weak", "create" ->
              true
          | _ -> false)
      | _ -> false)
  | _ -> false

(* Head type constructor of a field's declared type. *)
let rec type_head (ct : core_type) =
  match ct.ptyp_desc with
  | Ptyp_constr (lid, _) -> Some (Ast_util.flatten_longident lid.Location.txt)
  | Ptyp_alias (ct, _) -> type_head ct
  | _ -> None

let container_type ~strict ct =
  match type_head ct with
  | Some path -> (
      match path with
      | [ "ref" ] | [ "Stdlib"; "ref" ]
      | [ "Hashtbl"; "t" ]
      | [ "Queue"; "t" ]
      | [ "Buffer"; "t" ]
      | [ "Atomic"; "t" ] ->
          true
      | [ "array" ] | [ "bytes" ] | [ "Bytes"; "t" ] -> strict
      | _ -> false)
  | None -> false

(* Calls that mutate their [idx]th positional argument. *)
let mutator_arg path =
  match path with
  | [ ":=" ] -> Some 0
  | _ when List.length path >= 2 -> (
      match (List.nth path (List.length path - 2), Ast_util.last_of path) with
      | "Hashtbl", ("replace" | "add" | "remove" | "clear" | "reset" | "filter_map_inplace")
      | "Queue", ("pop" | "take" | "clear")
      | ( "Buffer",
          ( "add_string" | "add_char" | "add_bytes" | "add_subbytes" | "add_substring"
          | "add_buffer" | "clear" | "reset" | "truncate" ) )
      | "Array", ("set" | "unsafe_set" | "fill" | "sort")
      | "Bytes", ("set" | "unsafe_set" | "fill")
      | "Atomic", ("set" | "exchange" | "incr" | "decr" | "fetch_and_add" | "compare_and_set")
        ->
          Some 0
      | "Queue", ("add" | "push" | "transfer") -> Some 1
      | "Array", "blit" | "Bytes", ("blit" | "blit_string") -> Some 2
      | _ -> None)
  | _ -> ( match path with [ ":=" ] -> Some 0 | _ -> None)

let is_spawn path =
  List.exists (fun p -> Ast_util.path_ends_with path ~suffix:p) Concurrency_model.spawn_fns

(* --- per-file analysis -------------------------------------------- *)

let analyze_file (source : Lint_source.t) : file_info =
  let eff = Ast_util.normalize_path source.Lint_source.effective_path in
  let fi =
    {
      fi_path = source.Lint_source.path;
      fi_eff = eff;
      fi_base = Ast_util.basename eff;
      fi_fixture = not (String.equal source.Lint_source.path source.Lint_source.effective_path);
      fi_roots = [];
      fi_accesses = [];
      fi_calls = [];
      fi_defined = SS.empty;
      fi_submodules = SS.empty;
      fi_runs_on = [];
      fi_spawns = [];
      fi_init = SS.empty;
      fi_requires = [];
      fi_attr_errs = [];
    }
  in
  let strict = List.mem fi.fi_base Concurrency_model.strict_container_files in
  (* field and binding roots of this file, filled as declarations are
     seen; accesses match against it by name *)
  let root_names = Hashtbl.create 16 in
  let add_root ~field r =
    fi.fi_roots <- r :: fi.fi_roots;
    (* a module-level binding wins over a same-named field: bare-ident
       accesses only ever mean the binding *)
    match Hashtbl.find_opt root_names r.root_name with
    | Some `Binding -> ()
    | _ -> Hashtbl.replace root_names r.root_name (if field then `Field else `Binding)
  in
  (* traversal state *)
  let cur_fn = ref "" in
  let cur_ctx = ref Top in
  let held = ref SS.empty in
  let wrapper_depth = ref 0 in
  (* per-top-level-function local state *)
  let local_muts : (string, Location.t * Concurrency_model.guard option * string option) Hashtbl.t
      =
    Hashtbl.create 8
  in
  let local_funs : (string, expression) Hashtbl.t = Hashtbl.create 8 in
  let escaped_locals : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* locations already recorded as a mutator's target; the generic
     ident/field read visit must not double-count them *)
  let claimed : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let record_access root ~write ~loc =
    fi.fi_accesses <-
      {
        acc_root = root;
        acc_write = write;
        acc_locks = !held;
        acc_ctx = !cur_ctx;
        acc_fn = !cur_fn;
        acc_loc = loc;
      }
      :: fi.fi_accesses
  in
  let local_key name = !cur_fn ^ "." ^ name in
  (* A bare identifier only ever denotes a module-level binding or a
     local; fields with the same name are reached via [expr.field] and
     shadowing locals must not count as field accesses. *)
  let touch_ident ?(write = false) name loc =
    match Hashtbl.find_opt root_names name with
    | Some `Binding -> record_access name ~write ~loc
    | Some `Field | None ->
        if Hashtbl.mem local_muts name then record_access (local_key name) ~write ~loc
  in
  (* all identifiers mentioned in [e], for escape scanning *)
  let idents_of e =
    let acc = ref SS.empty in
    Ast_util.iter_expressions [ { pstr_desc = Pstr_eval (e, []); pstr_loc = e.pexp_loc } ]
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident n; _ } -> acc := SS.add n !acc
        | _ -> ());
    !acc
  in
  let mark_escapes e =
    let mentioned = idents_of e in
    let note n = if Hashtbl.mem local_muts n then Hashtbl.replace escaped_locals n () in
    SS.iter
      (fun n ->
        note n;
        match Hashtbl.find_opt local_funs n with
        | Some body -> SS.iter note (idents_of body)
        | None -> ())
      mentioned
  in
  (* domain of a closure spawned at [loc]: the body's head callee's
     [@@runs_on] if declared, else a unique anonymous executor *)
  let rec closure_body e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) -> closure_body body
    | Pexp_function _ -> e
    | _ -> e
  in
  let head_callee e =
    match (closure_body e).pexp_desc with
    | Pexp_apply (fn, _) -> Ast_util.ident_path fn
    | Pexp_ident { txt; _ } -> Some (Ast_util.flatten_longident txt)
    | _ -> None
  in
  let spawn_domain ~loc e =
    let anon () =
      let line, _ = Ast_util.line_col loc in
      Printf.sprintf "spawn:%s:%d" fi.fi_base line
    in
    match head_callee e with
    | Some [ f ] -> (
        match List.assoc_opt f fi.fi_runs_on with Some d -> d | None -> anon ())
    | _ -> anon ()
  in
  let super = Ast_iterator.default_iterator in
  let rec visit it e =
    match Lock_table.region ~in_wrapper:(!wrapper_depth > 0) e with
    | Some (Lock_table.Holding { lock; body; outside; _ }) ->
        (match Lock_table.class_of ~file:fi.fi_eff lock with
        | Some k ->
            let saved = !held in
            held := SS.add k.Lock_table.class_name !held;
            Fun.protect
              ~finally:(fun () -> held := saved)
              (fun () -> List.iter (visit it) body)
        | None -> List.iter (visit it) body);
        List.iter (visit it) outside
    | Some (Lock_table.Releasing { lock; rest }) ->
        (match Lock_table.class_of ~file:fi.fi_eff lock with
        | Some k -> held := SS.remove k.Lock_table.class_name !held
        | None -> ());
        visit it rest
    | None -> visit_node it e
  (* everything but a lock region *)
  and visit_node it e =
    match e.pexp_desc with
    | Pexp_apply (fn, args) -> (
        match Ast_util.ident_path fn with
        | Some path ->
            if is_spawn path then begin
              List.iter (fun (_, a) -> mark_escapes a) args;
              List.iter
                (fun ((_ : Asttypes.arg_label), a) ->
                  match (strip_constraint a).pexp_desc with
                  | Pexp_fun _ | Pexp_function _ ->
                      (* the closure runs on another executor: fresh
                         lockset, its own domain *)
                      let dom = spawn_domain ~loc:e.pexp_loc a in
                      (match head_callee a with
                      | Some [ f ] when SS.mem f fi.fi_defined ->
                          fi.fi_spawns <- (f, dom) :: fi.fi_spawns
                      | _ -> ());
                      let saved_ctx = !cur_ctx and saved_held = !held in
                      cur_ctx := Spawned dom;
                      held := SS.empty;
                      Fun.protect
                        ~finally:(fun () ->
                          cur_ctx := saved_ctx;
                          held := saved_held)
                        (fun () -> visit it a)
                  | Pexp_ident { txt = Longident.Lident f; _ }
                    when SS.mem f fi.fi_defined ->
                      let line, _ = Ast_util.line_col e.pexp_loc in
                      fi.fi_spawns <-
                        (f, Printf.sprintf "spawn:%s:%d" fi.fi_base line)
                        :: fi.fi_spawns
                  | _ -> visit it a)
                args
            end
            else begin
              fi.fi_calls <-
                {
                  call_path = path;
                  call_locks = !held;
                  call_ctx = !cur_ctx;
                  call_fn = !cur_fn;
                  call_loc = e.pexp_loc;
                }
                :: fi.fi_calls;
              (match mutator_arg path with
              | Some idx -> (
                  let positional =
                    List.filter_map
                      (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
                      args
                  in
                  match List.nth_opt positional idx with
                  | Some target -> (
                      match (strip_constraint target).pexp_desc with
                      | Pexp_ident { txt = Longident.Lident n; _ } ->
                          touch_ident ~write:true n target.pexp_loc;
                          Hashtbl.replace claimed target.pexp_loc ()
                      | Pexp_field (_, lid) ->
                          let n = Ast_util.field_last lid in
                          if Hashtbl.mem root_names n then begin
                            record_access n ~write:true ~loc:target.pexp_loc;
                            Hashtbl.replace claimed target.pexp_loc ()
                          end
                      | _ -> ())
                  | None -> ())
              | None -> ());
              super.expr it e
            end
        | None -> super.expr it e)
    | Pexp_ident { txt = Longident.Lident n; _ } ->
        if not (Hashtbl.mem claimed e.pexp_loc) then touch_ident n e.pexp_loc;
        super.expr it e
    | Pexp_field (recv, lid) ->
        let n = Ast_util.field_last lid in
        (* a field of a function result is a fresh value (a stats
           snapshot, a freshly built record), not the mutable root that
           happens to share the field name *)
        let receiver_is_value =
          match (strip_constraint recv).pexp_desc with Pexp_apply _ -> true | _ -> false
        in
        if
          (not receiver_is_value)
          && (not (Hashtbl.mem claimed e.pexp_loc))
          && Hashtbl.mem root_names n
        then record_access n ~write:false ~loc:e.pexp_loc;
        super.expr it e
    | Pexp_setfield (recv, lid, v) ->
        let n = Ast_util.field_last lid in
        if Hashtbl.mem root_names n then record_access n ~write:true ~loc:e.pexp_loc;
        visit it recv;
        visit it v
    | _ -> super.expr it e
  in
  let expr it e = visit it e in
  let value_binding it vb =
    (* local bindings (top-level ones are walked explicitly below) *)
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ } ->
        let rhs = strip_constraint vb.pvb_expr in
        if mutable_maker rhs then begin
          let decl, err = guard_of_attributes vb.pvb_attributes in
          Hashtbl.replace local_muts name (vb.pvb_loc, decl, err)
        end
        else (
          match rhs.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> Hashtbl.replace local_funs name rhs
          | _ -> ())
    | _ -> ());
    if Lock_table.is_wrapper_binding vb then begin
      incr wrapper_depth;
      Fun.protect ~finally:(fun () -> decr wrapper_depth) (fun () -> super.value_binding it vb)
    end
    else super.value_binding it vb
  in
  let it = { super with expr; value_binding } in
  (* pre-scan: top-level names, submodules, runs_on seeds, type roots *)
  let rec prescan items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = name; _ } ->
                    fi.fi_defined <- SS.add name fi.fi_defined;
                    (match runs_on_of_attributes vb.pvb_attributes with
                    | Some d -> fi.fi_runs_on <- (name, d) :: fi.fi_runs_on
                    | None -> ());
                    (match init_path_of_attributes vb.pvb_attributes with
                    | Some why when String.length why > 0 ->
                        fi.fi_init <- SS.add name fi.fi_init
                    | Some _ | None ->
                        if has_attr "init_path" vb.pvb_attributes then
                          fi.fi_attr_errs <-
                            ( vb.pvb_loc,
                              Printf.sprintf
                                "[@@init_path] on `%s' needs a non-empty string payload \
                                 explaining why it runs pre-publication"
                                name )
                            :: fi.fi_attr_errs);
                    (match requires_of_attributes vb.pvb_attributes with
                    | Some cls when String.length cls > 0 ->
                        if Option.is_some (Secshare_obs.Race_check.rank cls) then
                          fi.fi_requires <- (name, cls) :: fi.fi_requires
                        else
                          fi.fi_attr_errs <-
                            ( vb.pvb_loc,
                              Printf.sprintf
                                "[@@requires] on `%s' names unknown lock class `%s'; \
                                 declare it in Lock_table"
                                name cls )
                            :: fi.fi_attr_errs
                    | Some _ | None ->
                        if has_attr "requires" vb.pvb_attributes then
                          fi.fi_attr_errs <-
                            ( vb.pvb_loc,
                              Printf.sprintf
                                "[@@requires] on `%s' needs a non-empty lock-class \
                                 string payload"
                                name )
                            :: fi.fi_attr_errs)
                | _ -> ())
              vbs
        | Pstr_type (_, decls) ->
            List.iter
              (fun (td : type_declaration) ->
                match td.ptype_kind with
                | Ptype_record labels ->
                    List.iter
                      (fun (ld : label_declaration) ->
                        let is_mutable = ld.pld_mutable = Asttypes.Mutable in
                        if is_mutable || container_type ~strict ld.pld_type then begin
                          let decl, err = guard_of_attributes ld.pld_attributes in
                          add_root ~field:true
                            {
                              root_name = ld.pld_name.Location.txt;
                              root_loc = ld.pld_loc;
                              root_attr = decl;
                              root_attr_err = err;
                              root_local = false;
                            }
                        end)
                      labels
                | _ -> ())
              decls
        | Pstr_module mb -> (
            (match mb.pmb_name.Location.txt with
            | Some name -> fi.fi_submodules <- SS.add name fi.fi_submodules
            | None -> ());
            match mb.pmb_expr.pmod_desc with
            | Pmod_structure items -> prescan items
            | _ -> ())
        | _ -> ())
      items
  in
  (* main walk: top-level bindings get their name as context; local
     escape bookkeeping resets per binding *)
  let rec walk items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let name =
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } -> txt
                  | _ -> ""
                in
                (* module-level mutable state is a root *)
                (if mutable_maker vb.pvb_expr then
                   let decl, err = guard_of_attributes vb.pvb_attributes in
                   add_root ~field:false
                     {
                       root_name = name;
                       root_loc = vb.pvb_loc;
                       root_attr = decl;
                       root_attr_err = err;
                       root_local = false;
                     });
                Hashtbl.reset local_muts;
                Hashtbl.reset local_funs;
                Hashtbl.reset escaped_locals;
                cur_fn := name;
                cur_ctx := Top;
                held := SS.empty;
                let is_wrapper = Lock_table.is_wrapper_name name in
                if is_wrapper then incr wrapper_depth;
                visit it vb.pvb_expr;
                if is_wrapper then decr wrapper_depth;
                (* escaping locals become roots needing a declaration *)
                Hashtbl.iter
                  (fun lname () ->
                    match Hashtbl.find_opt local_muts lname with
                    | Some (loc, decl, err) ->
                        add_root ~field:false
                          {
                            root_name = name ^ "." ^ lname;
                            root_loc = loc;
                            root_attr = decl;
                            root_attr_err = err;
                            root_local = true;
                          }
                    | None -> ())
                  escaped_locals)
              vbs
        | Pstr_eval (e, _) ->
            cur_fn := "";
            cur_ctx := Top;
            held := SS.empty;
            visit it e
        | Pstr_module mb -> (
            match mb.pmb_expr.pmod_desc with
            | Pmod_structure items -> walk items
            | _ -> ())
        | _ -> ())
      items
  in
  prescan source.Lint_source.structure;
  walk source.Lint_source.structure;
  fi

(* --- whole-program fixpoints -------------------------------------- *)

type domain = Bot | D of string | Mixed

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | D x, D y when String.equal x y -> D x
  | _ -> Mixed

let module_name_of_base base =
  String.capitalize_ascii (Filename.remove_extension base)

let run (sources : Lint_source.t list) : Finding.t list =
  let files =
    List.filter_map
      (fun (s : Lint_source.t) ->
        if Ast_util.path_has_prefix s.Lint_source.effective_path ~prefix:"lib/" then
          Some (analyze_file s)
        else None)
      sources
  in
  let by_module = Hashtbl.create 32 in
  List.iter (fun fi -> Hashtbl.replace by_module (module_name_of_base fi.fi_base) fi) files;
  let fkey fi fn = fi.fi_eff ^ "#" ^ fn in
  (* resolve a call path to a defined function's key *)
  let resolve fi path =
    match path with
    | [ f ] when SS.mem f fi.fi_defined -> Some (fkey fi f)
    | [ m; f ] when SS.mem m fi.fi_submodules && SS.mem f fi.fi_defined ->
        Some (fkey fi f)
    | [ m; f ] -> (
        match Hashtbl.find_opt by_module m with
        | Some target when SS.mem f target.fi_defined -> Some (fkey target f)
        | _ -> None)
    | _ -> None
  in
  (* call sites per callee *)
  let sites : (string, [ `Fn of string | `Spawn ] * SS.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun fi ->
      List.iter
        (fun c ->
          match resolve fi c.call_path with
          | Some callee ->
              let base =
                match c.call_ctx with Top -> `Fn (fkey fi c.call_fn) | Spawned _ -> `Spawn
              in
              Hashtbl.add sites callee (base, c.call_locks)
          | None -> ())
        fi.fi_calls;
      List.iter
        (fun (f, _dom) -> Hashtbl.add sites (fkey fi f) (`Spawn, SS.empty))
        fi.fi_spawns)
    files;
  let all_classes = SS.of_list (List.map fst Secshare_obs.Race_check.lock_order) in
  (* [@@init_path] functions per key, and [@@requires] contracts *)
  let init_fns : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let requires : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun fi ->
      SS.iter (fun f -> Hashtbl.replace init_fns (fkey fi f) ()) fi.fi_init;
      List.iter (fun (f, cls) -> Hashtbl.replace requires (fkey fi f) cls) fi.fi_requires)
    files;
  let is_init k = Hashtbl.mem init_fns k in
  let requires_of k =
    match Hashtbl.find_opt requires k with Some c -> SS.singleton c | None -> SS.empty
  in
  (* Entry lockset semantics: sites inside [@@init_path] functions are
     pre-publication and dropped.  A function with no resolved sites at
     all keeps only its [@@requires] contract (pessimistic: an uncalled
     function proves nothing).  A function whose every site is an init
     call is itself transitively pre-publication (⊤, so its own call
     sites are vacuous in callees' intersections).  Otherwise the entry
     is the contract plus the intersection over the live sites. *)
  let entry : (string, SS.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun fi ->
      SS.iter
        (fun f ->
          let k = fkey fi f in
          Hashtbl.replace entry k
            (if Hashtbl.mem sites k then all_classes else requires_of k))
        fi.fi_defined)
    files;
  let entry_of k = Option.value (Hashtbl.find_opt entry k) ~default:SS.empty in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 32 do
    changed := false;
    incr iters;
    Hashtbl.iter
      (fun k current ->
        match Hashtbl.find_all sites k with
        | [] -> ()
        | site_list ->
            let live =
              List.filter
                (fun (base, _) ->
                  match base with `Fn caller -> not (is_init caller) | `Spawn -> true)
                site_list
            in
            let next =
              if live = [] then all_classes
              else
                SS.union (requires_of k)
                  (Option.value ~default:SS.empty
                     (List.fold_left
                        (fun acc (base, locks) ->
                          let site_locks =
                            match base with
                            | `Fn caller -> SS.union locks (entry_of caller)
                            | `Spawn -> locks
                          in
                          match acc with
                          | None -> Some site_locks
                          | Some acc -> Some (SS.inter acc site_locks))
                        None live))
            in
            if not (SS.equal next current) then begin
              Hashtbl.replace entry k next;
              changed := true
            end)
      (Hashtbl.copy entry)
  done;
  (* domain fixpoint *)
  let dom : (string, domain) Hashtbl.t = Hashtbl.create 64 in
  let dom_of k = Option.value (Hashtbl.find_opt dom k) ~default:Bot in
  List.iter
    (fun fi ->
      List.iter (fun (f, d) -> Hashtbl.replace dom (fkey fi f) (D d)) fi.fi_runs_on;
      List.iter
        (fun (f, d) ->
          let k = fkey fi f in
          Hashtbl.replace dom k (join (dom_of k) (D d)))
        fi.fi_spawns)
    files;
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 32 do
    changed := false;
    incr iters;
    List.iter
      (fun fi ->
        List.iter
          (fun c ->
            match resolve fi c.call_path with
            | Some callee ->
                let caller_dom =
                  match c.call_ctx with
                  | Spawned d -> D d
                  | Top -> dom_of (fkey fi c.call_fn)
                in
                if caller_dom <> Bot then begin
                  let next = join (dom_of callee) caller_dom in
                  if next <> dom_of callee then begin
                    Hashtbl.replace dom callee next;
                    changed := true
                  end
                end
            | None -> ())
          fi.fi_calls)
      files
  done;
  (* --- checks ----------------------------------------------------- *)
  let out_acc = ref [] in
  let finding fi ~loc ~rule ~allow_key msg =
    let line, col = Ast_util.line_col loc in
    out_acc :=
      Finding.v ~rule ~allow_key ~severity:Finding.Error ~file:fi.fi_path ~line ~col msg
      :: !out_acc
  in
  let decl_of fi root =
    match root.root_attr with
    | Some g -> Some g
    | None ->
        if root.root_local then None
        else Concurrency_model.find ~file:fi.fi_eff ~root:root.root_name
  in
  (* contract attribute problems and call-site contract violations *)
  List.iter
    (fun fi ->
      List.iter
        (fun (loc, msg) ->
          finding fi ~loc ~rule:"races/bad-decl" ~allow_key:"race-decl" msg)
        fi.fi_attr_errs;
      List.iter
        (fun c ->
          match resolve fi c.call_path with
          | Some callee -> (
              match Hashtbl.find_opt requires callee with
              | Some cls ->
                  let caller_init =
                    match c.call_ctx with
                    | Top -> is_init (fkey fi c.call_fn)
                    | Spawned _ -> false
                  in
                  if not caller_init then
                    let effective =
                      match c.call_ctx with
                      | Top -> SS.union c.call_locks (entry_of (fkey fi c.call_fn))
                      | Spawned _ -> c.call_locks
                    in
                    if not (SS.mem cls effective) then
                      finding fi ~loc:c.call_loc ~rule:"races/unguarded-call"
                        ~allow_key:"race-unguarded"
                        (Printf.sprintf
                           "call to `%s' requires holding %s (held: %s%s)"
                           (String.concat "." c.call_path)
                           cls
                           (match SS.elements effective with
                           | [] -> "nothing"
                           | held -> String.concat ", " held)
                           (match c.call_ctx with
                           | Spawned d -> "; runs on " ^ d
                           | Top -> ""))
              | None -> ())
          | None -> ())
        fi.fi_calls)
    files;
  List.iter
    (fun fi ->
      let decls = Hashtbl.create 16 in
      List.iter
        (fun root ->
          (match root.root_attr_err with
          | Some err ->
              finding fi ~loc:root.root_loc ~rule:"races/bad-decl" ~allow_key:"race-decl"
                err
          | None -> ());
          match decl_of fi root with
          | Some g ->
              (match g with
              | Concurrency_model.Guarded_by cls | Concurrency_model.Guarded_writes cls
                ->
                  if Option.is_none (Secshare_obs.Race_check.rank cls) then
                    finding fi ~loc:root.root_loc ~rule:"races/bad-decl"
                      ~allow_key:"race-decl"
                      (Printf.sprintf
                         "`%s' names unknown lock class `%s'; declare it in Lock_table"
                         root.root_name cls)
              | _ -> ());
              Hashtbl.replace decls root.root_name g
          | None ->
              finding fi ~loc:root.root_loc ~rule:"races/undeclared-root"
                ~allow_key:"race-undeclared"
                (Printf.sprintf
                   "shared mutable root `%s' has no concurrency declaration; add \
                    [@guarded_by \"<class>\"], [@domain_confined \"<domain>\"] or \
                    [@atomic_ok \"<why>\"], or an entry in Concurrency_model \
                    (DESIGN.md \u{00a7}16)"
                   root.root_name))
        fi.fi_roots;
      (* declarations whose root vanished (skipped for fixture files,
         which pretend to be real paths without carrying their state) *)
      if not fi.fi_fixture then
        List.iter
          (fun (name, _) ->
            if not (List.exists (fun r -> String.equal r.root_name name) fi.fi_roots)
            then
              finding fi ~loc:Location.none ~rule:"races/stale-decl"
                ~allow_key:"race-stale-decl"
                (Printf.sprintf
                   "Concurrency_model declares `%s' for %s but no such mutable root \
                    exists; delete the entry"
                   name fi.fi_eff))
          (Concurrency_model.entries_for fi.fi_eff);
      List.iter
        (fun a ->
          (* accesses inside an [@@init_path] function are pre-publication *)
          let exempt =
            match a.acc_ctx with
            | Top -> is_init (fkey fi a.acc_fn)
            | Spawned _ -> false
          in
          if exempt then ()
          else
          match Hashtbl.find_opt decls a.acc_root with
          | None -> ()
          | Some (Concurrency_model.Atomic_ok _) -> ()
          | Some (Concurrency_model.Guarded_by cls)
          | Some (Concurrency_model.Guarded_writes cls) -> (
              let check_needed =
                match Hashtbl.find_opt decls a.acc_root with
                | Some (Concurrency_model.Guarded_writes _) -> a.acc_write
                | _ -> true
              in
              if check_needed then
                let effective =
                  match a.acc_ctx with
                  | Top -> SS.union a.acc_locks (entry_of (fkey fi a.acc_fn))
                  | Spawned _ -> a.acc_locks
                in
                if not (SS.mem cls effective) then
                  finding fi ~loc:a.acc_loc ~rule:"races/unguarded-access"
                    ~allow_key:"race-unguarded"
                    (Printf.sprintf
                       "%s of `%s' without holding %s (held: %s%s)"
                       (if a.acc_write then "write" else "read")
                       a.acc_root cls
                       (match SS.elements effective with
                       | [] -> "nothing"
                       | held -> String.concat ", " held)
                       (match a.acc_ctx with
                       | Spawned d -> "; runs on " ^ d
                       | Top -> "")))
          | Some (Concurrency_model.Domain_confined d) ->
              let vdom =
                match a.acc_ctx with
                | Spawned d' -> D d'
                | Top -> dom_of (fkey fi a.acc_fn)
              in
              let violation =
                match vdom with
                | Mixed -> true
                | D d' ->
                    if String.equal d "caller" then
                      (* caller-owned state must never be touched from a
                         spawned executor at all *)
                      match a.acc_ctx with Spawned _ -> true | Top -> false
                    else not (String.equal d' d)
                | Bot -> false
              in
              if violation then
                finding fi ~loc:a.acc_loc ~rule:"races/confinement-escape"
                  ~allow_key:"race-confinement"
                  (Printf.sprintf
                     "`%s' is confined to domain %s but this access runs on %s"
                     a.acc_root d
                     (match vdom with
                     | Mixed -> "multiple domains"
                     | D d' -> d'
                     | Bot -> "an unknown domain")))
        fi.fi_accesses)
    files;
  List.sort Finding.order !out_acc
