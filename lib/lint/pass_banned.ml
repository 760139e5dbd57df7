(* Banned APIs:

   - [Stdlib.Random] anywhere outside lib/prg and test code: every
     random draw in the product must come from the seeded, auditable
     generators in lib/prg (shares from ChaCha20, workload noise from
     SplitMix64), never the ambient global RNG.
   - [Obj.magic]: never.
   - Polymorphic [=] / [compare] / [Hashtbl.hash] on polynomial
     values: polynomial representations are not canonical-by-type, and
     structural comparison silently couples code to the memory layout.
   - Unguarded [Hashtbl] mutation in server-side concurrent modules:
     mutation must sit under [with_lock], a [Mutex.lock] region, or a
     function whose name ends in [_locked] (the called-with-lock-held
     convention).
   - [Thread.create] anywhere under lib/rpc: the RPC layer is
     event-driven (one loop domain); spawning ad-hoc threads there
     reintroduces the per-connection-thread model the event loop
     replaced.
   - [Thread.create] anywhere under lib/shard: the router serves
     every connection from the RPC event loop and fans shard calls
     out synchronously per request; spawning threads there would
     smuggle unsynchronised concurrency past the cursor-table lock.
   - Allocating combinators ([Array.map], [List.map], ...) inside the
     designated kernel modules: those inner loops are the product's
     hot path and must stay allocation-free — every temporary
     array/list per call shows up as GC pressure at scan rates. *)

open Parsetree

let random_allowed path =
  Ast_util.path_has_prefix path ~prefix:"lib/prg/"
  || Ast_util.path_has_prefix path ~prefix:"test/"

(* Modules whose hash tables are reached from more than one thread.
   lib/rpc/server.ml is deliberately absent since the event-loop
   rewrite: its only hash tables ([t.conns] and the Evloop index) are
   confined to the loop domain, and everything shared across domains
   there is a plain counter under [with_lock]. *)
let concurrent_files =
  [
    "lib/core/server_filter.ml";
    "lib/core/cursor_table.ml";
    "lib/store/pager.ml";
    "lib/obs/trace.ml";
    "lib/obs/registry.ml";
    "lib/obs/metrics_http.ml";
    "lib/shard/router.ml";
  ]

(* Kernel modules: allocation-free by contract.  See the header of
   each listed file. *)
let kernel_files = [ "lib/poly/flat.ml" ]

(* Combinators that allocate a fresh array/list per call.  Mutating /
   folding combinators ([Array.fill], [Array.iter], [fold_left], ...)
   stay legal in kernels. *)
let allocating_combinators =
  [
    ("Array", "make");
    ("Array", "make_matrix");
    ("Array", "map");
    ("Array", "mapi");
    ("Array", "map2");
    ("Array", "init");
    ("Array", "append");
    ("Array", "concat");
    ("Array", "to_list");
    ("Array", "of_list");
    ("Array", "copy");
    ("Array", "sub");
    ("List", "map");
    ("List", "mapi");
    ("List", "map2");
    ("List", "rev_map");
    ("List", "concat_map");
    ("List", "filter_map");
    ("List", "filter");
    ("List", "init");
    ("List", "append");
    ("List", "concat");
  ]

let hashtbl_mutators = [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]

(* Operand looks like a polynomial: canonical local names, or a call
   that returns one.  The check is deliberately SHALLOW — it looks at
   the operand's head only, so [Cyclic.eval ring poly x = 0] (an int
   comparison whose argument happens to be a polynomial) is not
   flagged, while [poly = other] and [Cyclic.mul r a b = c] are. *)
let poly_names =
  [ "poly"; "polys"; "node_poly"; "child_polys"; "client_poly"; "server_poly" ]

let poly_fns =
  [
    ("Codec", "unpack_cyclic");
    ("Codec", "unpack_evals");
    ("Cyclic", "add");
    ("Cyclic", "sub");
    ("Cyclic", "mul");
    ("Cyclic", "one");
    ("Cyclic", "of_dense");
    ("Evals", "add");
    ("Evals", "sub");
    ("Evals", "mul");
    ("Evals", "one");
    ("Evals", "of_cyclic");
    ("Share", "client");
    ("Share", "server_share");
    ("Share", "reconstruct");
    ("Share", "add_packed");
    ("Share", "product");
    ("Share", "encode_node");
  ]

let rec polyish expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } ->
      List.mem
        (String.lowercase_ascii (Ast_util.last_of (Ast_util.flatten_longident txt)))
        poly_names
  | Pexp_field (_, lid) ->
      List.mem (String.lowercase_ascii (Ast_util.field_last lid)) poly_names
  | Pexp_apply (fn, _) -> (
      match Ast_util.ident_path fn with
      | Some path when List.length path >= 2 ->
          let m = List.nth path (List.length path - 2) in
          List.mem (m, Ast_util.last_of path) poly_fns
      | _ -> false)
  | Pexp_constraint (inner, _) -> polyish inner
  | _ -> false

let run (source : Lint_source.t) : Finding.t list =
  let path = source.Lint_source.effective_path in
  let out_acc = ref [] in
  let finding ~loc ~severity ~rule ~allow_key msg =
    let line, col = Ast_util.line_col loc in
    out_acc :=
      Finding.v ~rule ~allow_key ~severity ~file:source.Lint_source.path ~line ~col msg
      :: !out_acc
  in
  let concurrent =
    List.exists (fun f -> String.equal (Ast_util.normalize_path path) f) concurrent_files
  in
  let kernel =
    List.exists (fun f -> String.equal (Ast_util.normalize_path path) f) kernel_files
  in
  let in_rpc = Ast_util.path_has_prefix path ~prefix:"lib/rpc/" in
  let in_shard = Ast_util.path_has_prefix path ~prefix:"lib/shard/" in
  (* Guard depth for the unguarded-hashtbl check: >0 while lexically
     under with_lock, a Mutex.lock region, or a *_locked function. *)
  let guard_depth = ref 0 in
  let super = Ast_iterator.default_iterator in
  let rec visit it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Ast_util.flatten_longident txt with
        | "Random" :: _ :: _ | "Stdlib" :: "Random" :: _ ->
            if not (random_allowed path) then
              finding ~loc:e.pexp_loc ~severity:Finding.Error ~rule:"banned/random"
                ~allow_key:"banned-random"
                "Stdlib.Random outside lib/prg: use the seeded generators \
                 (Splitmix64/Xoshiro/Chacha20) so randomness stays auditable"
        | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] ->
            finding ~loc:e.pexp_loc ~severity:Finding.Error ~rule:"banned/obj-magic"
              ~allow_key:"banned-obj-magic" "Obj.magic is banned"
        | ([ "Thread"; "create" ] | [ "Stdlib"; "Thread"; "create" ]) when in_rpc ->
            finding ~loc:e.pexp_loc ~severity:Finding.Error ~rule:"banned/thread-in-rpc"
              ~allow_key:"thread-in-rpc"
              "Thread.create inside lib/rpc: the RPC layer is event-driven; put \
               the work on the event loop instead of spawning a thread per \
               connection"
        | ([ "Thread"; "create" ] | [ "Stdlib"; "Thread"; "create" ]) when in_shard ->
            finding ~loc:e.pexp_loc ~severity:Finding.Error
              ~rule:"banned/thread-in-shard" ~allow_key:"thread-in-shard"
              "Thread.create inside lib/shard: the router runs on the RPC event \
               loop and keeps its cursor table behind one lock; fan shard calls \
               out synchronously instead of spawning threads"
        | ([ m; f ] | [ "Stdlib"; m; f ])
          when kernel && List.mem (m, f) allocating_combinators ->
            finding ~loc:e.pexp_loc ~severity:Finding.Error ~rule:"banned/kernel-alloc"
              ~allow_key:"kernel-alloc"
              (Printf.sprintf
                 "%s.%s allocates per call and this module is a designated \
                  allocation-free kernel; write the loop over caller-provided \
                  scratch instead"
                 m f)
        | _ -> ())
    | _ -> ());
    match e.pexp_desc with
    | Pexp_apply (fn, args) -> (
        let arg_exprs = List.map snd args in
        (match Ast_util.ident_path fn with
        | Some ([ op ] | [ "Stdlib"; op ]) when List.mem op [ "="; "<>"; "compare" ] ->
            if List.exists polyish arg_exprs then
              finding ~loc:e.pexp_loc ~severity:Finding.Error ~rule:"banned/poly-compare"
                ~allow_key:"poly-compare"
                (Printf.sprintf
                   "polymorphic %s on a polynomial value; use a dedicated equality \
                    over the coefficient representation"
                   op)
        | Some path_l when Ast_util.path_ends_with path_l ~suffix:[ "Hashtbl"; "hash" ] ->
            if List.exists polyish arg_exprs then
              finding ~loc:e.pexp_loc ~severity:Finding.Error ~rule:"banned/hashtbl-hash"
                ~allow_key:"hashtbl-hash"
                "Hashtbl.hash on a polynomial value; hash a canonical encoding instead"
            else
              finding ~loc:e.pexp_loc ~severity:Finding.Warning ~rule:"banned/hashtbl-hash"
                ~allow_key:"hashtbl-hash"
                "Hashtbl.hash is representation-dependent; prefer an explicit key"
        | Some [ "Hashtbl"; m ] when concurrent && List.mem m hashtbl_mutators ->
            if !guard_depth = 0 then
              finding ~loc:e.pexp_loc ~severity:Finding.Error
                ~rule:"banned/unguarded-hashtbl" ~allow_key:"unguarded-hashtbl"
                (Printf.sprintf
                   "Hashtbl.%s in a concurrent module outside any lock guard; wrap it \
                    in with_lock / Mutex.lock or move it into a *_locked function"
                   m)
        | _ -> ());
        (* with_lock LOCK F guards everything inside its arguments *)
        match Ast_util.ident_last fn with
        | Some "with_lock" ->
            incr guard_depth;
            Fun.protect
              ~finally:(fun () -> decr guard_depth)
              (fun () -> List.iter (visit it) arg_exprs)
        | _ -> super.expr it e)
    | Pexp_sequence (e1, e2) -> (
        match e1.pexp_desc with
        | Pexp_apply (lock_fn, _)
          when (match Ast_util.ident_path lock_fn with
               | Some [ "Mutex"; "lock" ] -> true
               | _ -> false) ->
            visit it e1;
            incr guard_depth;
            Fun.protect ~finally:(fun () -> decr guard_depth) (fun () -> visit it e2)
        | _ ->
            visit it e1;
            visit it e2)
    | _ -> super.expr it e
  in
  let expr it e = visit it e in
  let value_binding it vb =
    let guarded_fn =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } ->
          String.length txt >= 7
          && String.equal (String.sub txt (String.length txt - 7) 7) "_locked"
      | _ -> false
    in
    if guarded_fn then begin
      incr guard_depth;
      Fun.protect
        ~finally:(fun () -> decr guard_depth)
        (fun () -> super.value_binding it vb)
    end
    else super.value_binding it vb
  in
  let it = { super with expr; value_binding } in
  it.structure it source.Lint_source.structure;
  List.rev !out_acc
