(* The lock sites of the tree and the lexical lock regions around
   them, shared by [Pass_lock_order] (acquisition order) and
   [Pass_races] (guarded-by checking).  A lock site is identified by
   the basename of the file that owns it and the last identifier of
   the lock expression; its class name is the handle the concurrency
   model's [Guarded_by] declarations and the runtime witness use.

   New lock sites MUST be mapped here (and their class declared in
   [Race_check.lock_order], the one table of ranks, and DESIGN.md §16)
   or the lock-order pass reports lock-order/undeclared.  A lock may
   only be taken while holding strictly lower-ranked locks. *)

open Parsetree

type klass = { class_name : string; rank : int }

let fixture_base base =
  let has_prefix p =
    String.length base >= String.length p && String.sub base 0 (String.length p) = p
  in
  has_prefix "bad_race_" || has_prefix "good_race_"

let class_of_site ~file ~lock_name =
  match (Ast_util.basename file, lock_name) with
  | "node_table.ml", "write_lock" -> Some "table-writer"
  | "cursor_table.ml", ("t" | "lock") -> Some "cursor-table"
  | "server.ml", ("t" | "lock") -> Some "rpc-server-stats"
  | "metrics_http.ml", "lock" -> Some "metrics-http"
  | "pager.ml", "latch" -> Some "pager-latch"
  | "wal.ml", "lock" -> Some "wal-append"
  | "pager.ml", "io" -> Some "pager-io"
  | "trace.ml", "ambient_lock" -> Some "trace-ambient"
  | "trace.ml", "ring_lock" -> Some "trace-ring"
  | "trace.ml", "log_lock" -> Some "trace-log"
  | "registry.ml", ("t" | "registry" | "lock") -> Some "obs-registry"
  | "histogram.ml", ("t" | "lock" | "into") -> Some "obs-histogram"
  | "events.ml", "emit_lock" -> Some "events-sink"
  | "race_check.ml", "lock" -> Some "race-witness"
  | base, ("lock" | "fixture_lock") when fixture_base base -> Some "fixture-lock"
  | _ -> None

(* A site whose class has no declared rank is as undeclared as an
   unmapped one. *)
let classify ~file ~lock_name =
  Option.bind (class_of_site ~file ~lock_name) (fun class_name ->
      Option.map
        (fun rank -> { class_name; rank })
        (Secshare_obs.Race_check.rank class_name))

(* Directories whose lock sites the order pass analyzes.  Everything
   under lib/ outside this set must not create locks at all; the pass
   reports lint-coverage/lock-order-skip if one does. *)
let in_scope path =
  List.exists
    (fun prefix -> Ast_util.path_has_prefix path ~prefix)
    [ "lib/store/"; "lib/core/"; "lib/rpc/"; "lib/obs/"; "lib/shard/" ]

(* Last identifier of a lock expression: [st.latch] -> "latch",
   [t] -> "t". *)
let lock_name_of expr =
  match expr.pexp_desc with
  | Pexp_field (_, lid) -> Some (Ast_util.field_last lid)
  | Pexp_ident { txt; _ } -> Some (Ast_util.last_of (Ast_util.flatten_longident txt))
  | _ -> None

let class_of ~file lock_expr =
  Option.bind (lock_name_of lock_expr) (fun lock_name -> classify ~file ~lock_name)

let mutex_call expr which =
  match expr.pexp_desc with
  | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) -> (
      match Ast_util.ident_path fn with
      | Some [ "Mutex"; f ] when String.equal f which -> Some arg
      | _ -> None)
  | _ -> None

(* --- lexical lock regions ------------------------------------------- *)

type region =
  | Holding of {
      lock : expression;
      at : Location.t;  (** the acquisition *)
      body : expression list;  (** runs with [lock] held *)
      outside : expression list;  (** evaluated without it *)
    }
      (** [with_lock [~label] L F ...]: [F] and any later positional
          argument run with [L] held; [Mutex.lock L; e]: [e], the rest
          of the sequence, does. *)
  | Releasing of { lock : expression; rest : expression }
      (** [Mutex.unlock L; e]: [e] runs without [L]. *)

(* The definition of a [with_lock] wrapper takes [Mutex.lock m] on its
   parameter: inside it the bare mutex calls are no region, the
   wrapper's call sites are. *)
let is_wrapper_name name = String.equal name "with_lock"

let is_wrapper_binding vb =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> is_wrapper_name txt | _ -> false

let region ~in_wrapper e =
  match e.pexp_desc with
  | Pexp_apply (fn, args)
    when (match Ast_util.ident_last fn with Some f -> is_wrapper_name f | None -> false)
    -> (
      let positional =
        List.filter_map (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None) args
      in
      match positional with
      | lock :: (_ :: _ as body) ->
          Some (Holding { lock; at = e.pexp_loc; body; outside = [ lock ] })
      | _ -> None)
  | Pexp_sequence (e1, rest) when not in_wrapper -> (
      match (mutex_call e1 "lock", mutex_call e1 "unlock") with
      | Some lock, _ ->
          Some (Holding { lock; at = e1.pexp_loc; body = [ rest ]; outside = [] })
      | None, Some lock -> Some (Releasing { lock; rest })
      | None, None -> None)
  | _ -> None
