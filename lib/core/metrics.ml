type t = {
  mutable evaluations : int;
  mutable equality_tests : int;
  mutable reconstructions : int;
  mutable nodes_examined : int;
  mutable degenerate_divisions : int;
}

let create () =
  {
    evaluations = 0;
    equality_tests = 0;
    reconstructions = 0;
    nodes_examined = 0;
    degenerate_divisions = 0;
  }

(* Destructuring patterns make these field-exhaustive: adding a
   counter to [t] without extending the aggregation here is a fatal
   missing-field warning under the dev profile, not a silently dropped
   count. *)
let add acc
    { evaluations; equality_tests; reconstructions; nodes_examined; degenerate_divisions }
    =
  acc.evaluations <- acc.evaluations + evaluations;
  acc.equality_tests <- acc.equality_tests + equality_tests;
  acc.reconstructions <- acc.reconstructions + reconstructions;
  acc.nodes_examined <- acc.nodes_examined + nodes_examined;
  acc.degenerate_divisions <- acc.degenerate_divisions + degenerate_divisions

(* --- per-operator counters for the streaming pipeline --- *)

type op_stats = {
  op_name : string;
  mutable batches : int;  (** output batches emitted *)
  mutable rows_in : int;
  mutable rows_out : int;
  counts : t;
  mutable rpc_calls : int;
  mutable rpc_bytes : int;
  mutable wall_seconds : float;
}

let op_stats op_name =
  {
    op_name;
    batches = 0;
    rows_in = 0;
    rows_out = 0;
    counts = create ();
    rpc_calls = 0;
    rpc_bytes = 0;
    wall_seconds = 0.0;
  }

let total ops =
  let acc = create () in
  List.iter (fun s -> add acc s.counts) ops;
  acc

let pp_op_table fmt ops =
  Format.fprintf fmt "%-28s %8s %8s %8s %8s %6s %8s %6s %10s %9s" "operator" "rows_in"
    "rows_out" "batches" "evals" "eqs" "recons" "rpcs" "bytes" "wall(s)";
  List.iter
    (fun s ->
      Format.fprintf fmt "@\n%-28s %8d %8d %8d %8d %6d %8d %6d %10d %9.4f" s.op_name
        s.rows_in s.rows_out s.batches s.counts.evaluations s.counts.equality_tests
        s.counts.reconstructions s.rpc_calls s.rpc_bytes s.wall_seconds)
    ops
