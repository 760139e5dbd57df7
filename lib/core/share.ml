module Codec = Secshare_poly.Codec
module Evals = Secshare_poly.Evals
module Flat = Secshare_poly.Flat
module Ring = Secshare_poly.Ring
module Node_prg = Secshare_prg.Node_prg

(* --- the filters' and the encoder's share arithmetic (DESIGN.md §13) ---

   Every share is a vector of values at the nonzero points (Evals).
   The one per-ring choice of the system: a field with byte tables
   (q <= 256, the paper's F_83 included) runs the allocation-free
   kernels in [Flat]; a larger field runs the closure-based reference
   ([Evals], [Codec]), which is also the kernels' test oracle.  Both
   give bit-identical results and reject the same inputs. *)

let client ring ~seed ~pre = Node_prg.client_poly ~ring ~seed ~pre

(* A fresh vector from a kernel writing [n] canonical values. *)
let via_kernel (ring : Ring.t) kernel =
  let out = Array.make ring.Ring.n 0 in
  kernel out;
  Evals.of_canonical ring out

let server_share (ring : Ring.t) ~seed ~pre f =
  let c = client ring ~seed ~pre in
  match ring.Ring.table with
  | Some tab ->
      via_kernel ring (fun out ->
          Flat.sub_into tab ~n:ring.Ring.n ~a:(Evals.view f) ~b:(Evals.view c) ~out)
  | None -> Evals.sub ring f c

let reconstruct ring ~seed ~pre ~server = Evals.add ring (client ring ~seed ~pre) server
let combine_evaluations (ring : Ring.t) ~client ~server = ring.Ring.add client server

type point = { slot : int }

let point ring x = { slot = Evals.slot ring x }

let eval_packed (ring : Ring.t) pt packed =
  match ring.Ring.table with
  | Some tab -> Flat.eval_share tab ~n:ring.Ring.n ~slot:pt.slot packed
  | None -> (Codec.unpack ~q:ring.Ring.order ~n:ring.Ring.n packed).(pt.slot)

let client_value reader ~pre pt = Node_prg.client_value reader ~pre ~slot:pt.slot

let add_packed (ring : Ring.t) ~client packed =
  match ring.Ring.table with
  | Some tab ->
      let client = Evals.view client and n = ring.Ring.n in
      via_kernel ring (fun out -> Flat.reconstruct_into tab ~n ~client packed ~out)
  | None -> Evals.add ring client (Codec.unpack_evals ring packed)

(* One buffer: the first factor's copy, multiplied into in place. *)
let product (ring : Ring.t) polys =
  match (ring.Ring.table, polys) with
  | None, _ | _, [] -> List.fold_left (Evals.mul ring) (Evals.one ring) polys
  | Some tab, first :: rest ->
      let n = ring.Ring.n in
      let acc = Evals.to_int_array first in
      List.iter
        (fun p -> Flat.pointwise_mul_into tab ~n ~a:acc ~b:(Evals.view p) ~out:acc)
        rest;
      Evals.of_canonical ring acc

let encode_node (ring : Ring.t) ~root children =
  let root = ring.Ring.normalize root in
  match (ring.Ring.table, children) with
  | _, None -> Evals.linear ring ~root
  | Some tab, Some product ->
      via_kernel ring (fun out ->
          Flat.linear_mul_into tab ~n:ring.Ring.n ~root ~a:(Evals.view product) ~out)
  | None, Some product -> Evals.mul ring (Evals.linear ring ~root) product

(* --- Shamir t-of-n re-sharing of the server share (lib/shard) ---

   The 2-party split above is unchanged: client + server = f.  Sharded
   serving re-shares the SERVER half value by value across n shard
   servers so any t reconstruct it and t-1 learn nothing beyond what
   one server already held (a uniform masking of f).  Packing is
   byte-compatible with the single-server share format: every shard
   table row is a valid [Codec]-packed vector, so the flat kernels read
   shard shares unchanged. *)

module Shamir = Secshare_poly.Shamir

let shard_xs ~shards = List.init shards (fun i -> i + 1)

let shard_server_share (ring : Ring.t) ~threshold ~shards ~gen packed =
  let q = ring.Ring.order and n = ring.Ring.n in
  let coeffs = Codec.unpack ~q ~n packed in
  Shamir.share_vector ring ~threshold ~xs:(shard_xs ~shards) ~gen coeffs
  |> List.map (Codec.pack ~q)

let reconstruct_packed (ring : Ring.t) ~lambdas packed_shares =
  let q = ring.Ring.order and n = ring.Ring.n in
  match ring.Ring.table with
  | Some tab ->
      let rows =
        Array.of_list
          (List.map
             (fun l -> Secshare_field.Table.mul_row tab ~point:(ring.Ring.normalize l))
             lambdas)
      in
      let out = Bytes.create (Codec.byte_length ~q ~n) in
      Flat.combine_packed_into tab ~n ~rows (Array.of_list packed_shares) ~out;
      out
  | None ->
      Shamir.combine_vectors ring ~lambdas (List.map (Codec.unpack ~q ~n) packed_shares)
      |> Codec.pack ~q
