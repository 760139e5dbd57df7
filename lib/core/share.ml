module Cyclic = Secshare_poly.Cyclic
module Codec = Secshare_poly.Codec
module Flat = Secshare_poly.Flat
module Ring = Secshare_poly.Ring

let client ring ~seed ~pre = Secshare_prg.Node_prg.client_poly ~ring ~seed ~pre
let server_share ring ~seed ~pre f = Cyclic.sub ring f (client ring ~seed ~pre)
let reconstruct ring ~seed ~pre ~server = Cyclic.add ring (client ring ~seed ~pre) server
let combine_evaluations (ring : Secshare_poly.Ring.t) ~client ~server =
  ring.Secshare_poly.Ring.add client server

(* --- the filters' share arithmetic (DESIGN.md §13) ---

   The one per-ring choice of the system: a field with byte tables
   (q <= 256, the paper's F_83 included) runs the allocation-free
   kernels in [Flat]; a larger field runs the closure-based reference
   ([Cyclic], [Codec]), which is also the kernels' test oracle.  Both
   give bit-identical results and reject the same inputs. *)

type point = { x : int; kernel : (Secshare_field.Table.t * Bytes.t) option }

let point (ring : Ring.t) x =
  let x = ring.Ring.normalize x in
  if x = 0 then invalid_arg "Cyclic.eval: evaluation at 0 is not preserved by reduction";
  { x; kernel = Option.map (fun tab -> (tab, Flat.point_row tab ~point:x)) ring.Ring.table }

let eval_packed (ring : Ring.t) pt packed =
  match pt.kernel with
  | Some (tab, mul_row) -> Flat.eval_share tab ~mul_row ~n:ring.Ring.n packed
  | None -> Cyclic.eval ring (Codec.unpack_cyclic ring packed) pt.x

let eval_poly ring pt poly =
  match pt.kernel with
  | Some (tab, mul_row) -> Flat.eval_coeffs tab ~mul_row (Cyclic.view poly)
  | None -> Cyclic.eval ring poly pt.x

let add_packed (ring : Ring.t) ~client packed =
  match ring.Ring.table with
  | Some tab ->
      let n = ring.Ring.n in
      let out = Array.make n 0 in
      Flat.reconstruct_into tab ~n ~client:(Cyclic.view client) packed ~out;
      Cyclic.of_canonical ring out
  | None -> Cyclic.add ring client (Codec.unpack_cyclic ring packed)

(* The kernel ping-pongs two scratch buffers through [Flat.mul_into],
   so an arbitrarily wide node costs two allocations; same fold order
   as the reference. *)
let product (ring : Ring.t) polys =
  match (ring.Ring.table, polys) with
  | None, _ | _, [] -> List.fold_left (Cyclic.mul ring) (Cyclic.one ring) polys
  | Some tab, first :: rest ->
      let n = ring.Ring.n in
      let acc = ref (Array.copy (Cyclic.view first)) in
      let scratch = ref (Array.make n 0) in
      List.iter
        (fun p ->
          Flat.mul_into tab ~n ~a:!acc ~b:(Cyclic.view p) ~out:!scratch;
          let swap = !acc in
          acc := !scratch;
          scratch := swap)
        rest;
      Cyclic.of_canonical ring !acc

(* --- Shamir t-of-n re-sharing of the server share (lib/shard) ---

   The 2-party split above is unchanged: client + server = f.  Sharded
   serving re-shares the SERVER half coefficient-wise across n shard
   servers so any t reconstruct it and t-1 learn nothing beyond what
   one server already held (a uniform masking of f).  Packing is
   byte-compatible with the single-server share format: every shard
   table row is a valid [Codec]-packed coefficient vector, so the flat
   kernels evaluate shard shares unchanged. *)

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
