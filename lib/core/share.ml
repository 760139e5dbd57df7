module Cyclic = Secshare_poly.Cyclic

let client ring ~seed ~pre = Secshare_prg.Node_prg.client_poly ~ring ~seed ~pre
let server_share ring ~seed ~pre f = Cyclic.sub ring f (client ring ~seed ~pre)
let reconstruct ring ~seed ~pre ~server = Cyclic.add ring (client ring ~seed ~pre) server
let combine_evaluations (ring : Secshare_poly.Ring.t) ~client ~server =
  ring.Secshare_poly.Ring.add client server

(* --- Shamir t-of-n re-sharing of the server share (lib/shard) ---

   The 2-party split above is unchanged: client + server = f.  Sharded
   serving re-shares the SERVER half coefficient-wise across n shard
   servers so any t reconstruct it and t-1 learn nothing beyond what
   one server already held (a uniform masking of f).  Packing is
   byte-compatible with the single-server share format: every shard
   table row is a valid [Codec]-packed coefficient vector, so the flat
   kernels evaluate shard shares unchanged. *)

module Shamir = Secshare_poly.Shamir
module Codec = Secshare_poly.Codec
module Ring = Secshare_poly.Ring

let shard_xs ~shards = List.init shards (fun i -> i + 1)

let shard_server_share (ring : Ring.t) ~threshold ~shards ~gen packed =
  let q = ring.Ring.order and n = ring.Ring.n in
  let coeffs = Codec.unpack ~q ~n packed in
  Shamir.share_vector ring ~threshold ~xs:(shard_xs ~shards) ~gen coeffs
  |> List.map (Codec.pack ~q)

(* Fields with byte tables (q <= 256, the paper's F_83 included)
   recombine through the flat kernel; larger fields keep the unpack /
   combine / pack path, which is also the kernel's test oracle. *)
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
      Secshare_poly.Flat.combine_packed_into tab ~n ~rows (Array.of_list packed_shares)
        ~out;
      out
  | None ->
      Shamir.combine_vectors ring ~lambdas (List.map (Codec.unpack ~q ~n) packed_shares)
      |> Codec.pack ~q
