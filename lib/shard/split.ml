(* Offline dealer for sharded serving (see split.mli). *)

module Ring = Secshare_poly.Ring
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Share = Secshare_core.Share
module Node_prg = Secshare_prg.Node_prg
module Numeric = Secshare_core.Numeric

(* The one geometry check both dealers run before writing a row: a
   group of [threshold] must exist among [shards] distinct nonzero
   x-coordinates of a field of [order] elements. *)
let check_geometry ~what ~order ~threshold ~shards ~sinks =
  if Array.length sinks <> shards then
    invalid_arg
      (Printf.sprintf "Split.%s: %d sinks for %d shards" what (Array.length sinks) shards);
  if shards < 1 then invalid_arg (Printf.sprintf "Split.%s: shards < 1" what);
  if threshold < 1 || threshold > shards then
    invalid_arg
      (Printf.sprintf "Split.%s: threshold %d outside [1, %d]" what threshold shards);
  if shards >= order then
    invalid_arg
      (Printf.sprintf
         "Split.%s: %d shards need %d distinct nonzero x-coordinates but the field has \
          only %d"
         what shards shards (order - 1))

(* The per-row dealer loop: one PRG stream per row, keyed by pre and
   consumed left to right by [share_cell], whose [shards] outputs go to
   the sinks in x-coordinate order with the row's numbering intact. *)
let deal ~what ~order ~threshold ~shards ~source ~sinks ~draws share_cell =
  check_geometry ~what ~order ~threshold ~shards ~sinks;
  Node_table.iter source ~f:(fun row ->
      let draws = draws row.Page.pre in
      let next = ref 0 in
      let gen () =
        let v = draws.(!next) in
        incr next;
        v
      in
      List.iteri
        (fun i share -> Node_table.insert sinks.(i) { row with Page.share })
        (share_cell ~gen row.Page.share))

let split_table (ring : Ring.t) ~threshold ~shards ~dealer_seed ~source ~sinks =
  let q = ring.Ring.order in
  (* threshold - 1 dealer draws per coefficient *)
  let count = (threshold - 1) * ring.Ring.n in
  deal ~what:"split_table" ~order:q ~threshold ~shards ~source ~sinks
    ~draws:(fun pre -> Node_prg.coefficients ~seed:dealer_seed ~pre ~q ~count)
    (Share.shard_server_share ring ~threshold ~shards);
  let rows = Node_table.row_count source in
  Array.init shards (fun i ->
      {
        Manifest.shard_id = i + 1;
        shards;
        threshold;
        p = ring.Ring.characteristic;
        e = ring.Ring.degree;
        rows;
      })

let split_numbers ~threshold ~shards ~dealer_seed ~source ~sinks =
  let xs = Share.shard_xs ~shards in
  (* the numeric dealer stream is domain-separated from the polynomial
     dealer's draws under the same seed *)
  deal ~what:"split_numbers" ~order:Numeric.modulus ~threshold ~shards ~source ~sinks
    ~draws:(fun pre -> Numeric.dealer_draws ~seed:dealer_seed ~pre ~count:(threshold - 1))
    (fun ~gen cell ->
      Numeric.Shamir.share () ~threshold ~xs ~gen (Numeric.of_bytes cell)
      |> List.map Numeric.to_bytes)
