(* Quickstart: the paper's figure-1 example, end to end.

   We encode the six-node document over F_5 with the map
   a = 2, b = 1, c = 3, look at the shares, and run queries with both
   engines and both tests.

     dune exec examples/quickstart.exe *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common

let xml = "<a><b><c/></b><c><a/><b/></c></a>"

let () =
  (* The map and the seed are the client's secrets; the server sees
     neither. *)
  let mapping =
    Result.get_ok (Secshare_core.Mapping.of_file_string "q = 5\na = 2\nb = 1\nc = 3\n")
  in
  let config =
    {
      DB.default_config with
      p = 5;
      mapping = `Explicit mapping;
      seed = Some (Secshare_prg.Seed.of_passphrase "quickstart");
    }
  in
  let db = Result.get_ok (DB.create ~config xml) in

  print_endline "document:";
  Printf.printf "  %s\n\n" xml;

  (* What the server stores: pre/post/parent plus an opaque share. *)
  print_endline "server table (what an attacker sees):";
  Secshare_store.Node_table.iter (DB.table db) ~f:(fun row ->
      Printf.printf "  pre=%d post=%d parent=%d share=%s\n" row.Secshare_store.Page.pre
        row.Secshare_store.Page.post row.Secshare_store.Page.parent
        (String.concat ""
           (List.init
              (Bytes.length row.Secshare_store.Page.share)
              (fun i ->
                Printf.sprintf "%02x" (Bytes.get_uint8 row.Secshare_store.Page.share i)))));

  (* What the client can reconstruct: the true polynomials of fig 1(d). *)
  print_endline "\nreconstructed node polynomials (client side, fig 1(d)):";
  let ring = DB.ring db in
  Secshare_store.Node_table.iter (DB.table db) ~f:(fun row ->
      let server = Secshare_poly.Codec.unpack_evals ring row.Secshare_store.Page.share in
      let values =
        Secshare_core.Share.reconstruct ring ~seed:(DB.seed db)
          ~pre:row.Secshare_store.Page.pre ~server
      in
      (* shares hold values at the nonzero points; interpolate them
         back to the coefficients of the figure *)
      Printf.printf "  pre=%d  %s\n" row.Secshare_store.Page.pre
        (Format.asprintf "%a" Secshare_poly.Dense.pp
           (Secshare_poly.Cyclic.to_dense ring (Secshare_poly.Evals.to_cyclic ring values))));

  (* Queries. *)
  print_endline "\nqueries:";
  let show q engine strictness label =
    match DB.query ~engine ~strictness db q with
    | Error e -> Printf.printf "  %-22s %-22s error: %s\n" q label e
    | Ok r ->
        Printf.printf "  %-22s %-22s -> nodes %s (%d evaluations)\n" q label
          (String.concat ","
             (List.map
                (fun (m : Secshare_rpc.Protocol.node_meta) ->
                  string_of_int m.Secshare_rpc.Protocol.pre)
                (DB.result_nodes r)))
          r.DB.metrics.Secshare_core.Metrics.evaluations
  in
  show "/a" DB.Advanced QC.Strict "advanced+equality";
  show "//a" DB.Simple QC.Strict "simple+equality";
  show "//a" DB.Simple QC.Non_strict "simple+containment";
  show "/a/c/b" DB.Advanced QC.Strict "advanced+equality";
  print_endline
    "\nNote how //a with the containment test also returns node 4 (the second\n\
     c), whose subtree merely *contains* an a — that is the accuracy gap of\n\
     the paper's figure 7.";
  DB.close db
