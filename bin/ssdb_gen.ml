(* CLI: generate a synthetic XMark auction document. *)

open Cmdliner

let run target_kb factor gen_seed output pretty =
  let seed = Int64.of_int gen_seed in
  match
    match target_kb with
    | Some kb -> Secshare_xmark.Generate.generate_bytes ~seed ~target_bytes:(kb * 1024) ()
    | None -> Secshare_xmark.Generate.generate ~seed ~factor ()
  with
  (* a target the generator cannot meet is a command-line error *)
  | exception Invalid_argument m -> Cli.usage_err "%s" m
  | doc ->
      let indent = if pretty then Some 2 else None in
      let text = Secshare_xml.Print.to_string ~decl:true ?indent doc in
      (match output with
      | None -> print_string text
      | Some path -> Out_channel.with_open_text path (fun oc -> output_string oc text));
      let elements = Secshare_xml.Tree.element_count doc in
      Printf.eprintf "generated %d elements, %d bytes\n" elements (String.length text);
      `Ok 0

let target_kb =
  let doc = "Target serialised size in KiB (overrides --factor)." in
  Arg.(value & opt (some int) None & info [ "size-kb" ] ~docv:"KB" ~doc)

let factor =
  let doc = "Scale factor; 1.0 is roughly 100 KB." in
  Arg.(value & opt float 1.0 & info [ "factor" ] ~docv:"F" ~doc)

let gen_seed =
  let doc = "Generator seed (documents are deterministic per seed)." in
  Arg.(value & opt int 20050905 & info [ "seed" ] ~docv:"N" ~doc)

let output =
  let doc = "Output file (stdout if omitted)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let pretty =
  let doc = "Pretty-print with indentation." in
  Arg.(value & flag & info [ "pretty" ] ~doc)

let cmd =
  let doc = "generate a synthetic XMark auction document" in
  let info = Cmd.info "ssdb_gen" ~doc in
  Cmd.v info Term.(ret (const run $ target_kb $ factor $ gen_seed $ output $ pretty))

let () = exit (Cmd.eval' cmd)
