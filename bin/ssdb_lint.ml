(* ssdb_lint: the project's AST-level invariant checker.

   Parses every .ml under the given paths and runs the pass registry:
   secret-flow (no share/seed/poly/tag material into logs, error
   strings or metric labels), lock-order (the ranks declared in
   Race_check.lock_order), banned-API (Stdlib.Random, Obj.magic,
   polymorphic compare on polynomials, unguarded Hashtbl mutation in
   concurrent modules), accounting discipline (single cursor removal
   path, Metrics merged only via Metrics.add) and races (whole-program
   guarded-by/domain-confinement checking against the declared
   concurrency model, DESIGN.md §16).

   Exit code 1 on any unsuppressed error-severity finding. *)

module Lint = Secshare_lint

let run format include_fixtures pass paths =
  let paths = if paths = [] then [ "lib"; "bin"; "test"; "bench" ] else paths in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  match missing with
  | p :: _ ->
      Printf.eprintf "ssdb_lint: no such path: %s\n" p;
      exit 2
  | [] ->
      (match pass with
      | Some name when not (List.mem name Lint.Driver.pass_names) ->
          Printf.eprintf "ssdb_lint: unknown pass %s (have: %s)\n" name
            (String.concat ", " Lint.Driver.pass_names);
          exit 2
      | _ -> ());
      let passes = Option.map (fun name -> [ name ]) pass in
      let report = Lint.Driver.lint_paths ~include_fixtures ?passes paths in
      (match format with
      | `Text -> Lint.Driver.print_text stdout report
      | `Json -> Lint.Driver.print_json stdout report
      | `Sarif -> Lint.Driver.print_sarif stdout report);
      exit (Lint.Driver.exit_code report)

open Cmdliner

let format =
  let parse = function
    | "text" -> Ok `Text
    | "json" -> Ok `Json
    | "sarif" -> Ok `Sarif
    | s -> Error (`Msg ("unknown format " ^ s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with `Text -> "text" | `Json -> "json" | `Sarif -> "sarif")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Text
    & info [ "format" ] ~docv:"text|json|sarif" ~doc:"Report format.")

let include_fixtures =
  Arg.(
    value & flag
    & info [ "include-fixtures" ]
        ~doc:"Also lint test/lint_fixtures when recursing into directories.")

let pass =
  Arg.(
    value
    & opt (some string) None
    & info [ "pass" ] ~docv:"NAME"
        ~doc:
          "Run a single pass (secret-flow, lock-order, banned-api, accounting, \
           races).  Suppression-hygiene findings only fire on full runs.")

let paths =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH" ~doc:"Files or directories to lint (default: lib bin test bench).")

let cmd =
  let doc = "AST-level invariant checker for secret-flow, lock order, races and banned APIs" in
  Cmd.v
    (Cmd.info "ssdb_lint" ~doc)
    Term.(const run $ format $ include_fixtures $ pass $ paths)

let () = exit (Cmd.eval cmd)
