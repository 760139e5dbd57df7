(* CLI: front a group of threshold shard servers with one router
   socket speaking the ordinary filter protocol.

   Clients connect exactly as they would to a single ssdb_server
   (ssdb_query --connect works unchanged); the router learns the field
   and the deployment from the shards' manifest handshakes, sends point
   lookups and fused scans to one serving group of threshold shards,
   folds the Shamir shares back together, and keeps answering while at
   least the threshold number of shards is live. *)

open Cmdliner
module Obs = Secshare_obs
module Router = Secshare_shard.Router
module Manifest = Secshare_shard.Manifest

let open_service shard_paths timeout max_retries max_cursors () =
  let policy =
    {
      Secshare_rpc.Transport.default_policy with
      Secshare_rpc.Transport.call_timeout =
        (if timeout > 0.0 then Some timeout else None);
      max_retries;
    }
  in
  match Router.connect ~policy ~max_cursors shard_paths with
  | Error _ as e -> e
  | Ok router ->
      let m = Router.manifest router in
      Obs.Registry.gauge_fn ~help:"Shards in the deployment." "ssdb_router_shards"
        (fun () -> float_of_int (Router.shards router));
      Ok
        {
          Cli.connection = (fun () -> Router.connection router);
          healthy = (fun () -> Router.live_shards router >= Router.threshold router);
          announce =
            (fun socket ->
              Obs.Events.info "routing %d-of-%d shards on %s" m.Manifest.threshold
                m.Manifest.shards socket;
              Printf.printf "routing %d-of-%d shards (%d rows) on %s\n%!"
                m.Manifest.threshold m.Manifest.shards m.Manifest.rows socket);
          shutdown =
            (fun srv ->
              Router.close router;
              Printf.sprintf
                "router stopped: %d connections, %d requests; %d of %d shards still \
                 live\n"
                srv.Secshare_rpc.Server.connections_accepted
                srv.Secshare_rpc.Server.requests_handled (Router.live_shards router)
                (Router.shards router));
        }

let run shard_paths timeout max_retries max_cursors listener =
  if shard_paths = [] then Cli.usage_err "need at least one --shard SOCKET"
  else
    Cli.serve listener ~start:(open_service shard_paths timeout max_retries max_cursors)

let shard_paths =
  Arg.(
    value & opt_all string []
    & info [ "shard" ] ~docv:"SOCKET"
        ~doc:
          "Unix-domain socket of one shard server (repeat once per shard; all \
           shards of the deployment must be given).")

let timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-call deadline towards each shard; 0 waits forever.")

let max_retries_arg =
  Cli.max_retries ~default:2
    ~doc:"Retries per idempotent shard call before the shard counts as dead."

let cmd =
  let doc = "route filter-protocol queries across threshold shard servers" in
  Cmd.v (Cmd.info "ssdb_router" ~doc)
    Term.(
      ret
        (const run $ shard_paths $ timeout_arg $ max_retries_arg
       $ Cli.max_cursors
        $ Cli.listener ~socket:"/tmp/secshare-router.sock" ~spans:"router-side span"
            ~healthz:
              " that also fails once fewer than the threshold number of shards is live"
        ))

let () = exit (Cmd.eval' cmd)
