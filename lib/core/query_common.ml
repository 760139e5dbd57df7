module Protocol = Secshare_rpc.Protocol

type strictness = Strict | Non_strict

(* What a query evaluates to.  Node queries stream metadata; aggregate
   queries fold server partials and client blinds into one number.
   Sum/Avg are exact rationals ([Qnum]) so fixed-point scales and the
   Avg division never round. *)
type value =
  | Nodes of Protocol.node_meta list
  | Count of int
  | Sum of Qnum.t
  | Avg of Qnum.t

exception Query_error of string

let map_point mapping name =
  match Mapping.value mapping name with
  | Some v -> v
  | None -> raise (Query_error (Printf.sprintf "tag name %S has no map entry" name))

let look_points mapping names = List.map (map_point mapping) names

module Int_map = Map.Make (Int)

let sort_dedup metas =
  let by_pre =
    List.fold_left
      (fun acc (m : Protocol.node_meta) -> Int_map.add m.Protocol.pre m acc)
      Int_map.empty metas
  in
  List.map snd (Int_map.bindings by_pre)

let empty_value = function
  | None -> Nodes []
  | Some Secshare_xpath.Ast.Count -> Count 0
  | Some Secshare_xpath.Ast.Sum -> Sum Qnum.zero
  | Some Secshare_xpath.Ast.Avg -> Avg Qnum.zero

(* The fixed-point scale an aggregate plan needs: Count has none;
   Sum/Avg read the aggregatable flag of the path's final tag.  Runs
   on the rewritten path, but trie expansion never touches a final
   step without a contains() predicate — which Sum/Avg require. *)
let agg_scale mapping ~func query =
  match (func : Secshare_xpath.Ast.agg_func) with
  | Count -> 0
  | Sum | Avg -> (
      match List.rev query with
      | { Secshare_xpath.Ast.test = Name name; _ } :: _ -> (
          match Mapping.aggregatable_scale mapping name with
          | Some scale -> scale
          | None ->
              raise
                (Query_error
                   (Printf.sprintf
                      "tag %S is not aggregatable (not every occurrence is a numeric \
                       leaf)"
                      name)))
      | _ ->
          raise
            (Query_error
               (Printf.sprintf "%s() needs a path ending in a tag name"
                  (Secshare_xpath.Ast.func_to_string func))))
