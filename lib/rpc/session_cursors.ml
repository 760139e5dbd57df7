let unknown_cursor id = Protocol.Error_msg (Printf.sprintf "unknown cursor %d" id)

let connection ~handler ~release =
  let owned = Hashtbl.create 8 in
  let on_request (request : Protocol.request) =
    match request with
    | Protocol.Scan_next { cursor; _ } when not (Hashtbl.mem owned cursor) ->
        unknown_cursor cursor
    | Protocol.Cursor_close cursor when not (Hashtbl.mem owned cursor) -> Protocol.Pong
    | _ ->
        let response = handler request in
        (match (request, response) with
        | _, Protocol.Scan_batch { cursor = Some id; _ } -> Hashtbl.replace owned id ()
        | Protocol.Scan_next { cursor; _ }, Protocol.Scan_batch { cursor = None; _ }
        | Protocol.Cursor_close cursor, _ ->
            Hashtbl.remove owned cursor
        | _ -> ());
        response
  in
  let on_close () =
    let ids = Hashtbl.fold (fun id () acc -> id :: acc) owned [] in
    Hashtbl.reset owned;
    List.iter release ids
  in
  (on_request, on_close)
