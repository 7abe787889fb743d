type t = { fd : Unix.file_descr; ic : in_channel }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd }

let send_line t line =
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let rec go off =
    if off < len then go (off + Unix.write t.fd payload off (len - off))
  in
  go 0

let recv_line t = In_channel.input_line t.ic

let request t line =
  send_line t line;
  match recv_line t with
  | Some response -> response
  | None -> failwith "serve client: daemon closed the connection"

let close t =
  (* closing the channel closes the underlying fd *)
  try In_channel.close t.ic with Sys_error _ -> ()

let with_connection ~socket f =
  let t = connect ~socket in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let session ~socket lines =
  with_connection ~socket (fun t ->
      List.iter (send_line t) lines;
      List.map
        (fun _ ->
          match recv_line t with
          | Some r -> r
          | None -> failwith "serve client: connection closed mid-session")
        lines)
