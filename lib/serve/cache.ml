type 'a entry = { content : string; value : 'a }

type 'a t = {
  hash : string -> string;
  m : Mutex.t;
  tbl : (string, 'a entry) Hashtbl.t;
}

let create ?(hash = Digest.string) () =
  { hash; m = Mutex.create (); tbl = Hashtbl.create 16 }

type 'a outcome = Hit of 'a | Miss of 'a | Collision of string

let find_or_build t ~content ~build =
  let digest = t.hash content in
  let lookup () =
    Mutex.protect t.m (fun () -> Hashtbl.find_opt t.tbl digest)
  in
  match lookup () with
  | Some e when String.equal e.content content -> Hit e.value
  | Some _ ->
      Collision
        (Printf.sprintf
           "cache digest %S matches an entry with different content"
           (String.escaped digest))
  | None -> (
      let value = build () in
      (* first insert wins: if another domain built the same content in the
         meantime, serve its (identical, deterministically-built) value *)
      Mutex.protect t.m (fun () ->
          match Hashtbl.find_opt t.tbl digest with
          | Some e when String.equal e.content content -> Hit e.value
          | Some _ ->
              Collision
                (Printf.sprintf
                   "cache digest %S matches an entry with different content"
                   (String.escaped digest))
          | None ->
              Hashtbl.add t.tbl digest { content; value };
              Miss value))

let find t ~content =
  match Mutex.protect t.m (fun () -> Hashtbl.find_opt t.tbl (t.hash content)) with
  | Some e when String.equal e.content content -> Some e.value
  | Some _ | None -> None

let length t = Mutex.protect t.m (fun () -> Hashtbl.length t.tbl)
