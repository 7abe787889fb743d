type 'a t = { m : Mutex.t; tbl : (string, 'a) Hashtbl.t }

let create () = { m = Mutex.create (); tbl = Hashtbl.create 16 }

type 'a outcome = Hit of 'a | Miss of 'a

let find t ~content = Mutex.protect t.m (fun () -> Hashtbl.find_opt t.tbl content)

let find_or_build t ~content ~build =
  match find t ~content with
  | Some v -> Hit v
  | None ->
      let value = build () in
      (* first insert wins: if another domain built the same content in the
         meantime, serve its (identical, deterministically-built) value *)
      Mutex.protect t.m (fun () ->
          match Hashtbl.find_opt t.tbl content with
          | Some v -> Hit v
          | None ->
              Hashtbl.add t.tbl content value;
              Miss value)

let length t = Mutex.protect t.m (fun () -> Hashtbl.length t.tbl)
