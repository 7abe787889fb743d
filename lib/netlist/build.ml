(* Construction DSL over a cell library. Generators and the .bench mapper
   use this to assemble circuits without touching cell objects directly:
   n-ary operations wider than the library's gates are decomposed into
   balanced trees, XORs into chains, and fresh names are managed here. *)

type t = {
  circuit : Circuit.t;
  lib : Cells.Library.t;
  drive_index : int; (* drive strength assigned to created gates *)
  reserved : string -> bool; (* names [fresh] must not return *)
  mutable counter : int;
}

let create ?(drive_index = 0) ?output_load ?(reserved = fun _ -> false) ~lib
    ~name () =
  {
    circuit = Circuit.create ?output_load ~name ();
    lib;
    drive_index;
    reserved;
    counter = 0;
  }

let circuit t = t.circuit
let library t = t.lib

let fresh t prefix =
  let rec next () =
    let name = Printf.sprintf "%s_%d" prefix t.counter in
    t.counter <- t.counter + 1;
    if Circuit.mem_name t.circuit name || t.reserved name then next ()
    else name
  in
  next ()

let input t ~name = Circuit.add_input t.circuit ~name

let inputs t ~prefix ~count =
  Array.init count (fun i ->
      Circuit.add_input t.circuit ~name:(Printf.sprintf "%s%d" prefix i))

let cell_for t fn = Cells.Library.cell_exn t.lib ~fn ~drive_index:t.drive_index

let gate ?name t fn fanins =
  let name = match name with Some n -> n | None -> fresh t (Cells.Fn.name fn) in
  Circuit.add_gate t.circuit ~name ~cell:(cell_for t fn) ~fanins

let not_ ?name t a = gate ?name t Cells.Fn.Inv [| a |]
let buf ?name t a = gate ?name t Cells.Fn.Buf [| a |]

(* Widest native arity the builder's library offers for a gate family —
   decomposition adapts to whatever the library actually has. *)
let native_cap t ~cap_fn =
  let lib = t.lib in
  if Cells.Library.mem_fn lib (cap_fn 4) then 4
  else if Cells.Library.mem_fn lib (cap_fn 3) then 3
  else if Cells.Library.mem_fn lib (cap_fn 2) then 2
  else
    invalid_arg
      (Printf.sprintf "Build: library %s lacks %s entirely"
         (Cells.Library.name lib)
         (Cells.Fn.name (cap_fn 2)))

let rec take n = function
  | rest when n = 0 -> ([], rest)
  | [] -> ([], [])
  | x :: rest ->
      let group, leftover = take (n - 1) rest in
      (x :: group, leftover)

(* One balanced reduction level: groups of up to [cap] operands collapse
   into gates; a lone leftover passes through to the next level. *)
let reduce_one_level t ~cap ~cap_fn operands =
  let rec go acc = function
    | [] -> List.rev acc
    | [ x ] -> List.rev (x :: acc)
    | rest ->
        let group, leftover = take (Stdlib.min cap (List.length rest)) rest in
        let g = gate t (cap_fn (List.length group)) (Array.of_list group) in
        go (g :: acc) leftover
  in
  go [] operands

(* The requested name must land on the ROOT gate of a decomposed tree (the
   .bench mapper relies on it), so reduction stops once the operands fit a
   single native gate, built explicitly with the name. *)
let rec nary ?name t ~cap_fn operands =
  let cap = native_cap t ~cap_fn in
  match operands with
  | [] -> invalid_arg "Build.nary: empty operand list"
  | [ x ] -> buf ?name t x
  | ops when List.length ops <= cap ->
      gate ?name t (cap_fn (List.length ops)) (Array.of_list ops)
  | ops -> nary ?name t ~cap_fn (reduce_one_level t ~cap ~cap_fn ops)

let and_ ?name t ops = nary ?name t ~cap_fn:(fun n -> Cells.Fn.And n) ops
let or_ ?name t ops = nary ?name t ~cap_fn:(fun n -> Cells.Fn.Or n) ops

(* NAND/NOR of arbitrary width: the native gate when the library fits it,
   otherwise an inverted AND/OR tree. *)
let nand ?name t ops =
  let n = List.length ops in
  if n >= 2 && n <= 4 && Cells.Library.mem_fn t.lib (Cells.Fn.Nand n) then
    gate ?name t (Cells.Fn.Nand n) (Array.of_list ops)
  else not_ ?name t (and_ t ops)

let nor ?name t ops =
  let n = List.length ops in
  if n >= 2 && n <= 4 && Cells.Library.mem_fn t.lib (Cells.Fn.Nor n) then
    gate ?name t (Cells.Fn.Nor n) (Array.of_list ops)
  else not_ ?name t (or_ t ops)

let xor2 ?name t a b = gate ?name t Cells.Fn.Xor2 [| a; b |]
let xnor2 ?name t a b = gate ?name t Cells.Fn.Xnor2 [| a; b |]

let rec xor ?name t = function
  | [] -> invalid_arg "Build.xor: empty operand list"
  | [ x ] -> buf ?name t x
  | [ a; b ] -> xor2 ?name t a b
  | [ a; b; c ] -> xor2 ?name t (xor2 t a b) c
  | ops ->
      (* pair up one level, recurse; the root XOR2 carries the name *)
      let rec pair = function
        | a :: b :: rest -> xor2 t a b :: pair rest
        | leftover -> leftover
      in
      xor ?name t (pair ops)

let mux2 ?name t ~sel ~a ~b = gate ?name t Cells.Fn.Mux2 [| a; b; sel |]
let aoi21 ?name t a b c = gate ?name t Cells.Fn.Aoi21 [| a; b; c |]
let oai21 ?name t a b c = gate ?name t Cells.Fn.Oai21 [| a; b; c |]

let output ?name t id =
  let id = match name with None -> id | Some n -> buf ~name:n t id in
  Circuit.mark_output t.circuit id;
  id

let finish ?(validate = true) t =
  if not validate then t.circuit
  else
    match Circuit.validate_diag t.circuit with
  | [] -> t.circuit
  | problems ->
      invalid_arg
        (Printf.sprintf "Build.finish: invalid circuit %s: %s"
           (Circuit.name t.circuit)
           (String.concat "; " (List.map Diag.to_string problems)))
