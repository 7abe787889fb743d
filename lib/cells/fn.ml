(* Logic functions implementable by library cells. Arities are encoded in the
   constructor (e.g. [Nand 3]) and validated by {!create}-style helpers. *)

type t =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Xor2
  | Xnor2
  | Aoi21 (* !(a·b + c) *)
  | Oai21 (* !((a+b)·c) *)
  | Mux2 (* s ? b : a, inputs ordered a, b, s *)

let all_shapes =
  [ Inv; Buf; Nand 2; Nand 3; Nand 4; Nor 2; Nor 3; Nor 4; And 2; And 3; And 4;
    Or 2; Or 3; Or 4; Xor2; Xnor2; Aoi21; Oai21; Mux2 ]

(* A dense index over the valid functions, [all_shapes]' positions: library
   lookups index an array by it instead of comparing constructors. *)
let index_count = 19

let index = function
  | Inv -> 0
  | Buf -> 1
  | Nand n when n >= 2 && n <= 4 -> n
  | Nor n when n >= 2 && n <= 4 -> n + 3
  | And n when n >= 2 && n <= 4 -> n + 6
  | Or n when n >= 2 && n <= 4 -> n + 9
  | Nand _ | Nor _ | And _ | Or _ -> -1
  | Xor2 -> 14
  | Xnor2 -> 15
  | Aoi21 -> 16
  | Oai21 -> 17
  | Mux2 -> 18

let valid = function
  | Inv | Buf | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 -> true
  | Nand n | Nor n | And n | Or n -> n >= 2 && n <= 4

let arity = function
  | Inv | Buf -> 1
  | Nand n | Nor n | And n | Or n -> n
  | Xor2 | Xnor2 -> 2
  | Aoi21 | Oai21 | Mux2 -> 3

let name = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand n -> Printf.sprintf "NAND%d" n
  | Nor n -> Printf.sprintf "NOR%d" n
  | And n -> Printf.sprintf "AND%d" n
  | Or n -> Printf.sprintf "OR%d" n
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Mux2 -> "MUX2"

let of_name s =
  let s = String.uppercase_ascii s in
  let find () = List.find_opt (fun f -> String.equal (name f) s) all_shapes in
  match find () with
  | Some f -> Some f
  | None -> (
      (* Accept common ISCAS .bench aliases. *)
      match s with
      | "NOT" -> Some Inv
      | "BUFF" -> Some Buf
      | "XOR" -> Some Xor2
      | "XNOR" -> Some Xnor2
      | "NAND" -> Some (Nand 2)
      | "NOR" -> Some (Nor 2)
      | "AND" -> Some (And 2)
      | "OR" -> Some (Or 2)
      | _ -> None)

(* Boolean evaluation, used by simulation-based equivalence tests on the
   benchmark generators. *)
let eval t inputs =
  let n = Array.length inputs in
  if n <> arity t then
    invalid_arg
      (Printf.sprintf "Fn.eval: %s expects %d inputs, got %d" (name t) (arity t) n);
  let all_true () = Array.for_all Fun.id inputs in
  let any_true () = Array.exists Fun.id inputs in
  match t with
  | Inv -> not inputs.(0)
  | Buf -> inputs.(0)
  | Nand _ -> not (all_true ())
  | Nor _ -> not (any_true ())
  | And _ -> all_true ()
  | Or _ -> any_true ()
  | Xor2 -> inputs.(0) <> inputs.(1)
  | Xnor2 -> inputs.(0) = inputs.(1)
  | Aoi21 -> not ((inputs.(0) && inputs.(1)) || inputs.(2))
  | Oai21 -> not ((inputs.(0) || inputs.(1)) && inputs.(2))
  | Mux2 -> if inputs.(2) then inputs.(1) else inputs.(0)

(* Inverting functions matter for slew/polarity bookkeeping; we keep timing
   polarity-independent but expose this for netlist analyses. *)
let inverting = function
  | Inv | Nand _ | Nor _ | Xnor2 | Aoi21 | Oai21 -> true
  | Buf | And _ | Or _ | Xor2 | Mux2 -> false

(* Logical-effort-style electrical parameters that seed the generated
   library: [effort] scales load sensitivity, [parasitic] the intrinsic
   delay (both in units of the technology time constant τ). *)
let effort = function
  | Inv -> 1.0
  | Buf -> 1.1
  | Nand n -> (float_of_int n +. 2.0) /. 3.0
  | Nor n -> ((2.0 *. float_of_int n) +. 1.0) /. 3.0
  | And n -> ((float_of_int n +. 2.0) /. 3.0) +. 0.35
  | Or n -> (((2.0 *. float_of_int n) +. 1.0) /. 3.0) +. 0.35
  | Xor2 -> 4.0
  | Xnor2 -> 4.0
  | Aoi21 -> 2.0
  | Oai21 -> 2.0
  | Mux2 -> 2.0

let parasitic = function
  | Inv -> 1.0
  | Buf -> 2.0
  | Nand n | Nor n -> float_of_int n
  | And n | Or n -> float_of_int n +. 1.0
  | Xor2 | Xnor2 -> 4.0
  | Aoi21 | Oai21 -> 3.0
  | Mux2 -> 3.5

(* Relative layout area of the minimum-size variant, in units of a
   minimum-size inverter. *)
let base_area = function
  | Inv -> 1.0
  | Buf -> 1.6
  | Nand n | Nor n -> float_of_int n *. 0.9
  | And n | Or n -> (float_of_int n *. 0.9) +. 0.7
  | Xor2 | Xnor2 -> 3.2
  | Aoi21 | Oai21 -> 2.4
  | Mux2 -> 3.0

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare
let pp ppf t = Fmt.string ppf (name t)
