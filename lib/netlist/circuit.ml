(* Technology-mapped combinational circuits.

   A circuit is a DAG of primary inputs and library-cell instances. Nodes are
   dense integer ids; because a gate's fanins must exist before the gate is
   added, id order is a topological order — every traversal in the timing and
   sizing engines relies on this invariant.

   Gate sizes are mutable (that is the whole point of the library); structure
   is append-only. *)

type id = int

type kind =
  | Primary_input
  | Gate of { mutable cell : Cells.Cell.t; fanins : id array }

type node = {
  id : id;
  name : string;
  kind : kind;
  mutable fanouts : id list; (* gates reading this node's output, reversed *)
  mutable is_output : bool;
}

type t = {
  circuit_name : string;
  nodes : node Vec.t;
  by_name : (string, id) Hashtbl.t;
  mutable input_ids : id list; (* reversed during construction *)
  mutable output_ids : id list; (* reversed during construction *)
  mutable output_load : float; (* fF presented by each primary output *)
}

let dummy_node =
  { id = -1; name = "!dummy"; kind = Primary_input; fanouts = []; is_output = false }

let create ?(output_load = 4.0) ~name () =
  {
    circuit_name = name;
    nodes = Vec.create ~dummy:dummy_node;
    by_name = Hashtbl.create 997;
    input_ids = [];
    output_ids = [];
    output_load;
  }

let name t = t.circuit_name
let size t = Vec.length t.nodes
let output_load t = t.output_load
let node t id = Vec.get t.nodes id
let node_name t id = (node t id).name
let mem_name t name = Hashtbl.mem t.by_name name
let find t ~name = Hashtbl.find_opt t.by_name name

let register t name =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Circuit: duplicate node name %S" name)

let add_input t ~name =
  register t name;
  let id =
    Vec.push t.nodes
      { id = Vec.length t.nodes; name; kind = Primary_input; fanouts = [];
        is_output = false }
  in
  Hashtbl.add t.by_name name id;
  t.input_ids <- id :: t.input_ids;
  id

let add_gate t ~name ~cell ~fanins =
  register t name;
  let arity = Cells.Cell.arity cell in
  if Array.length fanins <> arity then
    invalid_arg
      (Printf.sprintf "Circuit.add_gate %S: cell %s expects %d fanins, got %d"
         name (Cells.Cell.name cell) arity (Array.length fanins));
  let here = Vec.length t.nodes in
  Array.iter
    (fun fi ->
      if fi < 0 || fi >= here then
        invalid_arg
          (Printf.sprintf "Circuit.add_gate %S: fanin %d not yet defined" name fi))
    fanins;
  let id =
    Vec.push t.nodes
      { id = here; name; kind = Gate { cell; fanins }; fanouts = [];
        is_output = false }
  in
  Hashtbl.add t.by_name name id;
  Array.iter
    (fun fi ->
      let src = Vec.get t.nodes fi in
      src.fanouts <- id :: src.fanouts)
    fanins;
  id

let mark_output t id =
  let n = node t id in
  if not n.is_output then begin
    n.is_output <- true;
    t.output_ids <- id :: t.output_ids
  end

let inputs t = List.rev t.input_ids
let outputs t = List.rev t.output_ids
let is_output t id = (node t id).is_output
let is_input t id = match (node t id).kind with Primary_input -> true | Gate _ -> false

let fanins t id =
  match (node t id).kind with Primary_input -> [||] | Gate g -> g.fanins

let fanouts t id = List.rev (node t id).fanouts

(* Allocation-free fanout iteration (arbitrary order) for hot paths. *)
let iter_fanouts t id ~f = List.iter f (node t id).fanouts

let cell t id =
  match (node t id).kind with
  | Primary_input -> None
  | Gate g -> Some g.cell

let cell_exn t id =
  match (node t id).kind with
  | Gate g -> g.cell
  | Primary_input ->
      invalid_arg
        (Printf.sprintf "Circuit.cell_exn: node %S is a primary input"
           (node_name t id))

let set_cell t id cell =
  match (node t id).kind with
  | Primary_input ->
      invalid_arg "Circuit.set_cell: cannot size a primary input"
  | Gate g ->
      if not (Cells.Fn.equal (Cells.Cell.fn g.cell) (Cells.Cell.fn cell)) then
        invalid_arg
          (Printf.sprintf "Circuit.set_cell: %s -> %s changes logic function"
             (Cells.Cell.name g.cell) (Cells.Cell.name cell));
      g.cell <- cell

(* Capacitive load on a node's output: fanin-pin caps of all readers plus the
   fixed external load when the node drives a primary output. *)
let load t id =
  let n = node t id in
  (* the same left-to-right sum a [List.fold_left] over [n.fanouts] makes,
     in a loop with an unboxed accumulator: trial electrical updates call
     this per fanin of a resized gate *)
  let fanout_cap = ref 0.0 in
  let rest = ref n.fanouts in
  let quit = ref false in
  while not !quit do
    match !rest with
    | [] -> quit := true
    | reader :: tl ->
        (match (node t reader).kind with
        | Primary_input -> ()
        | Gate g -> fanout_cap := !fanout_cap +. g.cell.Cells.Cell.input_cap);
        rest := tl
  done;
  if n.is_output then !fanout_cap +. t.output_load else !fanout_cap

let iter_nodes t ~f = Vec.iter t.nodes ~f:(fun n -> f n.id)

(* Ids ascend in topological order by construction. *)
let topological t = List.init (size t) Fun.id

let gates t =
  List.filter (fun id -> not (is_input t id)) (topological t)

let gate_count t =
  Vec.fold t.nodes ~init:0 ~f:(fun acc n ->
      match n.kind with Primary_input -> acc | Gate _ -> acc + 1)

let total_area t =
  Vec.fold t.nodes ~init:0.0 ~f:(fun acc n ->
      match n.kind with
      | Primary_input -> acc
      | Gate g -> acc +. Cells.Cell.area g.cell)

(* Structural sanity: names resolve, fanin arities match, every non-output
   node with no fanout is flagged, outputs non-empty. Typed diagnostics;
   the empty list means the circuit is well-formed. The CIRC010 corruption
   checks guard internal invariants the public API cannot break. *)
let validate_diag t =
  let problems = ref [] in
  let add d = problems := d :: !problems in
  if t.output_ids = [] then
    add
      (Diag.errorf ~code:"CIRC008" ~loc:Diag.Circuit
         ~hint:"mark at least one node with mark_output"
         "circuit %S has no primary outputs" t.circuit_name);
  if t.input_ids = [] then
    add
      (Diag.errorf ~code:"CIRC009" ~loc:Diag.Circuit
         "circuit %S has no primary inputs" t.circuit_name);
  Vec.iter t.nodes ~f:(fun n ->
      (match Hashtbl.find_opt t.by_name n.name with
      | Some id when id = n.id -> ()
      | _ ->
          add
            (Diag.errorf ~code:"CIRC010" ~loc:(Diag.Net n.name)
               "node %S not registered under its own name (corrupt node table)"
               n.name));
      match n.kind with
      | Primary_input -> ()
      | Gate g ->
          if Array.length g.fanins <> Cells.Cell.arity g.cell then
            add
              (Diag.errorf ~code:"CIRC010" ~loc:(Diag.Gate n.name)
                 "gate %S has %d fanins but cell %s expects %d" n.name
                 (Array.length g.fanins)
                 (Cells.Cell.name g.cell)
                 (Cells.Cell.arity g.cell));
          Array.iter
            (fun fi ->
              if fi >= n.id then
                add
                  (Diag.errorf ~code:"CIRC001" ~loc:(Diag.Gate n.name)
                     "gate %S has non-topological fanin %d (combinational \
                      cycle or corrupt ids)"
                     n.name fi))
            g.fanins;
          if n.fanouts = [] && not n.is_output then
            add
              (Diag.warningf ~code:"CIRC004" ~loc:(Diag.Gate n.name)
                 ~hint:"mark it as an output or remove it"
                 "gate %S is dangling (no fanout, not an output)" n.name));
  List.rev !problems

(* Deprecated string rendering of {!validate_diag}, kept for one release. *)
let validate t = List.map Diag.to_string (validate_diag t)

(* Structural deep copy (fresh mutable cells) — lets one prepared baseline
   feed several independent optimization runs. *)
let copy ?name:new_name t =
  let dst =
    create ~output_load:t.output_load
      ~name:(match new_name with Some n -> n | None -> t.circuit_name)
      ()
  in
  Vec.iter t.nodes ~f:(fun n ->
      let id =
        match n.kind with
        | Primary_input -> add_input dst ~name:n.name
        | Gate g ->
            add_gate dst ~name:n.name ~cell:g.cell ~fanins:(Array.copy g.fanins)
      in
      assert (id = n.id));
  List.iter (fun o -> mark_output dst o) (List.rev t.output_ids);
  dst

let pp ppf t =
  Fmt.pf ppf "circuit %s: %d inputs, %d outputs, %d gates, area %.1f"
    t.circuit_name (List.length t.input_ids) (List.length t.output_ids)
    (gate_count t) (total_area t)
