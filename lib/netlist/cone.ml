(* Transitive fanin/fanout cones and the bounded subcircuit extraction of the
   paper's §4.5: for every gate evaluated for resizing, StatisticalGreedy
   works on the gates within [depth] levels of transitive fanin and fanout
   (two, by default) around the candidate. *)

module Id_set = Set.Make (Int)

let rec grow_fanin t frontier ~depth acc =
  if depth = 0 || Id_set.is_empty frontier then acc
  else
    let next =
      Id_set.fold
        (fun id acc_next ->
          Array.fold_left
            (fun s fi -> if Circuit.is_input t fi then s else Id_set.add fi s)
            acc_next (Circuit.fanins t id))
        frontier Id_set.empty
    in
    let fresh = Id_set.diff next acc in
    grow_fanin t fresh ~depth:(depth - 1) (Id_set.union acc fresh)

let rec grow_fanout t frontier ~depth acc =
  if depth = 0 || Id_set.is_empty frontier then acc
  else
    let next =
      Id_set.fold
        (fun id acc_next ->
          List.fold_left (fun s fo -> Id_set.add fo s) acc_next
            (Circuit.fanouts t id))
        frontier Id_set.empty
    in
    let fresh = Id_set.diff next acc in
    grow_fanout t fresh ~depth:(depth - 1) (Id_set.union acc fresh)

let transitive_fanin t id ~depth =
  Id_set.elements (grow_fanin t (Id_set.singleton id) ~depth Id_set.empty)

let transitive_fanout t id ~depth =
  Id_set.elements (grow_fanout t (Id_set.singleton id) ~depth Id_set.empty)

(* Full-depth input cone of an output, primary inputs included; used for
   cone-of-influence statistics. *)
let input_cone t id =
  let seen = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Array.iter visit (Circuit.fanins t id)
    end
  in
  visit id;
  List.sort Stdlib.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

type subcircuit = {
  pivot : Circuit.id;
  members : Circuit.id array; (* gates in the window, topologically ordered *)
  boundary_inputs : Circuit.id list; (* nodes feeding the window from outside *)
  window_outputs : Circuit.id list; (* members observed outside the window *)
}

let extract t ~pivot ~depth =
  if Circuit.is_input t pivot then
    invalid_arg "Cone.extract: pivot is a primary input";
  let self = Id_set.singleton pivot in
  let tfi = grow_fanin t self ~depth Id_set.empty in
  let tfo = grow_fanout t self ~depth Id_set.empty in
  let members_set = Id_set.union self (Id_set.union tfi tfo) in
  let members =
    Array.of_list (Id_set.elements members_set) (* ids ascend = topological *)
  in
  let boundary =
    Array.fold_left
      (fun acc id ->
        Array.fold_left
          (fun acc fi ->
            if Id_set.mem fi members_set then acc else Id_set.add fi acc)
          acc (Circuit.fanins t id))
      Id_set.empty members
  in
  let window_outputs =
    Array.to_list members
    |> List.filter (fun id ->
           Circuit.is_output t id
           || List.exists
                (fun fo -> not (Id_set.mem fo members_set))
                (Circuit.fanouts t id))
  in
  (* A window whose pivot drives nothing outside and is not an output can
     still be scored: fall back to observing the deepest members. *)
  let window_outputs =
    match window_outputs with
    | [] -> [ members.(Array.length members - 1) ]
    | os -> os
  in
  { pivot; members; boundary_inputs = Id_set.elements boundary; window_outputs }
