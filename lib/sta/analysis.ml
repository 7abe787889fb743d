(* Deterministic static timing analysis: arrival and required times, slack,
   and worst-negative-slack (WNS) path tracing — the classical machinery the
   paper's WNSS generalizes. *)

type t = {
  circuit : Netlist.Circuit.t;
  electrical : Electrical.t;
  arrival : float array;
  required : float array;
  period : float;
}

let arrivals circuit (electrical : Electrical.t) =
  let n = Netlist.Circuit.size circuit in
  let arrival = Array.make n Electrical.input_arrival in
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      if Array.length fanins > 0 then begin
        let arcs = Electrical.arc_delays electrical id in
        let at = ref Float.neg_infinity in
        Array.iteri
          (fun k fi -> at := Float.max !at (arrival.(fi) +. arcs.(k)))
          fanins;
        arrival.(id) <- !at
      end)
    (Netlist.Circuit.topological circuit);
  arrival

let max_output_arrival circuit arrival =
  List.fold_left
    (fun acc o -> Float.max acc arrival.(o))
    Float.neg_infinity (Netlist.Circuit.outputs circuit)

let requireds circuit (electrical : Electrical.t) ~period =
  let n = Netlist.Circuit.size circuit in
  let required = Array.make n Float.infinity in
  List.iter
    (fun o -> required.(o) <- Float.min required.(o) period)
    (Netlist.Circuit.outputs circuit);
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      let arcs = Electrical.arc_delays electrical id in
      Array.iteri
        (fun k fi ->
          required.(fi) <- Float.min required.(fi) (required.(id) -. arcs.(k)))
        fanins)
    (List.rev (Netlist.Circuit.topological circuit));
  required

(* Longest mean-delay path from each node onward to any primary output: the
   "remaining downstream logic" each node's arrival still has to traverse.
   The sizing window uses this to score boundary-internal outputs fairly —
   a +1 ps slowdown on a node with 400 ps of downstream logic matters
   exactly as much as on a node feeding a primary output directly. *)
let downstream_delays circuit (electrical : Electrical.t) =
  let n = Netlist.Circuit.size circuit in
  let downstream = Array.make n 0.0 in
  List.iter
    (fun id ->
      let arcs = Electrical.arc_delays electrical id in
      Array.iteri
        (fun k fi ->
          let through = arcs.(k) +. downstream.(id) in
          if through > downstream.(fi) then downstream.(fi) <- through)
        (Netlist.Circuit.fanins circuit id))
    (List.rev (Netlist.Circuit.topological circuit));
  downstream

let analyze ?period circuit =
  let electrical = Electrical.compute circuit in
  let arrival = arrivals circuit electrical in
  let period =
    match period with Some p -> p | None -> max_output_arrival circuit arrival
  in
  let required = requireds circuit electrical ~period in
  { circuit; electrical; arrival; required; period }

let arrival t id = t.arrival.(id)
let required t id = t.required.(id)
let slack t id = t.required.(id) -. t.arrival.(id)
let electrical t = t.electrical
let period t = t.period

let critical_output t =
  match Netlist.Circuit.outputs t.circuit with
  | [] -> invalid_arg "Analysis.critical_output: no outputs"
  | o :: os ->
      List.fold_left
        (fun best c -> if t.arrival.(c) > t.arrival.(best) then c else best)
        o os

let wns t =
  List.fold_left
    (fun acc o -> Float.min acc (slack t o))
    Float.infinity (Netlist.Circuit.outputs t.circuit)

let max_arrival t = max_output_arrival t.circuit t.arrival

(* Walk back from a node along the arcs that set its arrival time. *)
let critical_path_from t start =
  let rec walk id acc =
    let fanins = Netlist.Circuit.fanins t.circuit id in
    if Array.length fanins = 0 then id :: acc
    else begin
      let arcs = Electrical.arc_delays t.electrical id in
      let best = ref 0 and best_at = ref Float.neg_infinity in
      Array.iteri
        (fun k fi ->
          let at = t.arrival.(fi) +. arcs.(k) in
          if at > !best_at then begin
            best_at := at;
            best := k
          end)
        fanins;
      walk fanins.(!best) (id :: acc)
    end
  in
  walk start []

let critical_path t = critical_path_from t (critical_output t)
