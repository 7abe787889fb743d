(* FASSTA — the paper's fast inner engine (§4.3): arrival times are carried
   as (mean, variance) pairs only. SUM adds moments; MAX uses Clark's
   formulas with the quadratic erf approximation, short-circuited entirely
   when the 2.6 cutoff (equations (5)/(6)) resolves the max to one operand.

   The engine runs over any topologically-ordered node subset with frozen
   boundary values — exactly how the optimizer evaluates candidate gate
   sizes inside an extracted subcircuit — or over the whole circuit. *)

type stats = {
  mutable cutoff_hits : int; (* max resolved by (5)/(6) without arithmetic *)
  mutable blended : int; (* max needed the Clark evaluation *)
}

let make_stats () = { cutoff_hits = 0; blended = 0 }

(* statobs: nodes pushed through the moment-propagation kernels (both the
   windowed and the whole-circuit form), the inner engine's unit of work. *)
let c_propagate_nodes = Obs.Counters.make "fassta.propagate.nodes"

let record stats resolution =
  match resolution with
  | Numerics.Clark.Left_dominates | Numerics.Clark.Right_dominates ->
      stats.cutoff_hits <- stats.cutoff_hits + 1
  | Numerics.Clark.Blended -> stats.blended <- stats.blended + 1

let cutoff_fraction stats =
  let total = stats.cutoff_hits + stats.blended in
  (* No max operations recorded means the cutoff never had a chance to fire:
     report a hit rate of zero rather than nan, so the value stays usable in
     arithmetic and comparisons (callers that want to display "no data"
     distinctly can test [total] themselves via the stats fields). *)
  if total = 0 then 0.0
  else float_of_int stats.cutoff_hits /. float_of_int total

(* Moments of one fanin arc's delay. *)
let arc_moments model circuit (electrical : Sta.Electrical.t) id k =
  let delay = (Sta.Electrical.arc_delays electrical id).(k) in
  let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn circuit id) in
  Variation.Model.delay_moments model ~delay ~strength

(* Statistical max across fanin-arc arrivals, with optional stats capture. *)
let max_arrivals ?stats arrivals =
  match arrivals with
  | [] -> invalid_arg "Fassta.max_arrivals: empty"
  | first :: rest ->
      List.fold_left
        (fun acc m ->
          let v, resolution = Numerics.Clark.max_fast_resolved acc m in
          Option.iter (fun s -> record s resolution) stats;
          v)
        first rest

(* Propagate moments through [nodes] (topologically ordered). [boundary]
   supplies the arrival moments of any fanin outside [nodes]; inputs inside
   [nodes] get the boundary value too. Results land in [out] (a map from id
   to moments), which is also the return value. *)
let propagate ?stats ~model ~circuit ~electrical ~boundary nodes =
  Obs.Counters.add c_propagate_nodes (Array.length nodes);
  let out = Hashtbl.create (Array.length nodes * 2) in
  let value_of fi =
    match Hashtbl.find_opt out fi with Some m -> m | None -> boundary fi
  in
  Array.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      if Array.length fanins = 0 then Hashtbl.replace out id (boundary id)
      else begin
        let arrivals =
          Array.to_list
            (Array.mapi
               (fun k fi ->
                 Numerics.Clark.sum (value_of fi)
                   (arc_moments model circuit electrical id k))
               fanins)
        in
        Hashtbl.replace out id (max_arrivals ?stats arrivals)
      end)
    nodes;
  out

(* Whole-circuit fast pass into a caller-owned array (no allocation beyond
   the moments themselves): [run], window creation and refreshes, the
   Reference engine's commits and judge, and criticality. *)
let propagate_into ?stats ?(exact = false) ~model ~circuit ~electrical out =
  Obs.Counters.add c_propagate_nodes (Netlist.Circuit.size circuit);
  let input_moments =
    Numerics.Clark.moments ~mean:Sta.Electrical.input_arrival ~var:0.0
  in
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      if Array.length fanins = 0 then out.(id) <- input_moments
      else begin
        let arcs = Sta.Electrical.arc_delays electrical id in
        let strength =
          Cells.Cell.strength (Netlist.Circuit.cell_exn circuit id)
        in
        let acc = ref None in
        Array.iteri
          (fun k fi ->
            let arc =
              Variation.Model.delay_moments model ~delay:arcs.(k) ~strength
            in
            let arrival = Numerics.Clark.sum out.(fi) arc in
            match !acc with
            | None -> acc := Some arrival
            | Some best ->
                if exact then acc := Some (Numerics.Clark.max_exact best arrival)
                else begin
                  let v, resolution =
                    Numerics.Clark.max_fast_resolved best arrival
                  in
                  Option.iter (fun s -> record s resolution) stats;
                  acc := Some v
                end)
          fanins;
        match !acc with Some m -> out.(id) <- m | None -> assert false
      end)
    (Netlist.Circuit.topological circuit)

(* Whole-circuit fast pass: useful standalone and for engine-accuracy
   studies against FULLSSTA / Monte Carlo. *)
let run ?stats ?(model = Variation.Model.default) circuit =
  let electrical = Sta.Electrical.compute circuit in
  let out =
    Array.make (Netlist.Circuit.size circuit)
      (Numerics.Clark.moments ~mean:Sta.Electrical.input_arrival ~var:0.0)
  in
  propagate_into ?stats ~model ~circuit ~electrical out;
  out

let output_moments circuit moments =
  match Netlist.Circuit.outputs circuit with
  | [] -> invalid_arg "Fassta.output_moments: no outputs"
  | outs -> Numerics.Clark.max_fast_list (List.map (fun o -> moments.(o)) outs)
