(* Area recovery — the constrained-mode pass the paper's §2.1 describes:
   after delay/variance optimization, gates off the critical region are
   downsized as far as possible without letting the circuit objective
   degrade past a budget.

   Gates are visited in descending area order; each is stepped down one
   drive at a time while a FASSTA full pass (cheap) keeps the objective
   within budget, with a FULLSSTA confirmation at the end. *)

type config = {
  objective : Objective.t;
  model : Variation.Model.t;
  tolerance : float; (* allowed relative objective increase, e.g. 0.01 *)
  samples : int;
  electrical : Sta.Electrical.config;
}

let default_config =
  {
    objective = Objective.create ~alpha:3.0;
    model = Variation.Model.default;
    tolerance = 0.003;
    samples = 12;
    electrical = Sta.Electrical.default_config;
  }

type result = {
  downsized : int;
  area_before : float;
  area_after : float;
  cost_before : float;
  cost_after : float;
}

(* Same exact-Clark global metric the sizer optimizes, so recovery's budget
   is measured in the currency the sizing gains were bought in. *)
let fast_cost config circuit =
  let electrical = Sta.Electrical.compute ~config:config.electrical circuit in
  let scratch =
    Array.make (Netlist.Circuit.size circuit)
      (Numerics.Clark.moments ~mean:0.0 ~var:0.0)
  in
  Ssta.Fassta.propagate_into ~exact:true ~model:config.model ~circuit ~electrical
    scratch;
  Objective.cost_of_rv ~exact:true config.objective
    (fun o -> scratch.(o))
    (Netlist.Circuit.outputs circuit)

let full_cost config circuit =
  let full =
    Ssta.Fullssta.run
      ~config:
        {
          Ssta.Fullssta.samples = config.samples;
          model = config.model;
          electrical = config.electrical;
        }
      circuit
  in
  Objective.circuit_cost config.objective full

let recover ?(config = default_config) ~lib circuit =
  Obs.Span.with_ "area_recovery.recover" @@ fun () ->
  let area_before = Netlist.Circuit.total_area circuit in
  let cost_before = full_cost config circuit in
  (* Budget anchored on the *fast* engine so accept/reject is consistent
     with the per-gate checks. *)
  let fast_budget =
    let c = fast_cost config circuit in
    c +. (config.tolerance *. Float.abs c)
  in
  let by_area_desc =
    Netlist.Circuit.gates circuit
    |> List.map (fun id -> (id, Cells.Cell.area (Netlist.Circuit.cell_exn circuit id)))
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.map fst
  in
  let downsized = ref 0 in
  List.iter
    (fun gate ->
      let rec step () =
        let current = Netlist.Circuit.cell_exn circuit gate in
        match Cells.Library.next_down lib current with
        | None -> ()
        | Some smaller ->
            Netlist.Circuit.set_cell circuit gate smaller;
            if fast_cost config circuit <= fast_budget then begin
              incr downsized;
              step ()
            end
            else Netlist.Circuit.set_cell circuit gate current
      in
      step ())
    by_area_desc;
  {
    downsized = !downsized;
    area_before;
    area_after = Netlist.Circuit.total_area circuit;
    cost_before;
    cost_after = full_cost config circuit;
  }

let pp_result ppf r =
  Fmt.pf ppf "area recovery: %d downsizes, area %.1f -> %.1f, cost %.2f -> %.2f"
    r.downsized r.area_before r.area_after r.cost_before r.cost_after
