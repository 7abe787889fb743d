(* Area recovery — the constrained-mode pass the paper's §2.1 describes:
   after delay/variance optimization, gates off the critical region are
   downsized as far as possible without letting the circuit objective
   degrade past a budget.

   Gates are visited in descending area order; each is stepped down one
   drive at a time while the exact-Clark objective, kept up to date
   incrementally, stays within budget, with a FULLSSTA confirmation at the
   end. The confirming run is the result's [final_run], so a caller that
   reports the recovered circuit's moments need not price it again. *)

type result = {
  downsized : int;
  area_before : float;
  area_after : float;
  cost_before : float;
  cost_after : float;
  final_run : Ssta.Fullssta.t; (* the run behind [cost_after] *)
}

(* Each trial downsize is judged on a Global window over the
   FULLSSTA run that priced [cost_before] ([full] when the caller hands in
   the run it already made over these cells, such as the sizer's final
   one): the window's committed cost is the exact-Clark RV_O cost the
   sizer optimizes (so the budget is measured in the currency the sizing
   gains were bought in), and [commit_incremental] keeps it bit-equal to a
   from-scratch electrical + exact FASSTA pass — its electrical update
   stops exactly and its arrival resync stops on bit-equality — at the
   cost of the perturbed cone only. A rejected
   downsize is undone the same way: the old cell goes back and is
   committed, which returns the window to bit-identical state. *)
let recover ~objective ?(tolerance = 0.003) ?full ~lib circuit =
  Obs.Span.with_ "area_recovery.recover" @@ fun () ->
  let area_before = Netlist.Circuit.total_area circuit in
  let full =
    match full with Some f -> f | None -> Ssta.Fullssta.run circuit
  in
  let setup = Ssta.Fullssta.config full in
  let cost_before = Objective.circuit_cost objective full in
  let window =
    Window.create ~mode:Window.Global ~circuit
      ~model:setup.Ssta.Fullssta.model ~objective ~full ()
  in
  let budget =
    let c = Window.base_cost window in
    c +. (tolerance *. Float.abs c)
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
            Window.commit_incremental window ~resized:[ gate ];
            if Window.base_cost window <= budget then begin
              incr downsized;
              step ()
            end
            else begin
              Netlist.Circuit.set_cell circuit gate current;
              Window.commit_incremental window ~resized:[ gate ]
            end
      in
      step ())
    by_area_desc;
  let final_run = Ssta.Fullssta.run ~config:setup circuit in
  {
    downsized = !downsized;
    area_before;
    area_after = Netlist.Circuit.total_area circuit;
    cost_before;
    cost_after = Objective.circuit_cost objective final_run;
    final_run;
  }

let pp_result ppf r =
  Fmt.pf ppf "area recovery: %d downsizes, area %.1f -> %.1f, cost %.2f -> %.2f"
    r.downsized r.area_before r.area_after r.cost_before r.cost_after
