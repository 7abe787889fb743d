(* Monte-Carlo timing: the ground-truth engine both SSTA engines are
   validated against, and the yield model behind Fig. 1's story. Each trial
   perturbs every arc delay by its modeled sigma and runs a deterministic
   arrival pass.

   Deviation sharing is configurable:
   - [`Per_arc]  (default): every arc draws independently — the exact
     assumption FULLSSTA/FASSTA propagate under, so this mode is the right
     reference for engine-accuracy validation;
   - [`Per_gate]: all arcs of a gate share one deviation, adding the
     within-gate correlation real silicon has (and SSTA ignores) — used by
     the correlation study.
   A [Variation.Correlated] structure layers die-level and regional factors
   on top of either mode.

   The draw order is the contract every Monte Carlo figure depends on. Each
   trial draws, from one [Numerics.Rng] stream seeded with [config.seed]:
   - the global factor [g];
   - [regions] regional factors, on every trial, even when the regional
     share is zero;
   - then, for each node with fanins in [Circuit.topological] order, one
     gate deviation before its arcs ([Per_gate]) or one deviation per arc
     in fanin order ([Per_arc]).
   Primary inputs draw nothing. So a trial takes a fixed number of draws,
   and [run] fetches them with one [Rng.fill_gaussian] into a reused buffer,
   then reads that buffer in order in an arrival pass over flat per-arc
   arrays. The trial loop allocates nothing. *)

type sharing = Per_arc | Per_gate

type config = {
  trials : int;
  seed : int;
  model : Variation.Model.t;
  structure : Variation.Correlated.t;
  sharing : sharing;
}

let default_config =
  {
    trials = 2000;
    seed = 77;
    model = Variation.Model.default;
    structure = Variation.Correlated.independent;
    sharing = Per_arc;
  }

type result = {
  config : config;
  circuit_delay : float array; (* worst output arrival per trial *)
  per_output : (Netlist.Circuit.id * float array) list;
}

(* Modeled sigma of each arc of a gate, in fanin order. *)
let arc_sigmas model cell arcs =
  let strength = Cells.Cell.strength cell in
  Array.map (fun delay -> Variation.Model.sigma model ~delay ~strength) arcs

let run ?(config = default_config) circuit =
  if config.trials < 1 then invalid_arg "Monte_carlo.run: trials < 1";
  let electrical = Sta.Electrical.compute circuit in
  let fanins id = Netlist.Circuit.fanins circuit id in
  let order = Netlist.Circuit.topological circuit in
  let structure = config.structure in
  let wg = Float.sqrt structure.Variation.Correlated.global_share in
  let wr = Float.sqrt structure.Variation.Correlated.regional_share in
  let we = Float.sqrt (Variation.Correlated.residual_share structure) in
  let regions = structure.Variation.Correlated.regions in
  (* Primary inputs arrive at the same time on every trial. *)
  let arrival = Array.make (Netlist.Circuit.size circuit) 0.0 in
  List.iter
    (fun id ->
      if Array.length (fanins id) = 0 then
        arrival.(id) <- Sta.Electrical.input_arrival)
    order;
  (* Gate [j], the [j]-th node with fanins in topological order, owns arcs
     [first.(j)] .. [first.(j + 1) - 1]: their source node, nominal delay
     and sigma. *)
  let gates =
    Array.of_list (List.filter (fun id -> Array.length (fanins id) > 0) order)
  in
  let first = Array.make (Array.length gates + 1) 0 in
  Array.iteri
    (fun j id -> first.(j + 1) <- first.(j) + Array.length (fanins id))
    gates;
  let arcs = first.(Array.length gates) in
  let source = Array.make arcs 0 in
  let nominal = Array.make arcs 0.0 in
  let sigma = Array.make arcs 0.0 in
  Array.iteri
    (fun j id ->
      let len = Array.length (fanins id) in
      let delays = Sta.Electrical.arc_delays electrical id in
      let sigmas =
        arc_sigmas config.model (Netlist.Circuit.cell_exn circuit id) delays
      in
      Array.blit (fanins id) 0 source first.(j) len;
      Array.blit delays 0 nominal first.(j) len;
      Array.blit sigmas 0 sigma first.(j) len)
    gates;
  let region = Array.map (fun id -> id mod regions) gates in
  let outputs = Array.of_list (Netlist.Circuit.outputs circuit) in
  let rows = Array.make_matrix (Array.length outputs) config.trials 0.0 in
  let circuit_delay = Array.make config.trials 0.0 in
  let per_gate = config.sharing = Per_gate in
  let draws = 1 + regions + if per_gate then Array.length gates else arcs in
  let buf = Array.make draws 0.0 in
  (* [common.(r)]: the global plus regional term of region [r] this trial. *)
  let common = Array.make regions 0.0 in
  let rng = Numerics.Rng.create ~seed:config.seed in
  let next = ref 0 and eps = ref 0.0 and at = ref 0.0 and worst = ref 0.0 in
  for trial = 0 to config.trials - 1 do
    Numerics.Rng.fill_gaussian rng buf ~pos:0 ~len:draws;
    let g = buf.(0) in
    for r = 0 to regions - 1 do
      common.(r) <- (wg *. g) +. (wr *. buf.(1 + r))
    done;
    next := 1 + regions;
    for j = 0 to Array.length gates - 1 do
      let base = common.(region.(j)) in
      if per_gate then begin
        eps := buf.(!next);
        incr next
      end;
      at := Float.neg_infinity;
      for k = first.(j) to first.(j + 1) - 1 do
        if not per_gate then begin
          eps := buf.(!next);
          incr next
        end;
        let z = base +. (we *. !eps) in
        (* No clamping at zero: the variation model is normal by
           construction (as in the paper and in both SSTA engines), so the
           reference keeps the full normal tail for consistency. *)
        let d = nominal.(k) +. (sigma.(k) *. z) in
        at := Float.max !at (arrival.(source.(k)) +. d)
      done;
      arrival.(gates.(j)) <- !at
    done;
    worst := Float.neg_infinity;
    for o = 0 to Array.length outputs - 1 do
      let a = arrival.(outputs.(o)) in
      worst := Float.max !worst a;
      rows.(o).(trial) <- a
    done;
    circuit_delay.(trial) <- !worst
  done;
  {
    config;
    circuit_delay;
    per_output = List.combine (Array.to_list outputs) (Array.to_list rows);
  }

let circuit_stats r = Numerics.Stats.of_list (Array.to_list r.circuit_delay)

let output_stats r id =
  match List.assoc_opt id r.per_output with
  | Some arr -> Some (Numerics.Stats.of_list (Array.to_list arr))
  | None -> None

let yield_at r ~period =
  let hits =
    Array.fold_left
      (fun acc d -> if d <= period then acc + 1 else acc)
      0 r.circuit_delay
  in
  float_of_int hits /. float_of_int (Array.length r.circuit_delay)

let circuit_pdf ?(samples = 40) r =
  Numerics.Discrete_pdf.of_samples ~samples (Array.to_list r.circuit_delay)

let quantile r p = Numerics.Stats.percentile (Array.to_list r.circuit_delay) p
