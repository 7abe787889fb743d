(* Circuit power and its die-to-die variability.

   The paper's Fig.-1 discussion: parts on the fast side of the delay
   distribution burn disproportionate power (fast die = leaky die), so
   narrowing the delay distribution also narrows the power distribution —
   this module quantifies that side of the story.

   Monte-Carlo over dies: each die draws one standardized process deviation
   per gate (reusing the delay model's correlated structures, with the SAME
   sign convention: positive z = slow = less leaky), total leakage sums
   exponentially-scaled per-gate leakages, dynamic power sums toggle
   energies at an assumed activity. *)

type config = {
  trials : int;
  seed : int;
  params : Cells.Power.params;
  structure : Variation.Correlated.t;
  activity : float; (* toggles per node per cycle *)
  clock_ghz : float;
}

let default_config =
  {
    trials = 2000;
    seed = 99;
    params = Cells.Power.default_params;
    structure = Variation.Correlated.create ~global_share:0.5 ();
    activity = 0.15;
    clock_ghz = 0.5;
  }

type result = {
  config : config;
  dynamic_uw : float; (* activity-weighted dynamic power, microwatts *)
  leakage_uw : float array; (* per-trial total leakage, microwatts *)
}

(* Activity-weighted dynamic power (no variability modeled on it — dynamic
   power varies far less than leakage). *)
let dynamic_power_uw ~config circuit =
  let total_fj_per_cycle =
    List.fold_left
      (fun acc id ->
        acc
        +. Cells.Power.dynamic_energy_fj ~params:config.params
             (Netlist.Circuit.cell_exn circuit id))
      0.0
      (Netlist.Circuit.gates circuit)
  in
  (* fJ/cycle · cycles/ns = µW: 1 fJ/ns = 1 µW *)
  total_fj_per_cycle *. config.activity *. config.clock_ghz

let run ?(config = default_config) circuit =
  if config.trials < 1 then invalid_arg "Power_analysis.run: trials < 1";
  let gates = Array.of_list (Netlist.Circuit.gates circuit) in
  let nominal =
    Array.map
      (fun id ->
        Cells.Power.leakage_nw ~params:config.params
          (Netlist.Circuit.cell_exn circuit id))
      gates
  in
  let rng = Numerics.Rng.create ~seed:config.seed in
  let n = Netlist.Circuit.size circuit in
  let lambda = config.params.Cells.Power.leakage_process_lambda in
  let leakage_uw =
    Array.init config.trials (fun _ ->
        let z = Variation.Correlated.draw config.structure rng ~count:n in
        let total_nw = ref 0.0 in
        Array.iteri
          (fun i id ->
            total_nw := !total_nw +. (nominal.(i) *. Float.exp (-.lambda *. z.(id))))
          gates;
        !total_nw /. 1000.0)
  in
  { config; dynamic_uw = dynamic_power_uw ~config circuit; leakage_uw }

let leakage_stats r = Numerics.Stats.of_list (Array.to_list r.leakage_uw)

let total_mean_uw r = r.dynamic_uw +. Numerics.Stats.mean (leakage_stats r)

let pp ppf r =
  let s = leakage_stats r in
  Fmt.pf ppf
    "power: dynamic %.1f uW, leakage %.1f uW (sigma %.1f uW, sigma/mean %.3f \
     across %d dies)"
    r.dynamic_uw (Numerics.Stats.mean s) (Numerics.Stats.std s)
    (Numerics.Stats.sigma_over_mean s)
    (Numerics.Stats.count s)
