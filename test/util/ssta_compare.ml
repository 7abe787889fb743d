(* Cross-engine accuracy metrics: how close FASSTA and FULLSSTA land to
   Monte Carlo, per output. The statistical differential tests grow from
   here; no shipped code needs it, so it lives beside the tests. *)

type engine_summary = { mean : float; sigma : float }

let of_moments (m : Numerics.Clark.moments) =
  { mean = m.Numerics.Clark.mean; sigma = Numerics.Clark.sigma m }

let of_stats s =
  { mean = Numerics.Stats.mean s; sigma = Numerics.Stats.std s }

type deviation = { mean_rel_err : float; sigma_rel_err : float }

let deviation ~reference ~candidate =
  let rel a b = if b = 0.0 then Float.abs (a -. b) else Float.abs ((a -. b) /. b) in
  {
    mean_rel_err = rel candidate.mean reference.mean;
    sigma_rel_err = rel candidate.sigma reference.sigma;
  }

type report = {
  per_output : (string * deviation) list;
  worst_mean_rel_err : float;
  worst_sigma_rel_err : float;
}

let summarize per_output =
  {
    per_output;
    worst_mean_rel_err =
      List.fold_left (fun acc (_, d) -> Float.max acc d.mean_rel_err) 0.0 per_output;
    worst_sigma_rel_err =
      List.fold_left (fun acc (_, d) -> Float.max acc d.sigma_rel_err) 0.0 per_output;
  }

(* FASSTA and FULLSSTA against a Monte-Carlo reference on every output. *)
let engines_vs_monte_carlo ?(mc_config = Ssta.Monte_carlo.default_config)
    ?(full_config = Ssta.Fullssta.default_config) circuit =
  let mc = Ssta.Monte_carlo.run ~config:mc_config circuit in
  let full = Ssta.Fullssta.run ~config:full_config circuit in
  let fast = Ssta.Fassta.run ~model:full_config.Ssta.Fullssta.model circuit in
  let outputs = Netlist.Circuit.outputs circuit in
  let against summary_of =
    summarize
      (List.filter_map
         (fun o ->
           match Ssta.Monte_carlo.output_stats mc o with
           | None -> None
           | Some s ->
               Some
                 ( Netlist.Circuit.node_name circuit o,
                   deviation ~reference:(of_stats s) ~candidate:(summary_of o) ))
         outputs)
  in
  let full_report = against (fun o -> of_moments (Ssta.Fullssta.moments full o)) in
  let fast_report = against (fun o -> of_moments fast.(o)) in
  (`Full full_report, `Fast fast_report)
