(* Correlation-aware SSTA via principal components — the outer-loop upgrade
   the paper points at in §4.3 ("track correlations due to reconvergent
   paths using Principal Component Analysis [17] or other methods").

   Arrival times carry (mean, loading per principal component, independent
   residual variance). The correlated share of every gate's deviation is a
   linear combination of a few global factors (from the eigendecomposition
   of the region covariance), so:

   - SUM adds means, loadings, and residual variances exactly;
   - MAX uses Clark's formulas *with the correlation implied by the shared
     loadings*, and blends the loadings of the operands by the tightness
     probability T = Φ(α) (Chang–Sapatnekar style), putting whatever
     variance the blend cannot express into the residual.

   Reconvergent paths that share gates now share loadings, so their
   correlation is tracked instead of assumed away — the validation test
   pits this against the correlated Monte-Carlo engine. *)

type arrival = {
  mean : float;
  loadings : float array; (* ps of sigma per unit of each global factor *)
  indep_var : float; (* residual variance not explained by the factors *)
}

let total_var a =
  Array.fold_left (fun acc l -> acc +. (l *. l)) a.indep_var a.loadings

let total_sigma a = Float.sqrt (total_var a)

let to_moments a = Numerics.Clark.moments ~mean:a.mean ~var:(total_var a)

type t = {
  components : int;
  arrivals : arrival array;
}

(* Factor loadings per region implied by a [Variation.Correlated] structure:
   the correlated share of the covariance between two gates is
   global_share + regional_share·[same region]. *)
let loadings_of_structure (s : Variation.Correlated.t) =
  let m = s.Variation.Correlated.regions in
  let covariance =
    Array.init m (fun i ->
        Array.init m (fun j ->
            s.Variation.Correlated.global_share
            +. if i = j then s.Variation.Correlated.regional_share else 0.0))
  in
  Numerics.Eigen.principal_components covariance

let zeros k = Array.make k 0.0

let sum_arrival a ~arc_mean ~arc_loadings ~arc_indep =
  {
    mean = a.mean +. arc_mean;
    loadings = Array.map2 ( +. ) a.loadings arc_loadings;
    indep_var = a.indep_var +. arc_indep;
  }

let max_arrival a b =
  let va = total_var a and vb = total_var b in
  let sa = Float.sqrt va and sb = Float.sqrt vb in
  let cov =
    (* only the shared global factors correlate two different arrivals *)
    let acc = ref 0.0 in
    Array.iteri (fun k la -> acc := !acc +. (la *. b.loadings.(k))) a.loadings;
    !acc
  in
  let rho =
    if sa <= 0.0 || sb <= 0.0 then 0.0
    else Float.max (-1.0) (Float.min 1.0 (cov /. (sa *. sb)))
  in
  let ma = Numerics.Clark.moments ~mean:a.mean ~var:va in
  let mb = Numerics.Clark.moments ~mean:b.mean ~var:vb in
  let m = Numerics.Clark.max_exact ~rho ma mb in
  (* tightness probability: how often a wins *)
  let spread = Numerics.Clark.spread ~rho ma mb in
  let tightness =
    if spread <= 0.0 then if a.mean >= b.mean then 1.0 else 0.0
    else Numerics.Normal.cdf ((a.mean -. b.mean) /. spread)
  in
  let loadings =
    Array.mapi
      (fun k la -> (tightness *. la) +. ((1.0 -. tightness) *. b.loadings.(k)))
      a.loadings
  in
  let explained = Array.fold_left (fun acc l -> acc +. (l *. l)) 0.0 loadings in
  {
    mean = m.Numerics.Clark.mean;
    loadings;
    indep_var = Float.max (m.Numerics.Clark.var -. explained) 0.0;
  }

let run ?(model = Variation.Model.default)
    ?(structure = Variation.Correlated.create ~global_share:0.5 ()) circuit =
  let electrical = Sta.Electrical.compute circuit in
  let region_loadings = loadings_of_structure structure in
  let k = Array.length region_loadings in
  let residual_share = Variation.Correlated.residual_share structure in
  let region_of id = id mod structure.Variation.Correlated.regions in
  let n = Netlist.Circuit.size circuit in
  let arrivals =
    Array.make n
      { mean = Sta.Electrical.input_arrival; loadings = zeros k;
        indep_var = 0.0 }
  in
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      if Array.length fanins > 0 then begin
        let arcs = Sta.Electrical.arc_delays electrical id in
        let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn circuit id) in
        let region = region_of id in
        let acc = ref None in
        Array.iteri
          (fun idx fi ->
            let sigma =
              Variation.Model.sigma model ~delay:arcs.(idx) ~strength
            in
            let arc_loadings =
              Array.init k (fun c -> sigma *. region_loadings.(c).(region))
            in
            let arc_indep = sigma *. sigma *. residual_share in
            let arrival =
              sum_arrival arrivals.(fi) ~arc_mean:arcs.(idx) ~arc_loadings
                ~arc_indep
            in
            acc :=
              Some
                (match !acc with
                | None -> arrival
                | Some best -> max_arrival best arrival))
          fanins;
        match !acc with Some a -> arrivals.(id) <- a | None -> assert false
      end)
    (Netlist.Circuit.topological circuit);
  { components = k; arrivals }

let arrival t id = t.arrivals.(id)

let output_arrival t circuit =
  match Netlist.Circuit.outputs circuit with
  | [] -> invalid_arg "Pca.output_arrival: no outputs"
  | o :: os ->
      List.fold_left
        (fun acc o' -> max_arrival acc t.arrivals.(o'))
        t.arrivals.(o) os
