(* Worst Negative Statistical Slack (WNSS) path tracing — paper §4.4.

   Unlike the deterministic case, the input with the highest mean (or the
   highest variance) is not necessarily the one driving the variance at a
   gate's output: the statistical max blends all inputs. Inputs are ranked
   pairwise:

   - when the cutoff conditions (5)/(6) hold — |μA − μB| / a ≥ 2.6 — the max
     collapses and the higher-mean input plainly dominates;
   - otherwise we compare the sensitivities ∂Var(max)/∂μ, evaluated by a
     forward finite difference with step h ≈ 1% of the mean. Mean and sigma
     along a path are coupled (you cannot move one without the other), so
     the perturbation drags sigma along by Δσ = c·Δμ with c equal to the
     variation model's delay-proportionality coefficient.

   The trace starts at the circuit's virtual output (the statistical max
   over all primary outputs, RV_O) and walks fanin-ward to a primary input,
   applying the same ranking at every step. *)

type config = {
  h_fraction : float; (* finite-difference step as a fraction of the mean *)
  coupling : float; (* the paper's c in Δσ = c·Δμ *)
}

let config ?(h_fraction = 0.01) ~coupling () =
  if h_fraction <= 0.0 then invalid_arg "Wnss.config: h_fraction <= 0";
  { h_fraction; coupling }

let of_model model = config ~coupling:(Variation.Model.coupling model) ()

let variance_of (m : Numerics.Clark.moments) = m.Numerics.Clark.var

(* statobs: each call costs two extra Clark max evaluations, the dominant
   expense of the §4.4 path ranking. *)
let c_finite_diff = Obs.Counters.make "wnss.finite_diff.evals"

(* ∂Var(max(A,B))/∂μA by forward finite difference, with the σ coupling. *)
let variance_sensitivity t ~target:(a : Numerics.Clark.moments) ~other:b =
  Obs.Counters.bump c_finite_diff;
  let h = t.h_fraction *. (Float.abs a.Numerics.Clark.mean +. 1.0) in
  let base = variance_of (Numerics.Clark.max_fast a b) in
  let sigma_a = Numerics.Clark.sigma a in
  let sigma_a' = sigma_a +. (t.coupling *. h) in
  let a' =
    Numerics.Clark.moments
      ~mean:(a.Numerics.Clark.mean +. h)
      ~var:(sigma_a' *. sigma_a')
  in
  (variance_of (Numerics.Clark.max_fast a' b) -. base) /. h

type choice = First | Second

(* Pairwise dominance per §4.4. *)
let dominant t (a : Numerics.Clark.moments) (b : Numerics.Clark.moments) =
  let spread = Numerics.Clark.spread a b in
  if spread <= 0.0 then
    if a.Numerics.Clark.mean >= b.Numerics.Clark.mean then First else Second
  else
    let alpha = (a.Numerics.Clark.mean -. b.Numerics.Clark.mean) /. spread in
    if alpha >= Numerics.Clark.cutoff then First
    else if alpha <= -.Numerics.Clark.cutoff then Second
    else
      let sa = variance_sensitivity t ~target:a ~other:b in
      let sb = variance_sensitivity t ~target:b ~other:a in
      if sa >= sb then First else Second

(* Champion sweep across a non-empty list of labelled contributions. *)
let pick_dominant t = function
  | [] -> invalid_arg "Wnss.pick_dominant: empty"
  | (x0, m0) :: rest ->
      List.fold_left
        (fun (x, m) (y, my) ->
          match dominant t m my with First -> (x, m) | Second -> (y, my))
        (x0, m0) rest

(* Generic trace over abstract contribution providers, so hand-specified
   examples (Fig. 3) use exactly the production ranking code. [contributions]
   gives, for a node, each fanin with the moments of (fanin arrival + arc
   delay); empty means a path endpoint. [roots] are the circuit outputs with
   their arrival moments. Returns the path output-first. *)
let trace_generic t ~contributions ~roots =
  let root, _ = pick_dominant t roots in
  let rec walk node acc =
    match contributions node with
    | [] -> List.rev (node :: acc)
    | inputs ->
        let next, _ = pick_dominant t inputs in
        walk next (node :: acc)
  in
  walk root []

let circuit_contributions ~model circuit full =
  let electrical = Ssta.Fullssta.electrical full in
  fun id ->
    match Netlist.Circuit.cell circuit id with
    | None -> []
    | Some _ ->
        let fanins = Netlist.Circuit.fanins circuit id in
        Array.to_list
          (Array.mapi
             (fun k fi ->
               let arc = Ssta.Fassta.arc_moments model circuit electrical id k in
               (fi, Numerics.Clark.sum (Ssta.Fullssta.moments full fi) arc))
             fanins)

(* Standard trace on a FULLSSTA-annotated circuit: from the dominant output
   of the virtual RV_O max node down to a primary input. *)
let trace ?config:cfg ~model circuit full =
  let t = match cfg with Some c -> c | None -> of_model model in
  let contributions = circuit_contributions ~model circuit full in
  let roots =
    List.map
      (fun o -> (o, Ssta.Fullssta.moments full o))
      (Netlist.Circuit.outputs circuit)
  in
  trace_generic t ~contributions ~roots

(* The statistical critical cone: where the single-path trace descends only
   into the dominant input, the cone includes EVERY fanin whose contribution
   is not cutoff-dominated — precisely the inputs the paper's conditions
   (5)/(6) say still shape the output variance (|Δμ|/a < 2.6 means the max
   genuinely blends them). Variance at RV_O flows in through all of these,
   so the sizer visits them all. *)
let cone_generic t ~contributions ~roots =
  let seen = Hashtbl.create 997 in
  let rec visit node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.add seen node ();
      match contributions node with
      | [] -> ()
      | inputs ->
          let _, dominant_m = pick_dominant t inputs in
          List.iter
            (fun (fi, m) ->
              let spread = Numerics.Clark.spread dominant_m m in
              let dominated =
                spread > 0.0
                && (dominant_m.Numerics.Clark.mean -. m.Numerics.Clark.mean)
                   /. spread
                   >= Numerics.Clark.cutoff
              in
              if not dominated then visit fi)
            inputs
    end
  in
  (* Every root within cutoff of the dominant root contributes to RV_O. *)
  let _, dom_m = pick_dominant t roots in
  List.iter
    (fun (r, m) ->
      let spread = Numerics.Clark.spread dom_m m in
      let dominated =
        spread > 0.0
        && (dom_m.Numerics.Clark.mean -. m.Numerics.Clark.mean) /. spread
           >= Numerics.Clark.cutoff
      in
      if not dominated then visit r)
    roots;
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort Stdlib.compare

let critical_cone ?config:cfg ~model circuit full =
  let t = match cfg with Some c -> c | None -> of_model model in
  let contributions id =
    match Netlist.Circuit.cell circuit id with
    | None -> []
    | Some _ ->
        let electrical = Ssta.Fullssta.electrical full in
        let fanins = Netlist.Circuit.fanins circuit id in
        Array.to_list
          (Array.mapi
             (fun k fi ->
               let arc = Ssta.Fassta.arc_moments model circuit electrical id k in
               (fi, Numerics.Clark.sum (Ssta.Fullssta.moments full fi) arc))
             fanins)
  in
  let roots =
    List.map
      (fun o -> (o, Ssta.Fullssta.moments full o))
      (Netlist.Circuit.outputs circuit)
  in
  cone_generic t ~contributions ~roots

(* WNSS path anchored at one specific output. *)
let trace_from_output ?config:cfg ~model circuit full output =
  let t = match cfg with Some c -> c | None -> of_model model in
  let contributions = circuit_contributions ~model circuit full in
  trace_generic t ~contributions
    ~roots:[ (output, Ssta.Fullssta.moments full output) ]

(* Union of the per-output WNSS paths, deduplicated, in topological order —
   the whole statistical-critical forest. All outputs contribute to RV_O's
   variance (paper §2.1), so the sizer sweeps every per-output path rather
   than re-saturating the single dominant one. *)
let trace_all_outputs ?config:cfg ~model circuit full =
  let t = match cfg with Some c -> c | None -> of_model model in
  let contributions = circuit_contributions ~model circuit full in
  let seen = Hashtbl.create 997 in
  List.iter
    (fun o ->
      let path =
        trace_generic t ~contributions
          ~roots:[ (o, Ssta.Fullssta.moments full o) ]
      in
      List.iter (fun id -> Hashtbl.replace seen id ()) path)
    (Netlist.Circuit.outputs circuit);
  Hashtbl.fold (fun id () acc -> id :: acc) seen []
  |> List.sort Stdlib.compare
