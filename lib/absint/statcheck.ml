(* The statcheck forward pass.

   Per fanin arc we build a sound abstraction of the arc-delay random
   variable, then run the domain's SUM/MAX transfers over the levelized
   circuit (ascending ids are topological by the Circuit invariant). Arc
   abstraction by scope:

   - Current_sizing: the nominal delay d comes from Sta.Electrical exactly
     as both engines see it, and sigma from the variation model — point
     intervals, so the enclosures stay tight.
   - All_sizings: delay and output slew are hulled over the function's whole
     drive ladder with Lut.range corner sweeps (never bumping the LIB007
     out-of-bounds counters), loads over the readers' ladder cap extremes —
     the result holds under any sizing.

   In distribution-free mode the arc additionally carries hard support
   bounds matching FULLSSTA's span-4σ discretization, a variance bound
   padded by half a discretization step ((σ + step/2)² since the midpoint
   quantization moves each realization by ≤ step/2 and truncation only
   shrinks variance), and the walk inserts a pad_resample after each arc
   SUM and each node MAX — exactly where Fullssta.run resamples. *)

module I = Numerics.Interval

type scope = Current_sizing | All_sizings

type config = {
  scope : scope;
  semantics : Domain.semantics;
  z_span : float;
  samples : int;
  model : Variation.Model.t;
}

let default_config =
  {
    scope = Current_sizing;
    semantics = Domain.Clark_normal;
    z_span = 4.0;
    samples = 12;
    model = Variation.Model.default;
  }

(* FULLSSTA discretizes arcs over mean ± 4σ (Discrete_pdf.of_normal's
   default span, not configurable from Fullssta). *)
let fullssta_span = 4.0

type arc = { delay : I.t; sigma_lo : float; sigma_hi : float }

type t = {
  config : config;
  circuit : Netlist.Circuit.t;
  states : Domain.v array;
  env : I.t array;
  rv : Domain.v;
  rv_env : I.t;
}

(* Float-evaluation slack on LUT corner sweeps and interval hulls. *)
let lut_eps = 1e-9

(* ---- arc abstraction ---------------------------------------------------- *)

let arcs_current config circuit =
  let electrical = Sta.Electrical.compute circuit in
  fun id k ->
    let d = (Sta.Electrical.arc_delays electrical id).(k) in
    let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn circuit id) in
    let sigma = Variation.Model.sigma config.model ~delay:d ~strength in
    { delay = I.point d; sigma_lo = sigma; sigma_hi = sigma }

let arcs_all_sizings ~lib config circuit =
  let n = Netlist.Circuit.size circuit in
  (* Load enclosure: hull each reader pin over its function's ladder caps. *)
  let load = Array.make n (I.point 0.0) in
  Netlist.Circuit.iter_nodes circuit ~f:(fun id ->
      let readers =
        List.fold_left
          (fun acc reader ->
            match Netlist.Circuit.cell circuit reader with
            | None -> acc
            | Some cell ->
                let ladder =
                  Cells.Library.sizes_of_fn lib (Cells.Cell.fn cell)
                in
                let caps =
                  Array.map (fun c -> Cells.Cell.input_cap c) ladder
                in
                let lo = Array.fold_left Float.min infinity caps in
                let hi = Array.fold_left Float.max neg_infinity caps in
                I.add acc (I.v lo hi))
          (I.point 0.0)
          (Netlist.Circuit.fanouts circuit id)
      in
      let ext =
        if Netlist.Circuit.is_output circuit id then
          I.point (Netlist.Circuit.output_load circuit)
        else I.point 0.0
      in
      load.(id) <- I.add readers ext);
  (* Slew enclosure: worst-fanin propagation mirrored on intervals, hulled
     over the ladder. *)
  let slew = Array.make n (I.point Sta.Electrical.input_slew) in
  let arc = Array.make n [||] in
  List.iter
    (fun id ->
      match Netlist.Circuit.cell circuit id with
      | None -> ()
      | Some cell ->
          let fanins = Netlist.Circuit.fanins circuit id in
          let ladder = Cells.Library.sizes_of_fn lib (Cells.Cell.fn cell) in
          let worst_in =
            Array.fold_left
              (fun acc fi -> I.max2 acc slew.(fi))
              (I.point 0.0) fanins
          in
          let col = (I.lo load.(id), I.hi load.(id)) in
          arc.(id) <-
            Array.map
              (fun fi ->
                let row = (I.lo slew.(fi), I.hi slew.(fi)) in
                Array.fold_left
                  (fun acc c ->
                    let dlo, dhi = Numerics.Lut.range c.Cells.Cell.delay ~row ~col in
                    let strength = Cells.Cell.strength c in
                    let slo =
                      Variation.Model.sigma config.model ~delay:dlo ~strength
                    in
                    let shi =
                      Variation.Model.sigma config.model ~delay:dhi ~strength
                    in
                    match acc with
                    | None ->
                        Some
                          {
                            delay = I.inflate_rel lut_eps (I.v dlo dhi);
                            sigma_lo = slo;
                            sigma_hi = shi;
                          }
                    | Some a ->
                        Some
                          {
                            delay =
                              I.join a.delay (I.inflate_rel lut_eps (I.v dlo dhi));
                            sigma_lo = Float.min a.sigma_lo slo;
                            sigma_hi = Float.max a.sigma_hi shi;
                          })
                  None ladder
                |> Option.get)
              fanins;
          slew.(id) <-
            Array.fold_left
              (fun acc c ->
                let row = (I.lo worst_in, I.hi worst_in) in
                let slo, shi = Numerics.Lut.range c.Cells.Cell.output_slew ~row ~col in
                I.join acc (I.inflate_rel lut_eps (I.v slo shi)))
              (let c0 = ladder.(0) in
               let row = (I.lo worst_in, I.hi worst_in) in
               let slo, shi = Numerics.Lut.range c0.Cells.Cell.output_slew ~row ~col in
               I.inflate_rel lut_eps (I.v slo shi))
              ladder)
    (Netlist.Circuit.topological circuit);
  fun id k -> arc.(id).(k)

(* Domain abstraction of one arc under the configured semantics. *)
let arc_state config (a : arc) =
  match config.semantics with
  | Domain.Clark_normal ->
      Domain.make ~mean:a.delay
        ~var:(I.v (a.sigma_lo *. a.sigma_lo) (Float.succ (a.sigma_hi *. a.sigma_hi)))
        ()
  | Domain.Distribution_free ->
      (* of_normal over mean ± 4σ with [samples] bins: midpoints carry the
         bin mass, so each realization is within step/2 of a truncated
         draw. Truncation + renormalization keeps the mean (symmetry) and
         shrinks the variance, so sd ≤ σ + step/2. *)
      let step =
        2.0 *. fullssta_span *. a.sigma_hi /. float_of_int (Stdlib.max 1 config.samples)
      in
      let sd_hi = a.sigma_hi +. (0.5 *. step) in
      let support =
        I.v
          (I.lo a.delay -. (fullssta_span *. a.sigma_hi))
          (I.hi a.delay +. (fullssta_span *. a.sigma_hi))
      in
      Domain.make
        ~mean:(I.inflate_rel 1e-9 a.delay)
        ~var:(I.v 0.0 (Float.succ (sd_hi *. sd_hi)))
        ~support ()

let arc_envelope config (a : arc) =
  I.v
    (I.lo a.delay -. (config.z_span *. a.sigma_hi))
    (I.hi a.delay +. (config.z_span *. a.sigma_hi))

(* ---- forward pass ------------------------------------------------------- *)

let run ?(config = default_config) ~lib circuit =
  if config.samples < 1 then invalid_arg "Statcheck.run: samples < 1";
  if config.z_span < 0.0 then invalid_arg "Statcheck.run: negative z_span";
  let arcs =
    match config.scope with
    | Current_sizing -> arcs_current config circuit
    | All_sizings -> arcs_all_sizings ~lib config circuit
  in
  let n = Netlist.Circuit.size circuit in
  let input_arrival = Sta.Electrical.input_arrival in
  let input_state =
    Domain.exact ~support:(I.point input_arrival)
      (Numerics.Clark.moments ~mean:input_arrival ~var:0.0)
  in
  let states = Array.make n input_state in
  let env = Array.make n (I.point input_arrival) in
  let dist_free = config.semantics = Domain.Distribution_free in
  let pad v = if dist_free then Domain.pad_resample ~samples:config.samples v else v in
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      if Array.length fanins > 0 then begin
        let arrivals = ref [] in
        let e = ref None in
        Array.iteri
          (fun k fi ->
            let a = arcs id k in
            let s = pad (Domain.sum states.(fi) (arc_state config a)) in
            arrivals := s :: !arrivals;
            let ae = I.add env.(fi) (arc_envelope config a) in
            e := Some (match !e with None -> ae | Some acc -> I.max2 acc ae))
          fanins;
        states.(id) <- pad (Domain.max_list config.semantics (List.rev !arrivals));
        env.(id) <- Option.get !e
      end)
    (Netlist.Circuit.topological circuit);
  let outputs = Netlist.Circuit.outputs circuit in
  let rv, rv_env =
    match outputs with
    | [] -> (input_state, I.point input_arrival)
    | outs ->
        ( pad
            (Domain.max_list config.semantics
               (List.map (fun o -> states.(o)) outs)),
          List.fold_left
            (fun acc o -> I.max2 acc env.(o))
            env.(List.hd outs) outs )
  in
  { config; circuit; states; env; rv; rv_env }

(* ---- accessors ---------------------------------------------------------- *)

let config t = t.config
let circuit t = t.circuit
let state t id = t.states.(id)
let var_hi t id = I.hi t.states.(id).Domain.var
let err_mean t id = t.states.(id).Domain.err_mean
let envelope t id = t.env.(id)
let rv_state t = t.rv

let output_budget t =
  List.fold_left
    (fun acc o -> Float.max acc t.states.(o).Domain.err_mean)
    t.rv.Domain.err_mean
    (Netlist.Circuit.outputs t.circuit)

let pp_summary ppf t =
  let widest =
    Array.fold_left (fun acc s -> Float.max acc (I.width s.Domain.mean)) 0.0 t.states
  in
  Fmt.pf ppf
    "@[<v>statcheck %s: %d nodes, scope %s, %s semantics@ RV_O mean in %a, \
     sigma <= %.3f@ envelope (|z| <= %g): %a@ worst mean-interval width %.3f \
     ps, FASSTA budget (mean) %.4f ps@]"
    (Netlist.Circuit.name t.circuit)
    (Netlist.Circuit.size t.circuit)
    (match t.config.scope with
    | Current_sizing -> "current-sizing"
    | All_sizings -> "all-sizings")
    (match t.config.semantics with
    | Domain.Clark_normal -> "Clark-normal"
    | Domain.Distribution_free -> "distribution-free")
    I.pp t.rv.Domain.mean
    (Domain.certified_sigma_hi t.rv)
    t.config.z_span I.pp t.rv_env widest (output_budget t)
