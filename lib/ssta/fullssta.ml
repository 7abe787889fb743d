(* FULLSSTA — the paper's accurate outer-loop engine (§4.2), after Liou et
   al.'s probabilistic event propagation: arrival times are discrete pdfs
   sampled at a user-controlled rate (10-15 points; we default to 12), SUM
   and MAX operate on the discretized pdfs, and the mean/variance at every
   node is stored for the fast inner engine (FASSTA) to consume. *)

type config = { samples : int; model : Variation.Model.t }

let default_config = { samples = 12; model = Variation.Model.default }

(* statobs: scratch propagation node count vs dirty-cone wavefront pops —
   the FULLSSTA analogue of the electrical engine's visit counters. *)
let c_run_nodes = Obs.Counters.make "fullssta.run.nodes"
let c_update_visits = Obs.Counters.make "fullssta.update.visits"

type t = {
  circuit : Netlist.Circuit.t;
  config : config;
  electrical : Sta.Electrical.t;
  pdfs : Numerics.Discrete_pdf.t array; (* arrival pdf per node *)
  moments : Numerics.Clark.moments array; (* point values stored per node *)
  (* Live-annotation support for [update]: which electrical arc row and
     drive strength each node's pdfs were last derived from (physical row
     pointers — Electrical.update keeps rows intact exactly when their
     values survived), the per-arc resampled arrival pdfs so clean arcs
     are never recomputed, a change bitmap + wavefront for the sweep, and
     the memoized output RV. *)
  last_arc : float array array;
  last_strength : float array;
  arc_arrivals : Numerics.Discrete_pdf.t array array;
  changed : bool array;
  wave : Netlist.Wavefront.t;
  mutable out_rv : Numerics.Discrete_pdf.t option;
}

(* Normal pdf of one fanin arc's delay under the variation model. *)
let arc_pdf config circuit electrical id k =
  let delay = (Sta.Electrical.arc_delays electrical id).(k) in
  let strength =
    Cells.Cell.strength (Netlist.Circuit.cell_exn circuit id)
  in
  let sigma = Variation.Model.sigma config.model ~delay ~strength in
  Numerics.Discrete_pdf.of_normal ~samples:config.samples ~mean:delay ~sigma ()

(* Resampled arrival pdf through one fanin arc: fanin arrival + arc delay. *)
let arc_arrival config circuit electrical pdfs id k fi =
  let arc = arc_pdf config circuit electrical id k in
  Numerics.Discrete_pdf.sum ~samples:config.samples pdfs.(fi) arc

let node_strength circuit id =
  match Netlist.Circuit.cell circuit id with
  | None -> 0.0
  | Some cell -> Cells.Cell.strength cell

let run ?(config = default_config) circuit =
  if config.samples < 2 then invalid_arg "Fullssta.run: samples < 2";
  Obs.Span.with_ "fullssta.run" @@ fun () ->
  let electrical = Sta.Electrical.compute circuit in
  let n = Netlist.Circuit.size circuit in
  Obs.Counters.add c_run_nodes n;
  let pdfs =
    Array.make n (Numerics.Discrete_pdf.constant Sta.Electrical.input_arrival)
  in
  let arc_arrivals = Array.make n [||] in
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      if Array.length fanins > 0 then begin
        let arrivals =
          Array.mapi
            (fun k fi -> arc_arrival config circuit electrical pdfs id k fi)
            fanins
        in
        arc_arrivals.(id) <- arrivals;
        pdfs.(id) <-
          Numerics.Discrete_pdf.resample
            (Numerics.Discrete_pdf.max_list (Array.to_list arrivals))
            ~samples:config.samples
      end)
    (Netlist.Circuit.topological circuit);
  let moments = Array.map Numerics.Discrete_pdf.to_moments pdfs in
  {
    circuit;
    config;
    electrical;
    pdfs;
    moments;
    last_arc = Array.init n (fun id -> Sta.Electrical.arc_delays electrical id);
    last_strength = Array.init n (fun id -> node_strength circuit id);
    arc_arrivals;
    changed = Array.make n false;
    wave = Netlist.Wavefront.create n;
    out_rv = None;
  }

let pdf t id = t.pdfs.(id)
let moments t id = t.moments.(id)
let config t = t.config
let electrical t = t.electrical

(* The circuit-level random variable RV_O of §2.1: the statistical max over
   every primary output's arrival. Memoized; [update] drops the memo when a
   primary output's arrival pdf moves. *)
let output_rv t =
  match t.out_rv with
  | Some rv -> rv
  | None -> (
      match Netlist.Circuit.outputs t.circuit with
      | [] -> invalid_arg "Fullssta.output_rv: no outputs"
      | outs ->
          let rv =
            Numerics.Discrete_pdf.resample
              (Numerics.Discrete_pdf.max_list
                 (List.map (fun o -> t.pdfs.(o)) outs))
              ~samples:t.config.samples
          in
          t.out_rv <- Some rv;
          rv)

let output_moments t = Numerics.Discrete_pdf.to_moments (output_rv t)

exception Divergence of Diag.t

(* Paranoid oracle: rebuild the annotation from scratch and insist the
   incremental state matches it bit for bit. *)
let check_against_scratch t =
  let fresh = run ~config:t.config t.circuit in
  for id = 0 to Netlist.Circuit.size t.circuit - 1 do
    if not (Numerics.Discrete_pdf.equal t.pdfs.(id) fresh.pdfs.(id)) then
      raise
        (Divergence
           (Diag.errorf ~code:"STAT005"
              ~loc:(Diag.Net (Netlist.Circuit.node_name t.circuit id))
              "incremental arrival (μ=%.9g σ=%.9g) diverged from scratch \
               (μ=%.9g σ=%.9g)"
              t.moments.(id).Numerics.Clark.mean
              (Numerics.Clark.sigma t.moments.(id))
              fresh.moments.(id).Numerics.Clark.mean
              (Numerics.Clark.sigma fresh.moments.(id))))
  done

(* Re-propagate only what a resize actually perturbed. The caller has
   already refreshed the shared electrical state (the sizer's window
   commits do). Arc dirtiness is found by scanning for replaced electrical
   arc rows (Electrical.update keeps a row's physical identity exactly when
   its values survived, and always replaces rows of resized gates) plus
   drive-strength deltas, so the scan is sound no matter who refreshed the
   electrical state — including a full [recompute_all], which simply marks
   everything dirty. Dirty nodes
   drain through the wavefront in topological order; a node whose recomputed
   pdf is bit-identical keeps its stored pdf and stops the sweep there.
   Per-arc resampled arrivals are cached so a multi-fanin node only
   recomputes the arcs that are actually dirty. *)
let update ?(paranoid = false) t =
  Obs.Span.with_ "fullssta.update" @@ fun () ->
  let n = Netlist.Circuit.size t.circuit in
  Array.fill t.changed 0 n false;
  Netlist.Wavefront.clear t.wave;
  for id = 0 to n - 1 do
    if
      Sta.Electrical.arc_delays t.electrical id != t.last_arc.(id)
      || node_strength t.circuit id <> t.last_strength.(id)
    then Netlist.Wavefront.push t.wave id
  done;
  let dirty = ref [] in
  let visits = ref 0 in
  let quit = ref false in
  while not !quit do
    let id = Netlist.Wavefront.pop t.wave in
    if id < 0 then quit := true
    else begin
      incr visits;
      let fanins = Netlist.Circuit.fanins t.circuit id in
      if Array.length fanins > 0 then begin
        let row = Sta.Electrical.arc_delays t.electrical id in
        let strength = node_strength t.circuit id in
        let row_dirty =
          row != t.last_arc.(id) || strength <> t.last_strength.(id)
        in
        let arrivals = t.arc_arrivals.(id) in
        Array.iteri
          (fun k fi ->
            if row_dirty || t.changed.(fi) then
              arrivals.(k) <-
                arc_arrival t.config t.circuit t.electrical t.pdfs id k fi)
          fanins;
        t.last_arc.(id) <- row;
        t.last_strength.(id) <- strength;
        let pdf' =
          Numerics.Discrete_pdf.resample
            (Numerics.Discrete_pdf.max_list (Array.to_list arrivals))
            ~samples:t.config.samples
        in
        if not (Numerics.Discrete_pdf.equal pdf' t.pdfs.(id)) then begin
          t.pdfs.(id) <- pdf';
          t.moments.(id) <- Numerics.Discrete_pdf.to_moments pdf';
          t.changed.(id) <- true;
          dirty := id :: !dirty;
          Netlist.Circuit.iter_fanouts t.circuit id ~f:(fun fo ->
              Netlist.Wavefront.push t.wave fo)
        end
      end
    end
  done;
  Obs.Counters.add c_update_visits !visits;
  (match t.out_rv with
  | Some _
    when List.exists (fun o -> t.changed.(o)) (Netlist.Circuit.outputs t.circuit)
    ->
      t.out_rv <- None
  | _ -> ());
  if paranoid then check_against_scratch t;
  !dirty

(* sigma/mean of RV_O — Table 1's headline metric. *)
let sigma_over_mean t =
  let m = output_moments t in
  if m.Numerics.Clark.mean = 0.0 then Float.nan
  else Numerics.Clark.sigma m /. m.Numerics.Clark.mean

(* Statistical yield at a clock period: P(RV_O <= period). *)
let yield_at t ~period = Numerics.Discrete_pdf.cdf (output_rv t) period

(* Post-run self-check: every stored arrival pdf must still be a pdf after
   the SUM/MAX/resample chain. Findings here point at engine defects (lost
   mass, negative weights, negative stored variance), not at user input —
   the lint preflight guards the inputs. *)
let check ?(tol = 1e-6) t =
  List.concat_map
    (fun id ->
      let loc = Diag.Net (Netlist.Circuit.node_name t.circuit id) in
      let points = Numerics.Discrete_pdf.points t.pdfs.(id) in
      let mass = List.fold_left (fun a (_, m) -> a +. m) 0.0 points in
      (if Float.abs (mass -. 1.0) > tol then
         [
           Diag.errorf ~code:"STAT001" ~loc
             "arrival pdf mass drifted to %.9g after propagation" mass;
         ]
       else [])
      @ (if List.exists (fun (_, m) -> m < 0.0) points then
           [
             Diag.errorf ~code:"STAT002" ~loc
               "arrival pdf has a negative point mass";
           ]
         else [])
      @
      let var = t.moments.(id).Numerics.Clark.var in
      if var < 0.0 then
        [ Diag.errorf ~code:"STAT002" ~loc "stored arrival variance %.3g" var ]
      else [])
    (Netlist.Circuit.topological t.circuit)
