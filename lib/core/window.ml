(* Subcircuit evaluation — paper §4.5.

   For a candidate gate and a trial size, the cost of the resize is judged
   inside a window of two levels of transitive fanin/fanout: the trial cell
   is installed, the window's electrical state (loads, slews, arc delays) is
   re-derived in place, FASSTA propagates arrival moments from the frozen
   FULLSSTA boundary values, and the cost is the worst Cost(O_i) = μ + α·σ
   over the window's observed outputs. Everything is restored afterwards,
   so trials are free of global side effects. *)

(* How a trial is scored:
   [Windowed] — FASSTA on the window only, boundary moments frozen from
   FULLSSTA, outputs scored with the statistical-slack correction. This is
   the paper's §4.5 scheme.
   [Global] — the trial still only re-derives the window's electrical state
   (slew perturbations die out within a couple of levels), but scoring
   re-propagates arrival moments incrementally from the window to every
   affected node downstream (changes below a decay tolerance stop the
   wavefront) and prices the real RV_O — window myopia removed at roughly
   O(affected region) per trial. *)
type mode = Windowed | Global

(* Which engine computes a trial's score. Both yield bit-identical costs,
   hence identical verdicts and sizings; they differ only in how much they
   recompute.
   [Production] — one persistent window per sizing run (and one per area
   recovery pass, which judges each downsize by its commit). Trials re-derive
   electrical state with a dirty-cone update clipped to the window; Global
   scoring drains every candidate cell of a window through one shared
   wavefront over cached arc moments ([vec_costs]); commits resync the
   cached arrivals incrementally ([commit_incremental]).
   [Reference] — the from-scratch oracle. Each trial snapshots and
   recomputes every window member and re-propagates through a Hashtbl of
   overrides with [Clark.max_exact]; commits re-derive everything
   ([commit]). Kept for the tests and [paranoid] runs that hold
   [Production] to it. *)
type engine = Production | Reference

(* statobs: trial-drain wavefront pops, per-(candidate, node) recomputes in
   the vectorized drain, and commit-resync pops. Counts are accumulated in
   local ints during each drain and flushed once, so the pops themselves
   never pay for the instrumentation. *)
let c_trial_visits = Obs.Counters.make "window.trial.visits"
let c_cell_evals = Obs.Counters.make "window.trial.cell_evals"
let c_commit_visits = Obs.Counters.make "window.commit.visits"

type t = {
  circuit : Netlist.Circuit.t;
  model : Variation.Model.t;
  objective : Objective.t;
  mode : mode;
  engine : engine;
  electrical : Sta.Electrical.t; (* shared, mutated and restored per trial *)
  full : Ssta.Fullssta.t; (* the annotation the window was built over *)
  boundary : Netlist.Circuit.id -> Numerics.Clark.moments;
  down_mean : float array; (* remaining mean delay to any primary output *)
  down_var : float array; (* delay variance along that downstream path *)
  base : Numerics.Clark.moments array; (* arrivals for the committed sizes *)
  mutable base_cost : float; (* RV_O cost of [base] *)
  override : (int, Numerics.Clark.moments) Hashtbl.t; (* Reference trial deltas *)
  area_weight : float; (* ps of cost per unit of added area *)
  wavefront : Netlist.Wavefront.t; (* scratch queue for incremental trials *)
  in_window : bool array; (* scratch membership bitmap for clipped trials *)
  stats : Ssta.Fassta.stats;
  (* Production caches (empty on the Reference engine). All of it is pure
     caching: every value read out of these structures is bit-identical to
     what the Reference path recomputes, so trial costs and hence sizing
     decisions are unchanged.
     - [f_arc] holds each node's per-fanin arc delay moments for the
       COMMITTED electrical state; [f_row] remembers the physical arc-delay
       row each cache line was derived from, so validity is one pointer
       compare ([Electrical.update] replaces a row exactly when its values
       changed, and trials restore the original rows afterwards).
     - [outputs_arr]/[out_idx]/[out_prefix] support RV_O prefix folding:
       [out_prefix.(i)] is the statistical max of the first i+1 outputs'
       base arrivals (same left fold as [Clark.max_exact_list]), so a trial
       that only perturbs outputs from index j onward resumes the fold at
       the cached prefix instead of re-maxing every output.
     - [base_sigma] is [Clark.sigma base.(id)], maintained at every base
       write so the wavefront decay test costs one sqrt (the fresh value)
       per node instead of two. *)
  f_arc : Numerics.Clark.moments array array;
  f_row : float array array;
  mutable gen : int;
  outputs_arr : Netlist.Circuit.id array;
  out_idx : int array; (* node id -> index in [outputs_arr], or -1 *)
  out_prefix : Numerics.Clark.moments array;
  base_sigma : float array;
  (* Vectorized trial scoring: [vec_costs] drains ALL candidate cells of a
     window through ONE topologically-ordered wavefront. Because nodes pop
     in ascending id = topological order, evaluating cell [c] exactly at
     the nodes where [c] has a pending change replays the same computation
     sequence — same values, same decay decisions — as [c]'s solo drain,
     so every per-cell cost is bit-identical to the one-trial-at-a-time
     path while the heap traffic and fanout walks are paid once per node
     instead of once per node per cell.
     - [pend]/[pend_gen]: per-node bitmask of candidate cells awaiting
       recomputation there (generation-stamped, no clearing).
     - [vc_ov]/[vc_ov_gen]: per-cell override arrivals.
     - [vc_arc]/[vc_arc_gen]: per-cell arc moments captured from the
       trial's perturbed electrical rows while they were live.
     - [vc_min_out]: per-cell lowest perturbed output index for the RV_O
       prefix-fold resume. *)
  pend : int array;
  pend_gen : int array;
  mutable vc_ov : Numerics.Clark.moments array array;
  mutable vc_ov_gen : int array array;
  mutable vc_arc : Numerics.Clark.moments array array array;
  mutable vc_arc_gen : int array array;
  mutable vc_min_out : int array;
}

(* Candidate bitmasks live in one int; windows with more sizes than this
   (none in practice) fall back to the one-trial-at-a-time path. *)
let max_vec_cells = Sys.int_size - 2

(* Scalar accumulator for arrival folds: the drain below runs
   [Clark.max_exact] millions of times per sizer call, and folding through
   a mutable float pair instead of intermediate records keeps the hot loop
   allocation-free (a moments record is built only for the values that are
   actually stored). *)
type acc2 = { mutable am : float; mutable av : float }

(* Verbatim copies of [Numerics.Erf.exact], [Numerics.Normal.pdf] and
   [Numerics.Normal.cdf], constants included (same expressions, hence the
   same floats). They live here because dune's default dev profile compiles
   every module with [-opaque]: no call across a module boundary is ever
   inlined, [[@inline]] or not, so each float crossing one is boxed.
   Inlined in this module, the exact Clark max below allocates nothing. The
   originals stay the definition: the Reference engine and
   [Clark.max_exact] use them, and the engine oracle tests hold the two
   paths bit-equal. Do not simplify the arithmetic (say, multiply by a
   precomputed [1 /. sqrt_two_pi], or share the two [exp] calls): every
   sizing digest depends on these exact operations. *)
let sqrt_two = Float.sqrt 2.0
let sqrt_two_pi = Float.sqrt (2.0 *. Float.pi)

let[@inline] erf_exact x =
  let ax = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. ax)) in
  let poly =
    t
    *. (0.254829592
       +. (t
          *. (-0.284496736
             +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  let v = 1.0 -. (poly *. Float.exp (-.(ax *. ax))) in
  if x >= 0.0 then v else -.v

let[@inline] normal_pdf x = Float.exp (-0.5 *. x *. x) /. sqrt_two_pi

let[@inline] normal_cdf x = 0.5 *. (1.0 +. erf_exact (x /. sqrt_two))

(* [acc <- max(acc, N(bm, bv))]: a clone of [Clark.max_exact ~rho:0.0] —
   the same operations in the same order on the same operands, so the
   accumulated mean/var are bit-identical to the record-folding oracle. *)
let[@inline] scalar_max acc bm bv =
  let am = acc.am and av = acc.av in
  let sp = Float.sqrt (Float.max (av +. bv) 0.0) in
  if sp <= 0.0 then begin
    if am >= bm then ()
    else begin
      acc.am <- bm;
      acc.av <- bv
    end
  end
  else begin
    let alpha = (am -. bm) /. sp in
    let phi = normal_pdf alpha in
    let cdf_pos = normal_cdf alpha in
    let cdf_neg = 1.0 -. cdf_pos in
    let m1 = (am *. cdf_pos) +. (bm *. cdf_neg) +. (sp *. phi) in
    let m2 =
      (((am *. am) +. av) *. cdf_pos)
      +. (((bm *. bm) +. bv) *. cdf_neg)
      +. ((am +. bm) *. sp *. phi)
    in
    acc.am <- m1;
    acc.av <- Float.max (m2 -. (m1 *. m1)) 0.0
  end

(* Wavefront decay tolerance: a node whose recomputed moments move by less
   than this (in ps, on mean and sigma) does not wake its fanouts. *)
let epsilon_wave = 1e-3

(* Statistical required-time estimate: for every node, the mean delay D of
   the longest remaining path to a primary output, and the variance V
   accumulated along that same path. A window output o is then scored as the
   cost of the full worst path through it,

     score(o) = Cost( N(μ_o + D(o), σ_o² + V(o)) ) = μ_o + D(o) + α·√(σ_o²+V(o))

   which makes window-local deltas commensurate with the global objective:
   slowing a shallow carry bit with hundreds of ps of chain left weighs as
   much as slowing a gate that feeds a primary output directly, and variance
   improvements are discounted by the variance the rest of the path will add
   anyway. Without this slack correction the max across window outputs hides
   collateral damage entirely. *)
let downstream_stats_into ~model circuit electrical down_mean down_var =
  Array.fill down_mean 0 (Array.length down_mean) 0.0;
  Array.fill down_var 0 (Array.length down_var) 0.0;
  List.iter
    (fun id ->
      let fanins = Netlist.Circuit.fanins circuit id in
      Array.iteri
        (fun k fi ->
          let arc = Ssta.Fassta.arc_moments model circuit electrical id k in
          let cand_mean = arc.Numerics.Clark.mean +. down_mean.(id) in
          if cand_mean > down_mean.(fi) then begin
            down_mean.(fi) <- cand_mean;
            down_var.(fi) <- arc.Numerics.Clark.var +. down_var.(id)
          end)
        fanins)
    (List.rev (Netlist.Circuit.topological circuit))

let rv_cost t moments_of =
  Objective.cost_of_rv ~exact:true t.objective moments_of
    (Netlist.Circuit.outputs t.circuit)

(* Rebuild the RV_O prefix folds from the current base arrivals: the same
   left fold [Clark.max_exact_list] runs over the outputs list, checkpointed
   at every index. [from] skips entries before the first output whose base
   arrival changed — they fold exclusively over unchanged values. *)
let rebuild_out_prefix ?(from = 0) t =
  let outs = t.outputs_arr in
  let m = Array.length outs in
  if m > 0 && from < m then begin
    let start =
      if from = 0 then begin
        t.out_prefix.(0) <- t.base.(outs.(0));
        1
      end
      else from
    in
    for i = start to m - 1 do
      t.out_prefix.(i) <-
        Numerics.Clark.max_exact t.out_prefix.(i - 1) t.base.(outs.(i))
    done
  end

(* Re-derive one node's cached arc delay moments from its current
   electrical row — the identical [Variation.Model.delay_moments] call the
   Reference recompute makes inline, so a cached read is bit-equal to an
   inline recompute for as long as the row survives. A no-op while the row
   is the one the line was derived from. *)
let refresh_arc_cache t id =
  let row = Sta.Electrical.arc_delays t.electrical id in
  if row != t.f_row.(id) then begin
    let fanins = Netlist.Circuit.fanins t.circuit id in
    let nf = Array.length fanins in
    if nf > 0 then begin
      let strength =
        Cells.Cell.strength (Netlist.Circuit.cell_exn t.circuit id)
      in
      let line = t.f_arc.(id) in
      for k = 0 to nf - 1 do
        line.(k) <-
          Variation.Model.delay_moments t.model ~delay:row.(k) ~strength
      done
    end;
    t.f_row.(id) <- row
  end

(* Re-derive the committed-state arrival moments and their RV_O cost (and,
   on Production, revalidate the arc cache and the prefix folds). *)
let refresh_base t =
  let production = t.engine = Production in
  if production then
    for id = 0 to Array.length t.base - 1 do
      refresh_arc_cache t id
    done;
  Ssta.Fassta.propagate_into ~exact:true ~model:t.model ~circuit:t.circuit
    ~electrical:t.electrical t.base;
  t.base_cost <- rv_cost t (fun o -> t.base.(o));
  if production then begin
    rebuild_out_prefix t;
    for id = 0 to Array.length t.base - 1 do
      t.base_sigma.(id) <- Numerics.Clark.sigma t.base.(id)
    done
  end

let create ?(mode = Global) ?(engine = Reference) ?(area_weight = 0.0) ~circuit
    ~model ~objective ~full () =
  let electrical = Ssta.Fullssta.electrical full in
  let n = Netlist.Circuit.size circuit in
  let down_mean = Array.make n 0.0 and down_var = Array.make n 0.0 in
  downstream_stats_into ~model circuit electrical down_mean down_var;
  let zero = Numerics.Clark.moments ~mean:0.0 ~var:0.0 in
  let production = engine = Production in
  (* Production-only arrays are sized [np]; empty on Reference *)
  let np = if production then n else 0 in
  let outputs_arr =
    if production then Array.of_list (Netlist.Circuit.outputs circuit)
    else [||]
  in
  let out_idx = Array.make np (-1) in
  Array.iteri (fun i o -> out_idx.(o) <- i) outputs_arr;
  (* a sentinel no live electrical row can alias, so every cache line
     starts stale *)
  let stale_row = [| Float.nan |] in
  let t =
    {
      circuit;
      model;
      objective;
      mode;
      engine;
      electrical;
      full;
      boundary = Ssta.Fullssta.moments full;
      down_mean;
      down_var;
      base = Array.make n zero;
      base_cost = 0.0;
      override = Hashtbl.create 997;
      area_weight;
      wavefront = Netlist.Wavefront.create n;
      in_window = Array.make n false;
      stats = Ssta.Fassta.make_stats ();
      f_arc =
        Array.init np (fun id ->
            Array.make (Array.length (Netlist.Circuit.fanins circuit id)) zero);
      f_row = Array.make np stale_row;
      gen = 0;
      outputs_arr;
      out_idx;
      out_prefix = Array.make (Array.length outputs_arr) zero;
      base_sigma = Array.make np 0.0;
      pend = Array.make np 0;
      pend_gen = Array.make np 0;
      vc_ov = [||];
      vc_ov_gen = [||];
      vc_arc = [||];
      vc_arc_gen = [||];
      vc_min_out = [||];
    }
  in
  refresh_base t;
  t

(* Bring a persistent window up to date with the (already refreshed)
   electrical state at the start of a new outer iteration. The FULLSSTA
   boundary needs no action — [boundary] reads the live annotation.
   Idempotent, and equivalent to building a fresh window. *)
let refresh t =
  downstream_stats_into ~model:t.model t.circuit t.electrical t.down_mean
    t.down_var;
  refresh_base t

let score t o (m : Numerics.Clark.moments) =
  Objective.cost_of_moments t.objective
    (Numerics.Clark.moments
       ~mean:(m.Numerics.Clark.mean +. t.down_mean.(o))
       ~var:(m.Numerics.Clark.var +. t.down_var.(o)))

let windowed_cost t (sub : Netlist.Cone.subcircuit) =
  let table =
    Ssta.Fassta.propagate ~stats:t.stats ~model:t.model ~circuit:t.circuit
      ~electrical:t.electrical ~boundary:t.boundary sub.Netlist.Cone.members
  in
  let moments_of id =
    match Hashtbl.find_opt table id with Some m -> m | None -> t.boundary id
  in
  List.fold_left
    (fun acc o -> Float.max acc (score t o (moments_of o)))
    Float.neg_infinity sub.Netlist.Cone.window_outputs

(* Global scoring uses exact-erf Clark moments: the paper's quadratic erf is
   a 2-level-window device whose near-tie slope error compounds over whole
   circuits (it overstated RV_O's sigma 2.4x on the c499-class parity
   trees).

   Reference trial propagation: recompute the window members from the
   cached base arrivals, then let the change wavefront run downstream,
   stopping wherever the recomputed moments move by less than
   [epsilon_wave]. Touched values live in [override]; [base] is never
   mutated by a trial. *)
let moments_at t id =
  match Hashtbl.find_opt t.override id with Some m -> m | None -> t.base.(id)

(* One exact-Clark node recomputation; the per-arc operations and fold
   order mirror [Fassta.propagate_into ~exact:true] bit for bit. *)
let recompute_node t id =
  let fanins = Netlist.Circuit.fanins t.circuit id in
  if Array.length fanins = 0 then t.base.(id)
  else begin
    let arcs = Sta.Electrical.arc_delays t.electrical id in
    let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn t.circuit id) in
    let acc = ref None in
    Array.iteri
      (fun k fi ->
        let arc =
          Variation.Model.delay_moments t.model ~delay:arcs.(k) ~strength
        in
        let arrival = Numerics.Clark.sum (moments_at t fi) arc in
        acc :=
          Some
            (match !acc with
            | None -> arrival
            | Some best -> Numerics.Clark.max_exact best arrival))
      fanins;
    match !acc with Some m -> m | None -> assert false
  end

(* [seed] enqueues the trial's change seeds (every window member). Nodes
   whose recomputed moments do not move simply drop out of the drain. *)
let trial_cost t ~seed =
  Hashtbl.reset t.override;
  let w = t.wavefront in
  Netlist.Wavefront.clear w;
  seed (fun id -> Netlist.Wavefront.push w id);
  let visits = ref 0 in
  let rec drain () =
    let id = Netlist.Wavefront.pop w in
    if id >= 0 then begin
      incr visits;
      let fresh = recompute_node t id in
      let old = t.base.(id) in
      let moved =
        Float.abs (fresh.Numerics.Clark.mean -. old.Numerics.Clark.mean)
        +. Float.abs (Numerics.Clark.sigma fresh -. Numerics.Clark.sigma old)
        > epsilon_wave
      in
      if moved then begin
        Hashtbl.replace t.override id fresh;
        Netlist.Circuit.iter_fanouts t.circuit id ~f:(fun fo ->
            Netlist.Wavefront.push w fo)
      end
      else Hashtbl.remove t.override id;
      drain ()
    end
  in
  drain ();
  Obs.Counters.add c_trial_visits !visits;
  rv_cost t (moments_at t)

(* Cost of the window as currently sized (no trial cell). *)
let cost t (sub : Netlist.Cone.subcircuit) =
  match t.mode with Windowed -> windowed_cost t sub | Global -> t.base_cost

(* A heavier pivot burdens its fanin drivers; the logical-effort rule sizes
   them up (never down) so the compound move crosses the coordination
   barrier a single-gate move cannot: upsizing is only profitable when the
   drivers strengthen with the load. *)
let fanin_adjustments t ~lib pivot =
  Array.to_list (Netlist.Circuit.fanins t.circuit pivot)
  |> List.filter_map (fun fi ->
         match Netlist.Circuit.cell t.circuit fi with
         | None -> None (* primary input *)
         | Some fanin_cell ->
             let load = Netlist.Circuit.load t.circuit fi in
             let rule =
               Initial_sizing.pick_cell lib ~fn:(Cells.Cell.fn fanin_cell) ~load
                 ~target:4.0
             in
             if Cells.Cell.strength rule > Cells.Cell.strength fanin_cell then
               Some (fi, rule)
             else None)

(* Install [trial] on the pivot plus (with [co_size]) its fanin co-sizing,
   run [f adjustments], and restore every cell. Returns [f]'s result, the
   adjustments the trial would commit, and the area the move adds (0 when
   area is not priced). *)
let with_trial t ~lib ~co_size pivot trial f =
  let circuit = t.circuit in
  let original = Netlist.Circuit.cell_exn circuit pivot in
  let saved = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (fi, cell) -> Netlist.Circuit.set_cell circuit fi cell) !saved;
      Netlist.Circuit.set_cell circuit pivot original)
    (fun () ->
      Netlist.Circuit.set_cell circuit pivot trial;
      let adjustments = if co_size then fanin_adjustments t ~lib pivot else [] in
      saved :=
        List.map (fun (fi, _) -> (fi, Netlist.Circuit.cell_exn circuit fi)) adjustments;
      List.iter (fun (fi, cell) -> Netlist.Circuit.set_cell circuit fi cell) adjustments;
      let area_delta =
        if t.area_weight = 0.0 then 0.0
        else
          Cells.Cell.area trial -. Cells.Cell.area original
          +. List.fold_left2
               (fun acc (_, cell) (_, old_cell) ->
                 acc +. Cells.Cell.area cell -. Cells.Cell.area old_cell)
               0.0 adjustments !saved
      in
      (f adjustments, adjustments, area_delta))

(* Production trial electrical update: an exact-stop [Electrical.update]
   seeded from the resized gates and clipped to the window, which writes
   the same values the Reference full sweep of the window would while
   touching only the true perturbation cone; its undo log rewinds exactly
   what was touched. [f] sees the electrically-dirty ids. *)
let with_clipped_update t (sub : Netlist.Cone.subcircuit) ~resized f =
  let members = sub.Netlist.Cone.members in
  Array.iter (fun id -> t.in_window.(id) <- true) members;
  Fun.protect
    ~finally:(fun () -> Array.iter (fun id -> t.in_window.(id) <- false) members)
    (fun () ->
      let dirty, log =
        Sta.Electrical.update_logged
          ~within:(fun id -> t.in_window.(id))
          t.electrical t.circuit ~resized
      in
      Fun.protect
        ~finally:(fun () -> Sta.Electrical.restore t.electrical log)
        (fun () -> f dirty))

(* Grow the vectorized-trial structures to [nc] candidate slots. Fresh
   generation-stamp arrays start at 0 and [t.gen] is bumped before any
   batch, so new slots begin universally invalid without clearing. *)
let ensure_vc t nc =
  let cur = Array.length t.vc_ov in
  if cur < nc then begin
    let n = Array.length t.pend in
    let zero = Numerics.Clark.moments ~mean:0.0 ~var:0.0 in
    let grow mk old = Array.init nc (fun c -> if c < cur then old.(c) else mk ()) in
    t.vc_ov <- grow (fun () -> Array.make n zero) t.vc_ov;
    t.vc_ov_gen <- grow (fun () -> Array.make n 0) t.vc_ov_gen;
    t.vc_arc <- grow (fun () -> Array.make n [||]) t.vc_arc;
    t.vc_arc_gen <- grow (fun () -> Array.make n 0) t.vc_arc_gen;
    t.vc_min_out <- Array.make nc max_int
  end

(* Production Global scoring: every candidate cell of the window in ONE
   shared wavefront drain, returning (cost, co-sizing) per candidate.

   Phase 1 (capture) runs each candidate's clipped electrical trial —
   install, exact-stop update, restore — and captures each dirty node's arc
   delay moments from the perturbed rows and trial strengths, seeding the
   node's pending bit for that candidate.

   Phase 2 (drain) pops the union wavefront in ascending id = topological
   order and recomputes, at each node, only the candidates whose bit is
   pending. A candidate's computation subsequence is then node-for-node
   identical to its solo drain: same topological order, same fanin
   overrides, same arc moments, same [epsilon_wave] decision — so every
   per-candidate cost is bit-identical while the heap pops and fanout walks
   are amortized across the whole candidate set. *)
let vec_costs t ~lib ~co_size (sub : Netlist.Cone.subcircuit) trials =
  let pivot = sub.Netlist.Cone.pivot in
  let nc = Array.length trials in
  ensure_vc t nc;
  t.gen <- t.gen + 1;
  let gen = t.gen in
  let w = t.wavefront in
  Netlist.Wavefront.clear w;
  Array.fill t.vc_min_out 0 nc max_int;
  let capture c id =
    let fanins = Netlist.Circuit.fanins t.circuit id in
    let nf = Array.length fanins in
    if nf > 0 then begin
      let row = Sta.Electrical.arc_delays t.electrical id in
      let strength =
        Cells.Cell.strength (Netlist.Circuit.cell_exn t.circuit id)
      in
      (* reuse the slot's array across batches when the fanin count is
         unchanged (values are only read under a matching generation
         stamp) *)
      let prev = t.vc_arc.(c).(id) in
      let line =
        if Array.length prev = nf then prev
        else begin
          let a = Array.make nf t.base.(id) in
          t.vc_arc.(c).(id) <- a;
          a
        end
      in
      for k = 0 to nf - 1 do
        line.(k) <- Variation.Model.delay_moments t.model ~delay:row.(k) ~strength
      done;
      t.vc_arc_gen.(c).(id) <- gen
    end;
    (if t.pend_gen.(id) = gen then t.pend.(id) <- t.pend.(id) lor (1 lsl c)
     else begin
       t.pend.(id) <- 1 lsl c;
       t.pend_gen.(id) <- gen
     end);
    Netlist.Wavefront.push w id
  in
  let priced =
    Array.mapi
      (fun c trial ->
        let (), adjustments, area_delta =
          with_trial t ~lib ~co_size pivot trial (fun adjustments ->
              with_clipped_update t sub
                ~resized:(pivot :: List.map fst adjustments)
                (fun dirty -> List.iter (capture c) dirty))
        in
        (adjustments, area_delta))
      trials
  in
  let acc = { am = 0.0; av = 0.0 } in
  let prop = ref 0 in
  let push_pend fo =
    (if t.pend_gen.(fo) = gen then t.pend.(fo) <- t.pend.(fo) lor !prop
     else begin
       t.pend.(fo) <- !prop;
       t.pend_gen.(fo) <- gen
     end);
    Netlist.Wavefront.push w fo
  in
  let visits = ref 0 in
  let cell_evals = ref 0 in
  let rec drain () =
    let id = Netlist.Wavefront.pop w in
    if id >= 0 then begin
      incr visits;
      let mask = if t.pend_gen.(id) = gen then t.pend.(id) else 0 in
      let fanins = Netlist.Circuit.fanins t.circuit id in
      let nf = Array.length fanins in
      if nf > 0 && mask <> 0 then begin
        let old_mean = t.base.(id).Numerics.Clark.mean in
        let old_sigma = t.base_sigma.(id) in
        let line = t.f_arc.(id) in
        let oi = t.out_idx.(id) in
        prop := 0;
        (* unsafe accesses: c < nc ≤ |vc_*|, k < nf = |fanins| = |arcs|,
           and fi/id are node ids covered by every length-n array *)
        for c = 0 to nc - 1 do
          if mask land (1 lsl c) <> 0 then begin
            incr cell_evals;
            let arcs =
              if Array.unsafe_get (Array.unsafe_get t.vc_arc_gen c) id = gen
              then Array.unsafe_get (Array.unsafe_get t.vc_arc c) id
              else line
            in
            let ov = Array.unsafe_get t.vc_ov c
            and ov_gen = Array.unsafe_get t.vc_ov_gen c in
            for k = 0 to nf - 1 do
              let fi = Array.unsafe_get fanins k in
              let fm =
                if Array.unsafe_get ov_gen fi = gen then Array.unsafe_get ov fi
                else Array.unsafe_get t.base fi
              in
              let arc = Array.unsafe_get arcs k in
              let sm = fm.Numerics.Clark.mean +. arc.Numerics.Clark.mean in
              let sv = fm.Numerics.Clark.var +. arc.Numerics.Clark.var in
              if k = 0 then begin
                acc.am <- sm;
                acc.av <- sv
              end
              else scalar_max acc sm sv
            done;
            let moved =
              Float.abs (acc.am -. old_mean)
              +. Float.abs (Float.sqrt acc.av -. old_sigma)
              > epsilon_wave
            in
            if moved then begin
              ov.(id) <- Numerics.Clark.moments ~mean:acc.am ~var:acc.av;
              ov_gen.(id) <- gen;
              if oi >= 0 && oi < t.vc_min_out.(c) then t.vc_min_out.(c) <- oi;
              prop := !prop lor (1 lsl c)
            end
          end
        done;
        if !prop <> 0 then Netlist.Circuit.iter_fanouts t.circuit id ~f:push_pend
      end;
      drain ()
    end
  in
  drain ();
  Obs.Counters.add c_trial_visits !visits;
  Obs.Counters.add c_cell_evals !cell_evals;
  (* RV_O: resume the cached prefix fold at the first perturbed output, or
     short-circuit to the committed cost when no output moved (bit-equal to
     folding all-base values: [base_cost] was produced by that very fold) *)
  let outs = t.outputs_arr in
  Array.mapi
    (fun c (adjustments, area_delta) ->
      let j = t.vc_min_out.(c) in
      let rv =
        if j = max_int then t.base_cost
        else begin
          let ov = t.vc_ov.(c) and ov_gen = t.vc_ov_gen.(c) in
          let read o = if ov_gen.(o) = gen then ov.(o) else t.base.(o) in
          let m0 = read outs.(j) in
          (if j = 0 then begin
             acc.am <- m0.Numerics.Clark.mean;
             acc.av <- m0.Numerics.Clark.var
           end
           else begin
             let p = t.out_prefix.(j - 1) in
             acc.am <- p.Numerics.Clark.mean;
             acc.av <- p.Numerics.Clark.var;
             scalar_max acc m0.Numerics.Clark.mean m0.Numerics.Clark.var
           end);
          for i = j + 1 to Array.length outs - 1 do
            let m = read outs.(i) in
            scalar_max acc m.Numerics.Clark.mean m.Numerics.Clark.var
          done;
          Objective.cost_of_moments t.objective
            (Numerics.Clark.moments ~mean:acc.am ~var:acc.av)
        end
      in
      (rv +. (t.area_weight *. area_delta), adjustments))
    priced

(* Evaluate one trial cell for the window's pivot (plus its induced fanin
   co-sizing): install, recompute the window electrically, score, restore.
   Returns the cost and the fanin adjustments the trial would commit.

   Production Global scoring is [vec_costs] on a one-candidate batch.
   Otherwise the engines differ only in the electrical trial: Production
   runs the clipped dirty-cone update, Reference snapshots and recomputes
   every window member (and, under Global scoring, seeds the arrival drain
   with all of them). Both stay clipped to the window (slew perturbations
   are assumed to die out within its two levels), so they score every
   trial identically. *)
let cost_with_cell ?(co_size = true) ~lib t (sub : Netlist.Cone.subcircuit) trial
    =
  match (t.engine, t.mode) with
  | Production, Global -> (vec_costs t ~lib ~co_size sub [| trial |]).(0)
  | Production, Windowed | Reference, _ ->
      let pivot = sub.Netlist.Cone.pivot in
      let members = sub.Netlist.Cone.members in
      let c, adjustments, area_delta =
        with_trial t ~lib ~co_size pivot trial (fun adjustments ->
            match t.engine with
            | Production ->
                with_clipped_update t sub
                  ~resized:(pivot :: List.map fst adjustments)
                  (fun _dirty -> windowed_cost t sub)
            | Reference -> (
                let snap = Sta.Electrical.snapshot t.electrical members in
                Fun.protect
                  ~finally:(fun () -> Sta.Electrical.restore t.electrical snap)
                @@ fun () ->
                Sta.Electrical.recompute_nodes t.electrical t.circuit members;
                match t.mode with
                | Windowed -> windowed_cost t sub
                | Global -> trial_cost t ~seed:(fun push -> Array.iter push members)))
      in
      (* area-aware variant: price the area this move adds (baseline mean
         optimization uses it to stop at diminishing returns) *)
      (c +. (t.area_weight *. area_delta), adjustments)

type verdict = {
  best : Cells.Cell.t;
  co_resizes : (Netlist.Circuit.id * Cells.Cell.t) list;
  best_cost : float;
  current_cost : float;
}

(* The inner loop of Fig. 2: try every available size for the pivot, return
   the best cell, its induced fanin co-sizing, and its cost (ties keep the
   incumbent). Production Global scoring prices the whole candidate set in
   one [vec_costs] drain; everything else evaluates one trial at a time.
   Both produce bit-identical verdicts. *)
let best_size ?(co_size = true) t ~lib (sub : Netlist.Cone.subcircuit) =
  let current = Netlist.Circuit.cell_exn t.circuit sub.Netlist.Cone.pivot in
  let current_cost = cost t sub in
  let trials =
    Array.of_list
      (List.filter
         (fun cell -> not (Cells.Cell.equal cell current))
         (Array.to_list (Cells.Library.sizes_of_fn lib (Cells.Cell.fn current))))
  in
  let priced =
    if
      t.engine = Production && t.mode = Global
      && Array.length trials <= max_vec_cells
    then vec_costs t ~lib ~co_size sub trials
    else Array.map (cost_with_cell ~co_size ~lib t sub) trials
  in
  let best =
    ref { best = current; co_resizes = []; best_cost = current_cost; current_cost }
  in
  Array.iteri
    (fun c (cost, adjustments) ->
      if cost < !best.best_cost then
        best :=
          { !best with best = trials.(c); co_resizes = adjustments; best_cost = cost })
    priced;
  !best

(* Make a committed resize visible to subsequent window evaluations. A full
   electrical refresh is one cheap LUT sweep and guarantees later trials in
   the same sweep never score against stale loads or slews; the cached base
   arrivals are re-derived with it. *)
let commit t (_sub : Netlist.Cone.subcircuit) =
  Sta.Electrical.recompute_all t.electrical t.circuit;
  refresh_base t

(* Production commit: an unclipped exact-stop [Electrical.update] from the
   resized gates, then the cached base arrivals are resynced by draining
   the change wavefront with a bit-equal stop. Each popped node is
   recomputed with the same operations in the same order as the full
   [propagate_into ~exact:true] pass, so a node whose fanin arrivals and
   arc delays are unchanged recomputes to bit-identical moments and the
   sweep halts there, leaving [base] bit-equal to a full refresh. The
   FULLSSTA annotation is deliberately NOT touched here: mid-sweep trials
   read it only as the frozen boundary (Windowed mode) or not at all
   (Global mode reads [base]), and the caller re-syncs it once per outer
   iteration with [Fullssta.update]. *)
let commit_incremental t ~resized =
  if t.engine <> Production then
    invalid_arg "Window.commit_incremental: Reference window";
  let dirty = Sta.Electrical.update t.electrical t.circuit ~resized in
  let w = t.wavefront in
  Netlist.Wavefront.clear w;
  List.iter (fun id -> Netlist.Wavefront.push w id) dirty;
  let acc = { am = 0.0; av = 0.0 } in
  let push_fanout fo = Netlist.Wavefront.push w fo in
  let min_o = ref max_int in
  let visits = ref 0 in
  let rec drain () =
    let id = Netlist.Wavefront.pop w in
    if id >= 0 then begin
      incr visits;
      (* every replaced row is popped (all dirty ids are seeds), so this
         keeps the arc cache in step with the committed electrical state *)
      refresh_arc_cache t id;
      let fanins = Netlist.Circuit.fanins t.circuit id in
      let nf = Array.length fanins in
      let old = t.base.(id) in
      if nf > 0 then begin
        let line = t.f_arc.(id) in
        (* unsafe accesses: k < nf = |fanins| = |line|, and fi is a node
           id, so [base] (length [size circuit]) covers it *)
        for k = 0 to nf - 1 do
          let m = Array.unsafe_get t.base (Array.unsafe_get fanins k) in
          let arc = Array.unsafe_get line k in
          let sm = m.Numerics.Clark.mean +. arc.Numerics.Clark.mean in
          let sv = m.Numerics.Clark.var +. arc.Numerics.Clark.var in
          if k = 0 then begin
            acc.am <- sm;
            acc.av <- sv
          end
          else scalar_max acc sm sv
        done;
        if
          not
            (Float.equal acc.am old.Numerics.Clark.mean
            && Float.equal acc.av old.Numerics.Clark.var)
        then begin
          t.base.(id) <- Numerics.Clark.moments ~mean:acc.am ~var:acc.av;
          t.base_sigma.(id) <- Float.sqrt acc.av;
          let oi = t.out_idx.(id) in
          if oi >= 0 && oi < !min_o then min_o := oi;
          Netlist.Circuit.iter_fanouts t.circuit id ~f:push_fanout
        end
      end;
      drain ()
    end
  in
  drain ();
  Obs.Counters.add c_commit_visits !visits;
  (* the resync wrote nothing before output index [min_o], so earlier prefix
     entries — and, when no output arrival changed at all, the committed
     cost itself — are already the values a full refold would produce (the
     last prefix entry IS the RV_O fold [cost_of_rv] performs: the same left
     [max_exact] fold over the same output order) *)
  (let m = Array.length t.out_prefix in
   if !min_o < m then begin
     rebuild_out_prefix ~from:!min_o t;
     t.base_cost <- Objective.cost_of_moments t.objective t.out_prefix.(m - 1)
   end
   else if m = 0 then t.base_cost <- rv_cost t (fun o -> t.base.(o)))

let base_cost t = t.base_cost

let fassta_stats t = t.stats
