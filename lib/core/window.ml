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
  electrical : Sta.Electrical.t; (* shared, mutated and restored per trial *)
  boundary : Netlist.Circuit.id -> Numerics.Clark.moments;
  down_mean : float array; (* remaining mean delay to any primary output *)
  down_var : float array; (* delay variance along that downstream path *)
  base_mean : float array; (* arrivals for the committed sizes: means *)
  base_var : float array; (* ... and variances *)
  mutable base_cost : float; (* RV_O cost of the base arrivals *)
  wavefront : Netlist.Wavefront.t; (* scratch queue for incremental trials *)
  in_window : bool array; (* scratch membership bitmap for clipped trials *)
  seeds : int array; (* a trial's resized ids: pivot, then co-sized fanins *)
  mutable saved : Cells.Cell.t array; (* co-sized fanins' cells before a trial *)
  mutable trial_live : bool; (* a [with_trial] is running; trials do not nest *)
  stats : Ssta.Fassta.stats;
  (* Caches. All of it is pure caching: every value read out of these
     structures is bit-identical to what a from-scratch recompute of the
     window yields (test_incremental holds the window to such an oracle),
     so trial costs and hence sizing decisions are unchanged.
     Every moment lives in two flat float arrays, means and variances, so
     storing one allocates nothing. Per-arc arrays are indexed in CSR
     order: node [id]'s fanin [k] sits at [arc_off.(id) + k].
     - [f_arc_mean]/[f_arc_var] hold each node's per-fanin arc delay
       moments for the COMMITTED electrical state; [f_row] remembers the
       physical arc-delay row each cache line was derived from, so
       validity is one pointer compare ([Electrical.update] replaces a row
       exactly when its values changed, and trials never overwrite a
       committed row).
     - [outputs_arr]/[out_idx]/[pre_mean]/[pre_var] support RV_O prefix
       folding: prefix [i] is the statistical max of the first i+1
       outputs' base arrivals (same left fold as [Clark.max_exact_list]),
       so a trial that only perturbs outputs from index j onward resumes
       the fold at the cached prefix instead of re-maxing every output.
     - [base_sigma] is [sqrt base_var.(id)], maintained at every base
       write so the wavefront decay test costs one sqrt (the fresh value)
       per node instead of two. *)
  arc_off : int array;
  f_arc_mean : float array;
  f_arc_var : float array;
  f_row : float array array;
  mutable gen : int;
  outputs_arr : Netlist.Circuit.id array;
  out_idx : int array; (* node id -> index in [outputs_arr], or -1 *)
  pre_mean : float array;
  pre_var : float array;
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
     - [vc_ov_mean]/[vc_ov_var]/[vc_ov_gen]: per-cell override arrivals.
     - [vc_arc_mean]/[vc_arc_var]/[vc_arc_gen]: per-cell arc moments
       (CSR, stamped per node) captured from the trial's perturbed
       electrical rows while they were live.
     - [vc_min_out]: per-cell lowest perturbed output index for the RV_O
       prefix-fold resume. *)
  pend : int array;
  pend_gen : int array;
  mutable vc_ov_mean : float array array;
  mutable vc_ov_var : float array array;
  mutable vc_ov_gen : int array array;
  mutable vc_arc_mean : float array array;
  mutable vc_arc_var : float array array;
  mutable vc_arc_gen : int array array;
  mutable vc_min_out : int array;
}

(* Candidate bitmasks live in one int; windows with more sizes than this
   (none in practice) fall back to the one-trial-at-a-time path. *)
let max_vec_cells = Sys.int_size - 2

(* Scalar accumulator for arrival folds: the drain below runs
   [Clark.max_exact] millions of times per sizer call, and folding through
   a mutable float pair instead of intermediate records keeps the hot loop
   allocation-free. *)
type acc2 = { mutable am : float; mutable av : float }

(* Verbatim copies of [Numerics.Erf.exact], [Numerics.Normal.pdf] and
   [Numerics.Normal.cdf], constants included (same expressions, hence the
   same floats). They live here because dune's default dev profile compiles
   every module with [-opaque]: no call across a module boundary is ever
   inlined, [[@inline]] or not, so each float crossing one is boxed.
   Inlined in this module, the exact Clark max below allocates nothing. The
   originals stay the definition: [Clark.max_exact] uses them, and so does
   the from-scratch window oracle in test_incremental, which holds the two
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

(* Verbatim copies of [Variation.Model.systematic_sigma], [random_sigma]
   and [sigma], for the same reason: the capture phase derives a variance
   for every arc of every dirty node, and [Model.delay_moments] would box
   its arguments and build a record per arc. That record is
   [{ mean = delay; var = s *. s }] with [s = sigma], so the arc caches
   store [delay] and [s *. s] from these copies. The same rule holds: do
   not simplify (say, fold [random_sigma] into a constant or drop the
   [size_exponent = 1.0] branch); FASSTA and the window oracle in
   test_incremental price arcs with the original, and the oracle tests hold
   them equal. *)
let[@inline] model_systematic_sigma (m : Variation.Model.t) ~delay ~strength =
  let base = Float.max strength 1e-9 in
  let denom =
    if m.Variation.Model.size_exponent = 1.0 then base
    else Float.pow base m.Variation.Model.size_exponent
  in
  m.Variation.Model.systematic *. delay /. denom

let[@inline] model_random_sigma (m : Variation.Model.t) =
  m.Variation.Model.random_floor *. m.Variation.Model.tau_ref

let[@inline] model_sigma m ~delay ~strength =
  let s1 = model_systematic_sigma m ~delay ~strength
  and s2 = model_random_sigma m in
  Float.sqrt ((s1 *. s1) +. (s2 *. s2))

(* [Float.max v 0.0], bit for bit, without its two [sign_bit] C calls
   (stdlib's [Float.max] is [[@inline]], but [sign_bit] is an external, so
   every call spills the live float registers around two C calls). The
   cases: v > 0 gives v; v = +0.0 gives 0.0, the same bits; v = -0.0, v < 0
   and v = -inf give +0.0; a NaN gives itself. *)
let[@inline] max0 v = if v > 0.0 || v <> v then v else 0.0

(* [acc <- max(acc, N(bm, bv))]: a clone of [Clark.max_exact ~rho:0.0] —
   the same operations in the same order on the same operands (with [max0]
   for its two [Float.max _ 0.0] clamps), so the accumulated mean/var are
   bit-identical to the record-folding oracle. *)
let[@inline] scalar_max acc bm bv =
  let am = acc.am and av = acc.av in
  let sp = Float.sqrt (max0 (av +. bv)) in
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
    acc.av <- max0 (m2 -. (m1 *. m1))
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

let base_moments t id =
  { Numerics.Clark.mean = t.base_mean.(id); var = t.base_var.(id) }

let prefix_moments t i =
  { Numerics.Clark.mean = t.pre_mean.(i); var = t.pre_var.(i) }

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
        t.pre_mean.(0) <- t.base_mean.(outs.(0));
        t.pre_var.(0) <- t.base_var.(outs.(0));
        1
      end
      else from
    in
    for i = start to m - 1 do
      let p =
        Numerics.Clark.max_exact (prefix_moments t (i - 1))
          (base_moments t outs.(i))
      in
      t.pre_mean.(i) <- p.Numerics.Clark.mean;
      t.pre_var.(i) <- p.Numerics.Clark.var
    done
  end

(* Re-derive one node's cached arc delay moments from its current
   electrical row — the values [Variation.Model.delay_moments] returns, so
   a cached read is bit-equal to an inline recompute for as long as the row
   survives. A no-op while the row is the one the line was derived from. *)
let refresh_arc_cache t id =
  let row = Sta.Electrical.arc_delays t.electrical id in
  if row != t.f_row.(id) then begin
    let nf = Array.length (Netlist.Circuit.fanins t.circuit id) in
    if nf > 0 then begin
      let strength =
        (Netlist.Circuit.cell_exn t.circuit id).Cells.Cell.strength
      in
      let off = t.arc_off.(id) in
      for k = 0 to nf - 1 do
        let delay = row.(k) in
        let s = model_sigma t.model ~delay ~strength in
        t.f_arc_mean.(off + k) <- delay;
        t.f_arc_var.(off + k) <- s *. s
      done
    end;
    t.f_row.(id) <- row
  end

(* Re-derive the committed-state arrival moments and their RV_O cost, and
   revalidate the arc cache and the prefix folds. *)
let refresh_base t =
  let n = Array.length t.base_mean in
  for id = 0 to n - 1 do
    refresh_arc_cache t id
  done;
  let arrivals = Array.make n { Numerics.Clark.mean = 0.0; var = 0.0 } in
  Ssta.Fassta.propagate_into ~exact:true ~model:t.model ~circuit:t.circuit
    ~electrical:t.electrical arrivals;
  Array.iteri
    (fun id (m : Numerics.Clark.moments) ->
      t.base_mean.(id) <- m.mean;
      t.base_var.(id) <- m.var)
    arrivals;
  t.base_cost <- rv_cost t (fun o -> arrivals.(o));
  rebuild_out_prefix t;
  for id = 0 to n - 1 do
    t.base_sigma.(id) <- Float.sqrt t.base_var.(id)
  done

let create ?(mode = Global) ~circuit ~model ~objective ~full () =
  let electrical = Ssta.Fullssta.electrical full in
  let n = Netlist.Circuit.size circuit in
  let down_mean = Array.make n 0.0 and down_var = Array.make n 0.0 in
  downstream_stats_into ~model circuit electrical down_mean down_var;
  let outputs_arr = Array.of_list (Netlist.Circuit.outputs circuit) in
  let out_idx = Array.make n (-1) in
  Array.iteri (fun i o -> out_idx.(o) <- i) outputs_arr;
  let nfanins id = Array.length (Netlist.Circuit.fanins circuit id) in
  let arc_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    arc_off.(id + 1) <- arc_off.(id) + nfanins id
  done;
  let narcs = arc_off.(n) in
  let max_fanins = ref 0 in
  for id = 0 to n - 1 do
    max_fanins := Int.max !max_fanins (nfanins id)
  done;
  (* a sentinel no live electrical row can alias, so every cache line
     starts stale *)
  let stale_row = [| Float.nan |] in
  let m = Array.length outputs_arr in
  let t =
    {
      circuit;
      model;
      objective;
      mode;
      electrical;
      boundary = Ssta.Fullssta.moments full;
      down_mean;
      down_var;
      base_mean = Array.make n 0.0;
      base_var = Array.make n 0.0;
      base_cost = 0.0;
      wavefront = Netlist.Wavefront.create n;
      in_window = Array.make n false;
      seeds = Array.make (1 + !max_fanins) 0;
      saved = [||];
      trial_live = false;
      stats = Ssta.Fassta.make_stats ();
      arc_off;
      f_arc_mean = Array.make narcs 0.0;
      f_arc_var = Array.make narcs 0.0;
      f_row = Array.make n stale_row;
      gen = 0;
      outputs_arr;
      out_idx;
      pre_mean = Array.make m 0.0;
      pre_var = Array.make m 0.0;
      base_sigma = Array.make n 0.0;
      pend = Array.make n 0;
      pend_gen = Array.make n 0;
      vc_ov_mean = [||];
      vc_ov_var = [||];
      vc_ov_gen = [||];
      vc_arc_mean = [||];
      vc_arc_var = [||];
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
   trees). *)

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

(* The co-sizing bookkeeping of [with_trial], as loops over the
   adjustment list: [saved.(i)] is the cell the [i]-th adjusted fanin had
   before the trial, [seeds] lists the trial's resized ids. *)
let rec save_cells t i = function
  | [] -> ()
  | (fi, _) :: rest ->
      t.saved.(i) <- Netlist.Circuit.cell_exn t.circuit fi;
      save_cells t (i + 1) rest

let rec install_cells circuit = function
  | [] -> ()
  | (fi, cell) :: rest ->
      Netlist.Circuit.set_cell circuit fi cell;
      install_cells circuit rest

let rec restore_cells t i = function
  | [] -> ()
  | (fi, _) :: rest ->
      Netlist.Circuit.set_cell t.circuit fi t.saved.(i);
      restore_cells t (i + 1) rest

let rec fill_seeds t i = function
  | [] -> i
  | (fi, _) :: rest ->
      t.seeds.(i) <- fi;
      fill_seeds t (i + 1) rest

(* Install [trial] on the pivot plus its fanin co-sizing,
   run [f adjustments], and restore every cell, also when [f] raises.
   Returns [f]'s result and the adjustments the trial would commit. Trials
   do not nest: [saved], [in_window] and the electrical trial log each hold
   one trial, so a trial started from inside [f] is refused before it
   touches any of them, and the exception unwinds the live trial through
   its handlers. *)
let with_trial t ~lib pivot trial f =
  if t.trial_live then invalid_arg "Window: a trial is already live";
  t.trial_live <- true;
  let circuit = t.circuit in
  let original = Netlist.Circuit.cell_exn circuit pivot in
  let adjustments = ref [] in
  match
    Netlist.Circuit.set_cell circuit pivot trial;
    let adj = fanin_adjustments t ~lib pivot in
    let k = List.length adj in
    if Array.length t.saved < k then t.saved <- Array.make k trial;
    save_cells t 0 adj;
    adjustments := adj;
    install_cells circuit adj;
    f adj
  with
  | r ->
      let adj = !adjustments in
      restore_cells t 0 adj;
      Netlist.Circuit.set_cell circuit pivot original;
      t.trial_live <- false;
      (r, adj)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      restore_cells t 0 !adjustments;
      Netlist.Circuit.set_cell circuit pivot original;
      t.trial_live <- false;
      Printexc.raise_with_backtrace e bt

let set_members t members v =
  for i = 0 to Array.length members - 1 do
    t.in_window.(members.(i)) <- v
  done

(* Trial electrical update: [Electrical.update_trial], the exact-stop
   update seeded from the resized gates and clipped to the window, which
   writes the same values a full recompute of the window's members would
   while touching only the true perturbation cone; its log
   rewinds exactly what was touched, also when [f] raises. [f] runs while
   the trial is live and reads the electrically-dirty ids from
   [Electrical.dirty]. *)
let with_clipped_update t (sub : Netlist.Cone.subcircuit) adjustments f =
  let members = sub.Netlist.Cone.members in
  set_members t members true;
  t.seeds.(0) <- sub.Netlist.Cone.pivot;
  let nresized = fill_seeds t 1 adjustments in
  match
    Sta.Electrical.update_trial t.electrical t.circuit ~within:t.in_window
      ~resized:t.seeds ~nresized;
    f ()
  with
  | r ->
      Sta.Electrical.rewind t.electrical;
      set_members t members false;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Sta.Electrical.rewind t.electrical;
      set_members t members false;
      Printexc.raise_with_backtrace e bt

(* Grow the vectorized-trial structures to [nc] candidate slots. Fresh
   generation-stamp arrays start at 0 and [t.gen] is bumped before any
   batch, so new slots begin universally invalid without clearing. *)
let ensure_vc t nc =
  let cur = Array.length t.vc_ov_gen in
  if cur < nc then begin
    let n = Array.length t.pend and narcs = Array.length t.f_arc_mean in
    let grow mk old = Array.init nc (fun c -> if c < cur then old.(c) else mk ()) in
    t.vc_ov_mean <- grow (fun () -> Array.make n 0.0) t.vc_ov_mean;
    t.vc_ov_var <- grow (fun () -> Array.make n 0.0) t.vc_ov_var;
    t.vc_ov_gen <- grow (fun () -> Array.make n 0) t.vc_ov_gen;
    t.vc_arc_mean <- grow (fun () -> Array.make narcs 0.0) t.vc_arc_mean;
    t.vc_arc_var <- grow (fun () -> Array.make narcs 0.0) t.vc_arc_var;
    t.vc_arc_gen <- grow (fun () -> Array.make n 0) t.vc_arc_gen;
    t.vc_min_out <- Array.make nc max_int
  end

(* Capture one dirty node for candidate [c]: its arc delay moments from
   the trial's perturbed row and strength, and its pending bit. *)
let capture t c gen id =
  let nf = Array.length (Netlist.Circuit.fanins t.circuit id) in
  if nf > 0 then begin
    let row = Sta.Electrical.arc_delays t.electrical id in
    let strength = (Netlist.Circuit.cell_exn t.circuit id).Cells.Cell.strength in
    let off = t.arc_off.(id) in
    let arc_mean = t.vc_arc_mean.(c) and arc_var = t.vc_arc_var.(c) in
    for k = 0 to nf - 1 do
      let delay = row.(k) in
      let s = model_sigma t.model ~delay ~strength in
      arc_mean.(off + k) <- delay;
      arc_var.(off + k) <- s *. s
    done;
    t.vc_arc_gen.(c).(id) <- gen
  end;
  (if t.pend_gen.(id) = gen then t.pend.(id) <- t.pend.(id) lor (1 lsl c)
   else begin
     t.pend.(id) <- 1 lsl c;
     t.pend_gen.(id) <- gen
   end);
  Netlist.Wavefront.push t.wavefront id

(* Phase 1 of [vec_costs] for candidate [c]: install [trial], run the
   clipped electrical trial, capture every dirty node, run [k] while the
   trial is live, and restore. *)
let capture_candidate t ~lib (sub : Netlist.Cone.subcircuit) ~gen c trial k =
  with_trial t ~lib sub.Netlist.Cone.pivot trial (fun adjustments ->
      with_clipped_update t sub adjustments (fun () ->
          let e = t.electrical in
          for i = Sta.Electrical.dirty_count e - 1 downto 0 do
            capture t c gen (Sta.Electrical.dirty e i)
          done;
          k ()))

(* Global scoring: every candidate cell of the window in ONE
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
let vec_costs t ~lib (sub : Netlist.Cone.subcircuit) trials =
  let nc = Array.length trials in
  ensure_vc t nc;
  t.gen <- t.gen + 1;
  let gen = t.gen in
  let w = t.wavefront in
  Netlist.Wavefront.clear w;
  Array.fill t.vc_min_out 0 nc max_int;
  let priced =
    Array.mapi
      (fun c trial ->
        snd (capture_candidate t ~lib sub ~gen c trial ignore))
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
        let old_mean = t.base_mean.(id) in
        let old_sigma = t.base_sigma.(id) in
        let off = t.arc_off.(id) in
        let oi = t.out_idx.(id) in
        prop := 0;
        (* unsafe accesses: c < nc ≤ |vc_*|, k < nf = |fanins|, off + k <
           arc_off.(id + 1) ≤ |per-arc arrays|, and fi/id are node ids
           covered by every length-n array *)
        for c = 0 to nc - 1 do
          if mask land (1 lsl c) <> 0 then begin
            incr cell_evals;
            let captured =
              Array.unsafe_get (Array.unsafe_get t.vc_arc_gen c) id = gen
            in
            let arc_mean =
              if captured then Array.unsafe_get t.vc_arc_mean c else t.f_arc_mean
            and arc_var =
              if captured then Array.unsafe_get t.vc_arc_var c else t.f_arc_var
            in
            let ov_mean = Array.unsafe_get t.vc_ov_mean c
            and ov_var = Array.unsafe_get t.vc_ov_var c
            and ov_gen = Array.unsafe_get t.vc_ov_gen c in
            for k = 0 to nf - 1 do
              let fi = Array.unsafe_get fanins k in
              let ov = Array.unsafe_get ov_gen fi = gen in
              let fm =
                if ov then Array.unsafe_get ov_mean fi
                else Array.unsafe_get t.base_mean fi
              and fv =
                if ov then Array.unsafe_get ov_var fi
                else Array.unsafe_get t.base_var fi
              in
              let sm = fm +. Array.unsafe_get arc_mean (off + k) in
              let sv = fv +. Array.unsafe_get arc_var (off + k) in
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
              ov_mean.(id) <- acc.am;
              ov_var.(id) <- acc.av;
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
    (fun c adjustments ->
      let j = t.vc_min_out.(c) in
      let rv =
        if j = max_int then t.base_cost
        else begin
          let ov_mean = t.vc_ov_mean.(c)
          and ov_var = t.vc_ov_var.(c)
          and ov_gen = t.vc_ov_gen.(c) in
          let o = outs.(j) in
          let ov = ov_gen.(o) = gen in
          let m0_mean = if ov then ov_mean.(o) else t.base_mean.(o)
          and m0_var = if ov then ov_var.(o) else t.base_var.(o) in
          (if j = 0 then begin
             acc.am <- m0_mean;
             acc.av <- m0_var
           end
           else begin
             acc.am <- t.pre_mean.(j - 1);
             acc.av <- t.pre_var.(j - 1);
             scalar_max acc m0_mean m0_var
           end);
          for i = j + 1 to Array.length outs - 1 do
            let o = outs.(i) in
            let ov = ov_gen.(o) = gen in
            scalar_max acc
              (if ov then ov_mean.(o) else t.base_mean.(o))
              (if ov then ov_var.(o) else t.base_var.(o))
          done;
          Objective.cost_of_moments t.objective
            (Numerics.Clark.moments ~mean:acc.am ~var:acc.av)
        end
      in
      (rv, adjustments))
    priced

let capture_trial t ~lib (sub : Netlist.Cone.subcircuit) trial k =
  ensure_vc t 1;
  t.gen <- t.gen + 1;
  Netlist.Wavefront.clear t.wavefront;
  let r, _ = capture_candidate t ~lib sub ~gen:t.gen 0 trial k in
  Netlist.Wavefront.clear t.wavefront;
  r

(* Evaluate one trial cell for the window's pivot (plus its induced fanin
   co-sizing): install, recompute the window electrically, score, restore.
   Returns the cost and the fanin adjustments the trial would commit.
   Global scoring is [vec_costs] on a one-candidate batch; Windowed scoring
   runs the clipped dirty-cone update and a FASSTA pass over the window.
   Either way the electrical trial stays clipped to the window (slew
   perturbations are assumed to die out within its two levels). *)
let cost_with_cell ~lib t (sub : Netlist.Cone.subcircuit) trial =
  match t.mode with
  | Global -> (vec_costs t ~lib sub [| trial |]).(0)
  | Windowed ->
      with_trial t ~lib sub.Netlist.Cone.pivot trial (fun adjustments ->
          with_clipped_update t sub adjustments (fun () -> windowed_cost t sub))

type verdict = {
  best : Cells.Cell.t;
  co_resizes : (Netlist.Circuit.id * Cells.Cell.t) list;
  best_cost : float;
  current_cost : float;
}

(* The inner loop of Fig. 2: try every available size for the pivot, return
   the best cell, its induced fanin co-sizing, and its cost (ties keep the
   incumbent). Global scoring prices the whole candidate set in one
   [vec_costs] drain; Windowed scoring evaluates one trial at a time. *)
let best_size t ~lib (sub : Netlist.Cone.subcircuit) =
  let current = Netlist.Circuit.cell_exn t.circuit sub.Netlist.Cone.pivot in
  let current_cost = cost t sub in
  let trials =
    Array.of_list
      (List.filter
         (fun cell -> not (Cells.Cell.equal cell current))
         (Array.to_list (Cells.Library.sizes_of_fn lib (Cells.Cell.fn current))))
  in
  let priced =
    if t.mode = Global && Array.length trials <= max_vec_cells then
      vec_costs t ~lib sub trials
    else Array.map (cost_with_cell ~lib t sub) trials
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

(* Make a committed resize visible to subsequent window evaluations: an
   unclipped exact-stop [Electrical.update] from the resized gates, then
   the cached base arrivals are resynced by draining the change wavefront
   with a bit-equal stop. Each popped node is recomputed with the same
   operations in the same order as the full [propagate_into ~exact:true]
   pass, so a node whose fanin arrivals and arc delays are unchanged
   recomputes to bit-identical moments and the sweep halts there, leaving
   [base] bit-equal to a full refresh. The
   FULLSSTA annotation is deliberately NOT touched here: mid-sweep trials
   read it only as the frozen boundary (Windowed mode) or not at all
   (Global mode reads [base]), and the caller re-syncs it once per outer
   iteration with [Fullssta.update]. *)
let commit_incremental t ~resized =
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
      if nf > 0 then begin
        let off = t.arc_off.(id) in
        (* unsafe accesses: k < nf = |fanins|, off + k < arc_off.(id + 1) ≤
           |f_arc_*|, and fi is a node id, so the base arrays (length
           [size circuit]) cover it *)
        for k = 0 to nf - 1 do
          let fi = Array.unsafe_get fanins k in
          let sm =
            Array.unsafe_get t.base_mean fi
            +. Array.unsafe_get t.f_arc_mean (off + k)
          in
          let sv =
            Array.unsafe_get t.base_var fi
            +. Array.unsafe_get t.f_arc_var (off + k)
          in
          if k = 0 then begin
            acc.am <- sm;
            acc.av <- sv
          end
          else scalar_max acc sm sv
        done;
        if
          not
            (Float.equal acc.am t.base_mean.(id)
            && Float.equal acc.av t.base_var.(id))
        then begin
          t.base_mean.(id) <- acc.am;
          t.base_var.(id) <- acc.av;
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
  (let m = Array.length t.outputs_arr in
   if !min_o < m then begin
     rebuild_out_prefix ~from:!min_o t;
     t.base_cost <- Objective.cost_of_moments t.objective (prefix_moments t (m - 1))
   end
   else if m = 0 then t.base_cost <- rv_cost t (base_moments t))

let base_cost t = t.base_cost

let fassta_stats t = t.stats
