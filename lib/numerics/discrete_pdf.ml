(* Discrete probability distributions: the FULLSSTA representation.

   Following Liou et al. (DAC'01), a pdf is a finite list of (value, mass)
   points. The SSTA engine keeps 10-15 points per pdf; [max] expands the
   support (support union) and the engine re-samples back to its budget
   afterwards, while [sum] re-bins its cross sums to the budget itself.

   Invariants: support strictly increasing, masses non-negative, masses sum
   to 1 (up to float round-off; constructors renormalize). *)

type t = { xs : float array; ps : float array }

let epsilon_mass = 1e-12

(* [Stdlib.min] is polymorphic, so each call is a C comparison; the
   kernels clamp indices per point and per merged run with this one. *)
let imin (a : int) b = if a <= b then a else b

(* statobs counters for the pdf kernels: calls count invocations, points
   count the work each invocation actually did (na·nb for the cross-product
   sum, na+nb for the CDF-product max), so the ratio exposes support-size
   growth that wall-clock alone would hide. *)
let c_sum_calls = Obs.Counters.make "pdf.sum.calls"
let c_sum_points = Obs.Counters.make "pdf.sum.points"
let c_max2_calls = Obs.Counters.make "pdf.max2.calls"
let c_max2_points = Obs.Counters.make "pdf.max2.points"
let c_resample_calls = Obs.Counters.make "pdf.resample.calls"
let c_of_normal_calls = Obs.Counters.make "pdf.of_normal.calls"

(* Per-domain scratch buffers for the hot kernels: [sum], [resample] and
   [of_normal] run hundreds of times per SSTA pass, and their intermediates
   (cross-product points, merge temporaries, bin accumulators) would
   otherwise churn the heap — one FULLSSTA arc step's 288 cross points
   already exceed the 256-word limit above which OCaml allocates straight
   in the major heap. Domain-local so the experiment runners can fan out
   over domains without sharing. Three groups, each grown on its own so
   that growing one never drops another's live contents: [merge] holds
   [sum]'s cross products and their merge (and [of_normal]'s bins), [bins]
   the re-binning accumulators and emitted points, and [sort]
   [sort_points]' merge temporaries; [total] is the cell [cluster] leaves
   its mass total in. Only intermediates live here — every returned pdf is
   built from fresh arrays, so results never alias the pool. *)
type scratch = {
  merge : float array array;
  bins : float array array;
  sort : float array array;
  total : float array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        merge = Array.make 4 [||];
        bins = Array.make 5 [||];
        sort = Array.make 2 [||];
        total = [| 0.0 |];
      })

(* Grow a group of equal-length buffers to hold [n] points (doubling, never
   shrinking). Growth drops the group's contents, so callers grow a group
   before they write to it. *)
let grow group n =
  if Array.length group.(0) < n then begin
    let m = Stdlib.max n (2 * Array.length group.(0)) in
    for i = 0 to Array.length group - 1 do
      group.(i) <- Array.make m 0.0
    done
  end;
  group

let constant x = { xs = [| x |]; ps = [| 1.0 |] }

let check_invariants t =
  let n = Array.length t.xs in
  n > 0
  && Array.length t.ps = n
  && (let rec incr i = i >= n - 1 || (t.xs.(i) < t.xs.(i + 1) && incr (i + 1)) in
      incr 0)
  && Array.for_all (fun p -> p >= -.epsilon_mass) t.ps
  &&
  let total = Array.fold_left ( +. ) 0.0 t.ps in
  Float.abs (total -. 1.0) < 1e-6

(* Stable bottom-up merge sort of the first [n] points of the parallel
   arrays ([xs], [ps]), ascending by support value, given that each run of
   [run] consecutive points is already ascending. Each pass merges pairs of
   adjacent runs from one buffer pair into the other, so the passes
   ping-pong with ([tx], [tp]); the result is true when the sorted points
   end in ([tx], [tp]). Stability (equal values keep their input order)
   matters: duplicate support points are later merged by sequential mass
   addition, and float addition is not associative, so the accumulation
   order is part of the kernels' observable semantics. Every stable sort
   yields the same permutation, so [run] only sets how many passes it
   takes: 1 for arbitrary input, [nb] for [sum]'s cross products. Once all
   four buffers are known to hold [n] points, every index the merge
   touches lies in [0, n), so the inner loop skips the bounds checks. *)
let merge_sort ~run (xs : float array) (ps : float array) tx tp n =
  if
    Array.length xs < n || Array.length ps < n || Array.length tx < n
    || Array.length tp < n
  then invalid_arg "Discrete_pdf.merge_sort: buffer shorter than n";
  let src_x = ref xs
  and src_p = ref ps
  and dst_x = ref tx
  and dst_p = ref tp in
  let width = ref run in
  while !width < n do
    let w = !width in
    let sx = !src_x and sp = !src_p and dx = !dst_x and dp = !dst_p in
    let lo = ref 0 in
    while !lo < n do
      let mid = imin (!lo + w) n and hi = imin (!lo + (2 * w)) n in
      let i = ref !lo and j = ref mid and k = ref !lo in
      while !i < mid && !j < hi do
        let xi = Array.unsafe_get sx !i and xj = Array.unsafe_get sx !j in
        (* raw [<=] is exact here: supports are finite and non-NaN *)
        if xi <= xj then begin
          Array.unsafe_set dx !k xi;
          Array.unsafe_set dp !k (Array.unsafe_get sp !i);
          incr i
        end
        else begin
          Array.unsafe_set dx !k xj;
          Array.unsafe_set dp !k (Array.unsafe_get sp !j);
          incr j
        end;
        incr k
      done;
      (* one run is spent; the other's tail is already in order *)
      Array.blit sx !i dx !k (mid - !i);
      Array.blit sp !i dp !k (mid - !i);
      k := !k + (mid - !i);
      Array.blit sx !j dx !k (hi - !j);
      Array.blit sp !j dp !k (hi - !j);
      lo := !lo + (2 * w)
    done;
    let x = !src_x and p = !src_p in
    src_x := !dst_x;
    src_p := !dst_p;
    dst_x := x;
    dst_p := p;
    width := 2 * w
  done;
  !src_x != xs

(* Sort the first [n] points in place. A sortedness pre-scan makes the
   common already-sorted case (max, of_normal) a single pass; the rest
   (re-binned points, arbitrary constructors) merge through the [sort]
   scratch group. *)
let sort_points xs ps n =
  let sorted = ref true in
  for i = 1 to n - 1 do
    if xs.(i - 1) > xs.(i) then sorted := false
  done;
  if not !sorted then begin
    let t = grow (Domain.DLS.get scratch_key).sort n in
    if merge_sort ~run:1 xs ps t.(0) t.(1) n then begin
      Array.blit t.(0) 0 xs 0 n;
      Array.blit t.(1) 0 ps 0 n
    end
  end

(* Filter, duplicate merge and mass total in one pass over the sorted first
   [n] points: drop masses at or below [epsilon_mass], merge clusters of
   points within 1e-12 relative distance of the cluster's first point
   (accumulating mass in ascending order), and compact the clusters in
   place — the write index never overtakes the read index. Each cluster's
   mass joins the total when the next cluster opens, so the total's
   additions run in cluster order, as a separate summing pass would make
   them. Returns the cluster count and leaves the total in [cell.(0)].
   Indices stay below [n] once both arrays are known to hold [n] points,
   so the loop skips the bounds checks. *)
let cluster cell xs ps n =
  if Array.length xs < n || Array.length ps < n then
    invalid_arg "Discrete_pdf.cluster: buffer shorter than n";
  let m = ref 0 and total = ref 0.0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get ps i in
    if p > epsilon_mass then begin
      let head = !m - 1 in
      let x = Array.unsafe_get xs i in
      if
        head >= 0
        && Float.abs (x -. Array.unsafe_get xs head)
           <= 1e-12 *. (1.0 +. Float.abs (Array.unsafe_get xs head))
      then Array.unsafe_set ps head (Array.unsafe_get ps head +. p)
      else begin
        if head >= 0 then total := !total +. Array.unsafe_get ps head;
        Array.unsafe_set xs !m x;
        Array.unsafe_set ps !m p;
        incr m
      end
    end
  done;
  if !m > 0 then total := !total +. ps.(!m - 1);
  if !total <= 0.0 then invalid_arg "Discrete_pdf: no probability mass";
  cell.(0) <- !total;
  !m

(* The normalized pdf of [m] clusters whose masses sum to [total]. Past
   scratch growth it is the kernels' only allocation; inlined, so [total]
   reaches it unboxed. *)
let[@inline] of_clusters xs ps m total =
  let rxs = Array.sub xs 0 m in
  let rps = Array.make m 0.0 in
  for i = 0 to m - 1 do
    rps.(i) <- ps.(i) /. total
  done;
  { xs = rxs; ps = rps }

(* Collapse duplicate support points, drop negligible masses, renormalize.
   Works on the first [n] entries of arrays the caller surrenders. Sorting
   before the filter yields the same sequence as filtering first: a stable
   sort keeps the survivors' relative order. *)
let normalize_arrays xs ps n =
  sort_points xs ps n;
  let cell = (Domain.DLS.get scratch_key).total in
  let m = cluster cell xs ps n in
  of_clusters xs ps m cell.(0)

let normalize points =
  let n = List.length points in
  let xs = Array.make (Stdlib.max n 1) 0.0
  and ps = Array.make (Stdlib.max n 1) 0.0 in
  List.iteri
    (fun i (x, p) ->
      xs.(i) <- x;
      ps.(i) <- p)
    points;
  normalize_arrays xs ps n

let of_points points = normalize points

(* Bit-level equality (same support, same masses); the incremental SSTA
   engine uses this as its exact "nothing changed, stop propagating" test. *)
let equal a b =
  a == b
  || (Array.length a.xs = Array.length b.xs
     && Array.for_all2 Float.equal a.xs b.xs
     && Array.for_all2 Float.equal a.ps b.ps)

let support_size t = Array.length t.xs
let points t = Array.to_list (Array.map2 (fun x p -> (x, p)) t.xs t.ps)

let mean t =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. t.ps.(i))) t.xs;
  !acc

let variance t =
  let m = mean t in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. m in
      acc := !acc +. (d *. d *. t.ps.(i)))
    t.xs;
  Float.max !acc 0.0

let std t = Float.sqrt (variance t)

let to_moments t = Clark.moments ~mean:(mean t) ~var:(variance t)

(* Discretize N(mean, sigma²) over mean ± span·sigma with CDF-difference bin
   masses: each support point carries the mass of its surrounding bin, so the
   discretized pdf's CDF interleaves the true CDF. *)
let of_normal ?(span = 4.0) ~samples ~mean ~sigma () =
  Obs.Counters.bump c_of_normal_calls;
  if samples < 1 then invalid_arg "Discrete_pdf.of_normal: samples < 1";
  if sigma <= 0.0 then constant mean
  else
    let lo = mean -. (span *. sigma) and hi = mean +. (span *. sigma) in
    let step = (hi -. lo) /. float_of_int samples in
    (* both boundary CDF evaluations stay per bin: [left +. step] of one bin
       and [lo +. i *. step] of the next are not bitwise equal, so sharing
       them would perturb the masses in the last ulp *)
    let g = grow (Domain.DLS.get scratch_key).merge samples in
    let xs = g.(0) and ps = g.(1) in
    for i = 0 to samples - 1 do
      let left = lo +. (float_of_int i *. step) in
      let right = left +. step in
      xs.(i) <- 0.5 *. (left +. right);
      ps.(i) <-
        Normal.cdf_at ~mean ~sigma right -. Normal.cdf_at ~mean ~sigma left
    done;
    normalize_arrays xs ps samples

let shift t d = { t with xs = Array.map (fun x -> x +. d) t.xs }

let scale t k =
  if k = 0.0 then constant 0.0
  else if k > 0.0 then { t with xs = Array.map (fun x -> x *. k) t.xs }
  else
    normalize (Array.to_list (Array.map2 (fun x p -> (x *. k, p)) t.xs t.ps))

(* Piecewise-constant CDF: probability mass at or below x. *)
let cdf t x =
  let acc = ref 0.0 in
  (try
     Array.iteri
       (fun i xi ->
         if xi <= x then acc := !acc +. t.ps.(i) else raise Exit)
       t.xs
   with Exit -> ());
  Float.min !acc 1.0

let quantile t p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Discrete_pdf.quantile";
  let n = Array.length t.xs in
  let rec walk i acc =
    if i >= n - 1 then t.xs.(n - 1)
    else
      let acc = acc +. t.ps.(i) in
      if acc >= p then t.xs.(i) else walk (i + 1) acc
  in
  walk 0 0.0

(* Re-bin onto a uniform grid of [samples] bins spanning the first [n]
   points of a strictly ascending support whose masses are
   [ps.(i) /. total]. Each bin's mass is split across two points at its
   centroid ± its within-bin standard deviation, so both the mean and the
   variance are preserved up to rounding — naive centroid binning leaks
   variance at every propagation step, which compounds badly along deep
   paths. The result has at most 2·samples points. Masses are divided by
   [total] as they are read, so the fused [sum] bins its clusters without
   materializing the normalized sum first; [resample] passes a total of
   1.0, which divides exactly. *)
let rebin ~samples ~total xs ps n =
  let lo = xs.(0) and hi = xs.(n - 1) in
  if hi <= lo then constant lo
  else
    let width = (hi -. lo) /. float_of_int samples in
    let g = grow (Domain.DLS.get scratch_key).bins (2 * samples) in
    let mass = g.(0) and m1 = g.(1) and m2 = g.(2) in
    Array.fill mass 0 samples 0.0;
    Array.fill m1 0 samples 0.0;
    Array.fill m2 0 samples 0.0;
    for i = 0 to n - 1 do
      let x = xs.(i) in
      let p = ps.(i) /. total in
      let b = imin (samples - 1) (int_of_float ((x -. lo) /. width)) in
      mass.(b) <- mass.(b) +. p;
      m1.(b) <- m1.(b) +. (p *. x);
      m2.(b) <- m2.(b) +. (p *. x *. x)
    done;
    let bxs = g.(3) and bps = g.(4) in
    let k = ref 0 in
    for b = 0 to samples - 1 do
      if mass.(b) > epsilon_mass then begin
        let mu = m1.(b) /. mass.(b) in
        let var = Float.max ((m2.(b) /. mass.(b)) -. (mu *. mu)) 0.0 in
        let sd = Float.sqrt var in
        if sd > 1e-9 *. (1.0 +. Float.abs mu) then begin
          bxs.(!k) <- mu -. sd;
          bps.(!k) <- 0.5 *. mass.(b);
          incr k;
          bxs.(!k) <- mu +. sd;
          bps.(!k) <- 0.5 *. mass.(b);
          incr k
        end
        else begin
          bxs.(!k) <- mu;
          bps.(!k) <- mass.(b);
          incr k
        end
      end
    done;
    normalize_arrays bxs bps !k

(* [resample]'s entry, shared with the fused [sum]: count the call, then
   vet the budget. *)
let enter_resample samples =
  Obs.Counters.bump c_resample_calls;
  if samples < 1 then invalid_arg "Discrete_pdf.resample: samples < 1"

let resample t ~samples =
  enter_resample samples;
  let n = Array.length t.xs in
  if n <= 2 * samples then t else rebin ~samples ~total:1.0 t.xs t.ps n

(* Sum of independent discrete random variables, re-binned to [samples]:
   one kernel that returns, bit for bit, what re-binning the unresampled
   sum returns, without building that sum. Cross sums of supports with
   product masses are generated as [na] runs that are already ascending
   (fixed outer point, inner support strictly increasing), so the stable
   merge starting at run width [nb] reaches the sorted order in log(na)
   passes. Filtering commutes with a stable sort, so [cluster] can filter,
   merge duplicates and total the masses of the merged points in one pass,
   leaving exactly the support a normalizing pass would have built. Only
   the result is allocated: at most 2·samples points, either those
   clusters normalized (when few enough) or their re-binning. *)
let sum ~samples a b =
  let na = Array.length a.xs and nb = Array.length b.xs in
  let n = na * nb in
  Obs.Counters.bump c_sum_calls;
  Obs.Counters.add c_sum_points n;
  let s = Domain.DLS.get scratch_key in
  let g = grow s.merge n in
  let xs = g.(0) and ps = g.(1) in
  (* runs keep the historical outer order (descending index) so equal
     support values across runs retain their generation order for the
     stable merge; within a run values are strictly increasing, so the
     ascending inner traversal cannot reorder ties *)
  let k = ref 0 in
  for i = na - 1 downto 0 do
    let xa = a.xs.(i) and pa = a.ps.(i) in
    for j = 0 to nb - 1 do
      xs.(!k) <- xa +. b.xs.(j);
      ps.(!k) <- pa *. b.ps.(j);
      incr k
    done
  done;
  let in_tmp = merge_sort ~run:nb xs ps g.(2) g.(3) n in
  let xs = if in_tmp then g.(2) else xs and ps = if in_tmp then g.(3) else ps in
  let m = cluster s.total xs ps n in
  enter_resample samples;
  if m <= 2 * samples then of_clusters xs ps m s.total.(0)
  else rebin ~samples ~total:s.total.(0) xs ps m

(* Max of independent discrete random variables via the CDF product
   F_max(x) = F_A(x) · F_B(x) evaluated on the union of supports: a single
   ascending merge over both supports with running prefix masses, O(na+nb)
   instead of a full CDF scan per union point. *)
let max2 a b =
  let na = Array.length a.xs and nb = Array.length b.xs in
  Obs.Counters.bump c_max2_calls;
  Obs.Counters.add c_max2_points (na + nb);
  let xs = Array.make (na + nb) 0.0 and ps = Array.make (na + nb) 0.0 in
  let m = ref 0 in
  let ia = ref 0 and ib = ref 0 in
  let fa = ref 0.0 and fb = ref 0.0 in
  let prev = ref 0.0 in
  while !ia < na || !ib < nb do
    let x =
      if !ia >= na then b.xs.(!ib)
      else if !ib >= nb then a.xs.(!ia)
      else Float.min a.xs.(!ia) b.xs.(!ib)
    in
    while !ia < na && a.xs.(!ia) <= x do
      fa := !fa +. a.ps.(!ia);
      incr ia
    done;
    while !ib < nb && b.xs.(!ib) <= x do
      fb := !fb +. b.ps.(!ib);
      incr ib
    done;
    let f = Float.min !fa 1.0 *. Float.min !fb 1.0 in
    let mass = f -. !prev in
    prev := f;
    if mass > epsilon_mass then begin
      xs.(!m) <- x;
      ps.(!m) <- mass;
      incr m
    end
  done;
  normalize_arrays xs ps !m

let max_list = function
  | [] -> invalid_arg "Discrete_pdf.max_list: empty"
  | t :: rest -> List.fold_left max2 t rest

(* Empirical distribution of raw samples binned to [samples] points; the
   Monte-Carlo engine uses this to build comparable pdfs. *)
let of_samples ~samples values =
  match values with
  | [] -> invalid_arg "Discrete_pdf.of_samples: empty"
  | _ ->
      let n = List.length values in
      let w = 1.0 /. float_of_int n in
      let raw = normalize (List.map (fun v -> (v, w)) values) in
      resample raw ~samples

let pp ppf t =
  Fmt.pf ppf "@[<hov 2>pdf[%d pts, μ=%.4g, σ=%.4g]@]" (support_size t) (mean t)
    (std t)
