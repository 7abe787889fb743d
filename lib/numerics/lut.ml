(* Two-dimensional lookup tables with bilinear interpolation — the NLDM-style
   delay/slew model of the cell library ("industrial 90nm lookup-table based
   standard cell library" in the paper's setup).

   Axes must be strictly increasing. Queries outside the grid clamp to the
   edge, matching how timing tools extrapolate conservative corners.

   Storage is a single contiguous row-major float array (stride = column
   count): the four corner reads of a bilinear patch land in at most two
   cache lines. The interpolation arithmetic is unchanged from the seed
   nested-array implementation, so every query returns bit-identical
   values. *)

type t = {
  rows : float array; (* first index, e.g. input slew *)
  cols : float array; (* second index, e.g. load capacitance *)
  flat : float array; (* row-major: value at (rows.(i), cols.(j)) is flat.(i*nc + j) *)
  nr : int;
  nc : int;
  oob_queries : int Atomic.t; (* queries clamped to the grid edge *)
}

(* Global across all tables (per-table detail stays in [oob_count]); feeds
   the CI-gated counter block. *)
let c_clamp = Obs.Counters.make "lut.clamp_events"

let strictly_increasing a =
  let n = Array.length a in
  let rec go i = i >= n - 1 || (a.(i) < a.(i + 1) && go (i + 1)) in
  go 0

let create ~rows ~cols ~values =
  let nr = Array.length rows and nc = Array.length cols in
  if nr = 0 || nc = 0 then invalid_arg "Lut.create: empty axis";
  if not (strictly_increasing rows && strictly_increasing cols) then
    invalid_arg "Lut.create: axes must be strictly increasing";
  if Array.length values <> nr || Array.exists (fun r -> Array.length r <> nc) values
  then invalid_arg "Lut.create: values shape mismatch";
  let flat = Array.make (nr * nc) 0.0 in
  for i = 0 to nr - 1 do
    Array.blit values.(i) 0 flat (i * nc) nc
  done;
  { rows; cols; flat; nr; nc; oob_queries = Atomic.make 0 }

let of_function ~rows ~cols f =
  let values = Array.map (fun r -> Array.map (fun c -> f r c) cols) rows in
  create ~rows ~cols ~values

(* Where x falls on an axis: the index of the grid cell containing it,
   clamped so that i and i+1 are valid, and the interpolation fraction in
   [0, 1] within that cell. Both take the same branches on the same
   predicates in the same order ([x <= axis.(0)], then [x >= axis.(n-1)],
   then bisection on [x < axis.(mid)]), so [cell_frac axis x (cell_index
   axis x)] is the fraction of that cell. The float annotations make every
   comparison a typed float compare (unannotated, they compile to
   polymorphic-compare C calls on boxed floats), and [[@inline]] lets
   [eval] keep the fraction unboxed: a query allocates nothing beyond its
   boxed result. *)
let[@inline] cell_index (axis : float array) (x : float) =
  let n = Array.length axis in
  if n = 1 || x <= axis.(0) then 0
  else if x >= axis.(n - 1) then Int.max 0 (n - 2)
  else begin
    (* invariant: axis.(lo) <= x < axis.(hi) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if x < axis.(mid) then hi := mid else lo := mid
    done;
    !lo
  end

let[@inline] cell_frac (axis : float array) (x : float) i =
  let n = Array.length axis in
  if n = 1 || x <= axis.(0) then 0.0
  else if x >= axis.(n - 1) then 1.0
  else (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i))

let in_range_axis (axis : float array) (x : float) =
  x >= axis.(0) && x <= axis.(Array.length axis - 1)

let in_range t ~row ~col = in_range_axis t.rows row && in_range_axis t.cols col

let oob_count t = Atomic.get t.oob_queries
let reset_oob t = Atomic.set t.oob_queries 0

(* Bilinear interpolation. The value reads and the arithmetic replicate the
   seed nested-array implementation operation for operation, so results are
   bit-identical to it. *)
let eval t ~row ~col =
  let i = cell_index t.rows row and j = cell_index t.cols col in
  let fr = cell_frac t.rows row i and fc = cell_frac t.cols col j in
  let v00 = t.flat.((i * t.nc) + j) in
  if t.nr = 1 && t.nc = 1 then v00
  else
    let i1 = Int.min (t.nr - 1) (i + 1) in
    let j1 = Int.min (t.nc - 1) (j + 1) in
    let v01 = t.flat.((i * t.nc) + j1)
    and v10 = t.flat.((i1 * t.nc) + j)
    and v11 = t.flat.((i1 * t.nc) + j1) in
    ((1.0 -. fr) *. (((1.0 -. fc) *. v00) +. (fc *. v01)))
    +. (fr *. (((1.0 -. fc) *. v10) +. (fc *. v11)))

let query t ~row ~col =
  if not (in_range t ~row ~col) then begin
    Atomic.incr t.oob_queries;
    Obs.Counters.bump c_clamp
  end;
  eval t ~row ~col

(* Hull of the interpolated surface over a box of query points. The clamped
   bilinear surface restricted to any axis-aligned box is piecewise bilinear
   with breakpoints on the grid lines, and a bilinear patch on a box attains
   its extremes at the box corners — so evaluating at every (row, col) pair
   drawn from {box edges} ∪ {grid lines crossing the box} covers the true
   min/max exactly. Certification queries go through here rather than
   [query] so sweeping hypothetical operating boxes does not pollute the
   out-of-bounds counter (LIB007 reports real runtime queries only). *)
let range t ~row:(rlo, rhi) ~col:(clo, chi) =
  if not (rlo <= rhi && clo <= chi) then invalid_arg "Lut.range: empty box";
  let axis_points axis lo hi =
    let inside =
      Array.to_list axis |> List.filter (fun x -> x > lo && x < hi)
    in
    lo :: (inside @ [ hi ])
  in
  let rows_pts = axis_points t.rows rlo rhi in
  let cols_pts = axis_points t.cols clo chi in
  let min_v = ref infinity and max_v = ref neg_infinity in
  List.iter
    (fun row ->
      List.iter
        (fun col ->
          let v = eval t ~row ~col in
          if v < !min_v then min_v := v;
          if v > !max_v then max_v := v)
        cols_pts)
    rows_pts;
  (!min_v, !max_v)

let rows t = Array.copy t.rows
let cols t = Array.copy t.cols

let values t =
  Array.init t.nr (fun i -> Array.sub t.flat (i * t.nc) t.nc)

let map t ~f =
  { t with flat = Array.map f t.flat; oob_queries = Atomic.make 0 }

let pp ppf t = Fmt.pf ppf "lut[%dx%d]" t.nr t.nc
