(* The electrical state of a sized circuit: per-node load and output slew,
   and the nominal delay of every fanin->output arc, all straight from the
   library LUTs.

   Slew propagation uses the worst (largest) fanin slew, the usual
   conservative choice that keeps the electrical pass independent of
   arrival times. Both timing engines (deterministic and statistical) and
   the Monte-Carlo sampler consume these arc delays, so they always agree
   on the nominal electrical picture. *)

(* The circuit boundary every engine times against. *)
let input_slew = 10.0
let input_arrival = 0.0

(* statobs: full-sweep node visits vs dirty-cone wavefront pops. Their
   ratio is the incremental engine's savings, reproducible run-to-run. *)
let c_compute_nodes = Obs.Counters.make "electrical.compute.nodes"
let c_update_visits = Obs.Counters.make "electrical.update.visits"

(* Scratch for [update] and trials, created on first use and reused by
   every later call. *)
type work = {
  wave : Netlist.Wavefront.t;
  push_fo : Netlist.Circuit.id -> unit; (* [Wavefront.push wave], built once *)
  mutable stage : float array; (* delay staging buffer for committed updates *)
  mutable seeds : int array; (* [update]'s resized ids *)
  dirty : int array; (* ids whose stored values changed, in write order *)
  mutable ndirty : int;
  (* The trial log: before its first mutation in a trial, a node's load,
     slew and arc row are appended here, so [rewind] can replay them
     newest first. A node is logged at most twice per trial (once for its
     load as a resized gate's fanin, once when the sweep pops it), so the
     log and [dirty] hold 2n entries. *)
  log_id : int array;
  log_load : float array;
  log_slew : float array;
  log_row : float array array;
  mutable nlog : int;
  trial_row : float array array;
      (* per node, the row a trial writes its arc delays into; [||] until
         the node's first trial *)
}

type t = {
  load : float array;
  slew : float array;
  arc_delay : float array array; (* arc_delay.(gate).(k) for fanin k *)
  mutable work : work option;
}

let load t id = t.load.(id)
let slew t id = t.slew.(id)
let arc_delays t id = t.arc_delay.(id)

(* In-place recomputation for a topologically-ordered node subset — the
   sizing inner loop re-derives the electrical picture of a subcircuit
   window after a trial resize, leaving everything outside untouched.
   Boundary slews are whatever the arrays currently hold. *)
let recompute_node t circuit id =
  t.load.(id) <- Netlist.Circuit.load circuit id;
  match Netlist.Circuit.cell circuit id with
  | None -> ()
  | Some cell ->
      let fanins = Netlist.Circuit.fanins circuit id in
      let worst_in_slew =
        Array.fold_left (fun acc fi -> Float.max acc t.slew.(fi)) 0.0 fanins
      in
      t.arc_delay.(id) <-
        Array.map
          (fun fi -> Cells.Cell.delay cell ~slew:t.slew.(fi) ~load:t.load.(id))
          fanins;
      t.slew.(id) <- Cells.Cell.slew cell ~slew:worst_in_slew ~load:t.load.(id)

let recompute_nodes t circuit ids =
  Obs.Counters.add c_compute_nodes (Array.length ids);
  Array.iter (fun id -> recompute_node t circuit id) ids

(* Full in-place refresh: every node, in topological order. Cheap (one LUT
   sweep) and used after each committed resize so subsequent evaluations
   never see stale loads or slews. *)
let recompute_all t circuit =
  Obs.Counters.add c_compute_nodes (Netlist.Circuit.size circuit);
  List.iter
    (fun id -> recompute_node t circuit id)
    (Netlist.Circuit.topological circuit)

(* A fresh state is the full refresh of an empty one: primary inputs keep
   the boundary slew, every gate is derived in topological order. *)
let compute circuit =
  let n = Netlist.Circuit.size circuit in
  let t =
    {
      load = Array.make n 0.0;
      slew = Array.make n input_slew;
      arc_delay = Array.make n [||];
      work = None;
    }
  in
  recompute_all t circuit;
  t

(* Saved per-node electrical state, for undoing a trial recomputation. *)
type snapshot = (int * float * float * float array) array

let snapshot t ids =
  Array.map (fun id -> (id, t.load.(id), t.slew.(id), t.arc_delay.(id))) ids

let restore t (snap : snapshot) =
  Array.iter
    (fun (id, load, slew, arcs) ->
      t.load.(id) <- load;
      t.slew.(id) <- slew;
      t.arc_delay.(id) <- arcs)
    snap

let work t circuit =
  let n = Netlist.Circuit.size circuit in
  match t.work with
  | Some w when Netlist.Wavefront.capacity w.wave >= n -> w
  | _ ->
      let wave = Netlist.Wavefront.create n in
      let w =
        {
          wave;
          push_fo = (fun fo -> Netlist.Wavefront.push wave fo);
          stage = [||];
          seeds = [||];
          dirty = Array.make (2 * n) 0;
          ndirty = 0;
          log_id = Array.make (2 * n) 0;
          log_load = Array.make (2 * n) 0.0;
          log_slew = Array.make (2 * n) 0.0;
          log_row = Array.make (2 * n) [||];
          nlog = 0;
          trial_row = Array.make n [||];
        }
      in
      t.work <- Some w;
      w

(* Unsafe access: [within] covers every node id on a trial. *)
let[@inline] allowed ~trial within id = (not trial) || Array.unsafe_get within id

let push_dirty w id =
  w.dirty.(w.ndirty) <- id;
  w.ndirty <- w.ndirty + 1

let note t w id =
  let i = w.nlog in
  w.log_id.(i) <- id;
  w.log_load.(i) <- t.load.(id);
  w.log_slew.(i) <- t.slew.(id);
  w.log_row.(i) <- t.arc_delay.(id);
  w.nlog <- i + 1

let is_seed seeds nseeds id =
  let found = ref false in
  for i = 0 to nseeds - 1 do
    if seeds.(i) = id then found := true
  done;
  !found

(* Dirty-cone incremental refresh after a resize.

   Loads change exactly at the fanins of resized gates (a node's load reads
   its fanouts' pin caps), and slews/arc-delays change only downstream of a
   load or cell change, so the sweep seeds those nodes into a wavefront and
   drains it in ascending-id (= topological) order. A node whose recomputed
   slew is exactly the stored one stops the sweep there: the recomputation
   is a pure function of unchanged inputs from that frontier on, so the
   skipped region is bit-identical to what a full sweep would write.

   Unchanged nodes keep their existing arc arrays (physical equality is the
   "not dirty" marker downstream consumers rely on); resized gates always
   get a different array even when every delay value survives the resize,
   so a pointer scan still spots the cell change. Every id whose stored
   load, slew or arc delays changed is appended to [w.dirty].

   A committed update ([trial = false]) puts new arc delays in a fresh
   array. A trial clips seeding and sweeping to the nodes set in
   [within], mirroring [recompute_nodes] on a window; it logs every node
   before its first mutation; and it puts new arc delays in the node's
   trial row, which [rewind] swaps back out, so no row a committed state
   ever held is overwritten. *)
let update_core t circuit w ~trial ~within ~seeds ~nseeds =
  Netlist.Wavefront.clear w.wave;
  w.ndirty <- 0;
  for i = 0 to nseeds - 1 do
    let g = seeds.(i) in
    if allowed ~trial within g then Netlist.Wavefront.push w.wave g;
    let fanins = Netlist.Circuit.fanins circuit g in
    for k = 0 to Array.length fanins - 1 do
      let fi = fanins.(k) in
      if allowed ~trial within fi then begin
        let load' = Netlist.Circuit.load circuit fi in
        if load' <> t.load.(fi) then begin
          if trial then note t w fi;
          t.load.(fi) <- load';
          push_dirty w fi;
          if not (Netlist.Circuit.is_input circuit fi) then
            Netlist.Wavefront.push w.wave fi
        end
      end
    done
  done;
  (* local pop count flushed once after the drain: the per-pop cost stays
     off the disabled path entirely *)
  let visits = ref 0 in
  let quit = ref false in
  while not !quit do
    let id = Netlist.Wavefront.pop w.wave in
    if id < 0 then quit := true
    else begin
      incr visits;
      if allowed ~trial within id && not (Netlist.Circuit.is_input circuit id) then begin
        let cell = Netlist.Circuit.cell_exn circuit id in
        let fanins = Netlist.Circuit.fanins circuit id in
        let nf = Array.length fanins in
        let load_id = t.load.(id) in
        let worst_in_slew = ref 0.0 in
        for k = 0 to nf - 1 do
          worst_in_slew := Float.max !worst_in_slew t.slew.(fanins.(k))
        done;
        (* stage the fresh delays, fusing the comparison against the
           current arcs: a trial stages straight into its trial row, a
           committed update into the scratch buffer, cutting a new array
           only when the node is actually dirty *)
        let stage =
          if trial then begin
            if Array.length w.trial_row.(id) <> nf then
              w.trial_row.(id) <- Array.make nf 0.0;
            w.trial_row.(id)
          end
          else begin
            if Array.length w.stage < nf then w.stage <- Array.make nf 0.0;
            w.stage
          end
        in
        let old_arcs = t.arc_delay.(id) in
        let equal =
          ref ((not (is_seed seeds nseeds id)) && Array.length old_arcs = nf)
        in
        for k = 0 to nf - 1 do
          let d =
            Cells.Cell.delay cell ~slew:t.slew.(fanins.(k)) ~load:load_id
          in
          stage.(k) <- d;
          if !equal && d <> old_arcs.(k) then equal := false
        done;
        let slew' = Cells.Cell.slew cell ~slew:!worst_in_slew ~load:load_id in
        let arcs_equal = !equal in
        let slew_moved = Float.abs (slew' -. t.slew.(id)) > 0.0 in
        if (not arcs_equal) || slew_moved then begin
          if trial then note t w id;
          if not arcs_equal then begin
            t.arc_delay.(id) <- (if trial then stage else Array.sub stage 0 nf);
            push_dirty w id
          end;
          if slew_moved then begin
            t.slew.(id) <- slew';
            if arcs_equal then push_dirty w id;
            Netlist.Circuit.iter_fanouts circuit id ~f:w.push_fo
          end
        end
      end
    end
  done;
  Obs.Counters.add c_update_visits !visits

let update t circuit ~resized =
  let w = work t circuit in
  if w.nlog > 0 then invalid_arg "Electrical.update: a trial is not rewound";
  let nseeds = List.length resized in
  if Array.length w.seeds < nseeds then w.seeds <- Array.make nseeds 0;
  List.iteri (fun i g -> w.seeds.(i) <- g) resized;
  update_core t circuit w ~trial:false ~within:[||] ~seeds:w.seeds ~nseeds;
  let dirty = ref [] in
  for i = 0 to w.ndirty - 1 do
    dirty := w.dirty.(i) :: !dirty
  done;
  !dirty

let update_trial t circuit ~within ~resized ~nresized =
  let w = work t circuit in
  if Array.length within < Netlist.Circuit.size circuit then
    invalid_arg "Electrical.update_trial: [within] shorter than the circuit";
  if w.nlog > 0 then
    invalid_arg "Electrical.update_trial: the previous trial is not rewound";
  update_core t circuit w ~trial:true ~within ~seeds:resized ~nseeds:nresized

let dirty_count t = match t.work with None -> 0 | Some w -> w.ndirty

let dirty t i =
  match t.work with
  | Some w when i < w.ndirty -> w.dirty.(i)
  | _ -> invalid_arg "Electrical.dirty: index out of range"

(* Replay the trial log newest first, so each node ends on its oldest
   record: the state before the trial. *)
let rewind t =
  match t.work with
  | None -> ()
  | Some w ->
      for i = w.nlog - 1 downto 0 do
        let id = w.log_id.(i) in
        t.load.(id) <- w.log_load.(i);
        t.slew.(id) <- w.log_slew.(i);
        t.arc_delay.(id) <- w.log_row.(i)
      done;
      w.nlog <- 0
