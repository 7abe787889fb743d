(* The electrical state of a sized circuit: per-node load and output slew,
   and the nominal delay of every fanin->output arc, all straight from the
   library LUTs.

   Slew propagation uses the worst (largest) fanin slew, the usual
   conservative choice that keeps the electrical pass independent of
   arrival times. Both timing engines (deterministic and statistical) and
   the Monte-Carlo sampler consume these arc delays, so they always agree
   on the nominal electrical picture. *)

type config = { input_slew : float; input_arrival : float }

let default_config = { input_slew = 10.0; input_arrival = 0.0 }

(* statobs: full-sweep node visits vs dirty-cone wavefront pops. Their
   ratio is the incremental engine's savings, reproducible run-to-run. *)
let c_compute_nodes = Obs.Counters.make "electrical.compute.nodes"
let c_update_visits = Obs.Counters.make "electrical.update.visits"

type t = {
  config : config;
  load : float array;
  slew : float array;
  arc_delay : float array array; (* arc_delay.(gate).(k) for fanin k *)
  mutable wave : Netlist.Wavefront.t option;
      (* lazily-created scratch queue for [update]; reused across calls *)
  mutable scratch : float array;
      (* delay staging buffer for [update]; fresh arrays are cut from it
         only when a node's arc delays actually changed *)
}

let compute ?(config = default_config) circuit =
  let n = Netlist.Circuit.size circuit in
  Obs.Counters.add c_compute_nodes n;
  let load = Array.make n 0.0 in
  let slew = Array.make n config.input_slew in
  let arc_delay = Array.make n [||] in
  List.iter
    (fun id ->
      load.(id) <- Netlist.Circuit.load circuit id;
      match Netlist.Circuit.cell circuit id with
      | None -> () (* primary input: slew stays at the boundary value *)
      | Some cell ->
          let fanins = Netlist.Circuit.fanins circuit id in
          let worst_in_slew =
            Array.fold_left (fun acc fi -> Float.max acc slew.(fi)) 0.0 fanins
          in
          arc_delay.(id) <-
            Array.map
              (fun fi -> Cells.Cell.delay cell ~slew:slew.(fi) ~load:load.(id))
              fanins;
          slew.(id) <- Cells.Cell.slew cell ~slew:worst_in_slew ~load:load.(id))
    (Netlist.Circuit.topological circuit);
  { config; load; slew; arc_delay; wave = None; scratch = [||] }

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

(* Dirty-cone incremental refresh after a resize.

   Loads change exactly at the fanins of resized gates (a node's load reads
   its fanouts' pin caps), and slews/arc-delays change only downstream of a
   load or cell change, so the sweep seeds those nodes into a wavefront and
   drains it in ascending-id (= topological) order. A node whose recomputed
   slew moves by at most [slew_tol] stops the sweep there: with the default
   tolerance of 0.0 this is an exact stop — the recomputation is a pure
   function of unchanged inputs from that frontier on, so the skipped
   region is bit-identical to what a full sweep would write.

   Unchanged nodes keep their existing arc arrays (physical equality is the
   "not dirty" marker downstream consumers rely on); resized gates always
   get fresh arrays even when every delay value survives the resize, so a
   pointer scan still spots the cell change. [within] clips both seeding and
   sweeping to a node subset, mirroring [recompute_nodes] on a window. When
   [log] is set, every node is recorded before its first mutation; entries
   are prepended, so the left-to-right [restore] overwrite order makes the
   oldest record win. *)
let update_core ~slew_tol ~within ~log t circuit ~resized =
  let n = Netlist.Circuit.size circuit in
  let wave =
    match t.wave with
    | Some w when Netlist.Wavefront.capacity w >= n -> w
    | _ ->
        let w = Netlist.Wavefront.create n in
        t.wave <- Some w;
        w
  in
  Netlist.Wavefront.clear wave;
  let dirty = ref [] in
  let entries = ref [] in
  let note id =
    if log then
      entries := (id, t.load.(id), t.slew.(id), t.arc_delay.(id)) :: !entries
  in
  let allow = match within with None -> fun _ -> true | Some f -> f in
  List.iter
    (fun g ->
      if allow g then Netlist.Wavefront.push wave g;
      Array.iter
        (fun fi ->
          if allow fi then begin
            let load' = Netlist.Circuit.load circuit fi in
            if load' <> t.load.(fi) then begin
              note fi;
              t.load.(fi) <- load';
              dirty := fi :: !dirty;
              if Netlist.Circuit.cell circuit fi <> None then
                Netlist.Wavefront.push wave fi
            end
          end)
        (Netlist.Circuit.fanins circuit g))
    resized;
  let push_fo fo = Netlist.Wavefront.push wave fo in
  (* local pop count flushed once after the drain: the per-pop cost stays
     off the disabled path entirely *)
  let visits = ref 0 in
  let quit = ref false in
  while not !quit do
    let id = Netlist.Wavefront.pop wave in
    if id < 0 then quit := true
    else if (incr visits; allow id) then
      match Netlist.Circuit.cell circuit id with
      | None -> ()
      | Some cell ->
          let fanins = Netlist.Circuit.fanins circuit id in
          let nf = Array.length fanins in
          let load_id = t.load.(id) in
          let worst_in_slew = ref 0.0 in
          for k = 0 to nf - 1 do
            worst_in_slew := Float.max !worst_in_slew t.slew.(fanins.(k))
          done;
          (* stage the fresh delays in the scratch buffer, fusing the
             comparison against the current arcs; a new array is only
             allocated when the node is actually dirty *)
          if Array.length t.scratch < nf then t.scratch <- Array.make nf 0.0;
          let stage = t.scratch in
          let resized_here = List.mem id resized in
          let old_arcs = t.arc_delay.(id) in
          let equal = ref ((not resized_here) && Array.length old_arcs = nf) in
          for k = 0 to nf - 1 do
            let d =
              Cells.Cell.delay cell ~slew:t.slew.(fanins.(k)) ~load:load_id
            in
            stage.(k) <- d;
            if !equal && d <> old_arcs.(k) then equal := false
          done;
          let slew' = Cells.Cell.slew cell ~slew:!worst_in_slew ~load:load_id in
          let arcs_equal = !equal in
          let slew_moved = Float.abs (slew' -. t.slew.(id)) > slew_tol in
          if (not arcs_equal) || slew_moved then begin
            note id;
            if not arcs_equal then begin
              t.arc_delay.(id) <- Array.sub stage 0 nf;
              dirty := id :: !dirty
            end;
            if slew_moved then begin
              t.slew.(id) <- slew';
              if arcs_equal then dirty := id :: !dirty;
              Netlist.Circuit.iter_fanouts circuit id ~f:push_fo
            end
          end
  done;
  Obs.Counters.add c_update_visits !visits;
  (!dirty, Array.of_list !entries)

let update ?(slew_tol = 0.0) ?within t circuit ~resized =
  fst (update_core ~slew_tol ~within ~log:false t circuit ~resized)

let update_logged ?(slew_tol = 0.0) ?within t circuit ~resized =
  update_core ~slew_tol ~within ~log:true t circuit ~resized

let gate_mean_delay t id =
  let arcs = t.arc_delay.(id) in
  if Array.length arcs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 arcs /. float_of_int (Array.length arcs)
