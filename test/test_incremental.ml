(* Incremental-engine equivalence: the dirty-cone electrical refresh and the
   live FULLSSTA annotation must be indistinguishable from scratch
   recomputation on ANY well-formed netlist under ANY resize sequence — the
   exact stops make that a bit-level claim, and paranoid mode must actually
   catch a state that violates it. At the window and sizer level, the
   Production engine is held bit-for-bit to the Reference oracle. *)

open Test_util

(* A seeded random circuit plus the seed, so each property derives its own
   deterministic resize sequence from it. *)
let gen_case =
  QCheck.map
    (fun (seed, gates, depth) ->
      ( Benchgen.Random_dag.generate ~lib
          {
            Benchgen.Random_dag.profile_name = Printf.sprintf "incr%d" seed;
            inputs = 6;
            outputs = 4;
            gates = 20 + gates;
            depth = 3 + depth;
            seed;
          },
        seed ))
    QCheck.(triple small_int (int_bound 60) (int_bound 6))

(* One random resize step: swap up to [moves] random gates to a different
   available size of the same function. Returns the gates actually moved. *)
let random_resizes rng circuit ~moves =
  let gates = Array.of_list (Netlist.Circuit.gates circuit) in
  List.init moves (fun _ -> gates.(Random.State.int rng (Array.length gates)))
  |> List.sort_uniq compare
  |> List.filter_map (fun g ->
         let current = Netlist.Circuit.cell_exn circuit g in
         let sizes =
           Array.to_list (Cells.Library.sizes_of_fn lib (Cells.Cell.fn current))
         in
         match
           List.filter (fun c -> not (Cells.Cell.equal c current)) sizes
         with
         | [] -> None
         | alts ->
             let cell =
               List.nth alts (Random.State.int rng (List.length alts))
             in
             Netlist.Circuit.set_cell circuit g cell;
             Some g)

let prop_electrical_update_matches_compute =
  qcheck ~count:30 "Electrical.update ≡ compute under random resizes" gen_case
    (fun (c, seed) ->
      let rng = Random.State.make [| seed; 0xe1ec |] in
      let e = Sta.Electrical.compute c in
      let ok = ref true in
      for _step = 1 to 4 do
        let resized = random_resizes rng c ~moves:(1 + Random.State.int rng 3) in
        ignore (Sta.Electrical.update e c ~resized);
        let fresh = Sta.Electrical.compute c in
        for id = 0 to Netlist.Circuit.size c - 1 do
          (* bit-level: the update's stop is exact *)
          if
            e.Sta.Electrical.load.(id) <> fresh.Sta.Electrical.load.(id)
            || e.Sta.Electrical.slew.(id) <> fresh.Sta.Electrical.slew.(id)
            || e.Sta.Electrical.arc_delay.(id)
               <> fresh.Sta.Electrical.arc_delay.(id)
          then ok := false
        done
      done;
      !ok)

let pdf_points_close a b =
  let pa = Numerics.Discrete_pdf.points a
  and pb = Numerics.Discrete_pdf.points b in
  List.length pa = List.length pb
  && List.for_all2
       (fun (x, p) (x', p') ->
         Float.abs (x -. x') <= 1e-9 && Float.abs (p -. p') <= 1e-9)
       pa pb

let prop_fullssta_update_matches_run =
  qcheck ~count:15 "Fullssta.update ≡ run under random resizes" gen_case
    (fun (c, seed) ->
      let rng = Random.State.make [| seed; 0xf011 |] in
      let full = Ssta.Fullssta.run c in
      let ok = ref true in
      for _step = 1 to 3 do
        let resized = random_resizes rng c ~moves:(1 + Random.State.int rng 3) in
        ignore (Ssta.Fullssta.update full ~resized);
        let fresh = Ssta.Fullssta.run c in
        List.iter
          (fun id ->
            let m = Ssta.Fullssta.moments full id
            and m' = Ssta.Fullssta.moments fresh id in
            if
              not
                (m.Numerics.Clark.mean = m'.Numerics.Clark.mean
                && m.Numerics.Clark.var = m'.Numerics.Clark.var)
            then ok := false;
            if
              not
                (pdf_points_close (Ssta.Fullssta.pdf full id)
                   (Ssta.Fullssta.pdf fresh id))
            then ok := false)
          (Netlist.Circuit.topological c)
      done;
      !ok)

(* Divergence injection: an honest update passes the paranoid cross-check; a
   lying dirty set (the gate changed but [resized] omits it, so the shared
   electrical state goes stale) must raise the STAT005 diagnostic. *)
let alt_size circuit g =
  let current = Netlist.Circuit.cell_exn circuit g in
  let sizes = Cells.Library.sizes_of_fn lib (Cells.Cell.fn current) in
  match
    List.filter
      (fun c -> not (Cells.Cell.equal c current))
      (Array.to_list sizes)
  with
  | alt :: _ -> alt
  | [] -> Alcotest.fail "library has a single size for a tiny-circuit gate"

let test_paranoid_divergence_fires () =
  let c = tiny_circuit () in
  let full = Ssta.Fullssta.run c in
  let g1, g2 =
    match Netlist.Circuit.gates c with
    | g1 :: g2 :: _ -> (g1, g2)
    | _ -> Alcotest.fail "tiny circuit lost its gates"
  in
  Netlist.Circuit.set_cell c g1 (alt_size c g1);
  ignore (Ssta.Fullssta.update ~paranoid:true full ~resized:[ g1 ]);
  Netlist.Circuit.set_cell c g2 (alt_size c g2);
  try
    ignore (Ssta.Fullssta.update ~paranoid:true full ~resized:[]);
    Alcotest.fail "paranoid mode accepted a stale electrical state"
  with Ssta.Fullssta.Divergence d ->
    Alcotest.(check string) "diagnostic code" "STAT005" d.Diag.code

let alt_size_random rng circuit g =
  let current = Netlist.Circuit.cell_exn circuit g in
  match
    List.filter
      (fun c -> not (Cells.Cell.equal c current))
      (Array.to_list (Cells.Library.sizes_of_fn lib (Cells.Cell.fn current)))
  with
  | [] -> current
  | alts -> List.nth alts (Random.State.int rng (List.length alts))

let sized name =
  let c = Benchgen.Iscas_like.build_exn ~lib name in
  ignore (Core.Initial_sizing.apply ~lib c);
  c

let bits = Int64.bits_of_float
let bit_equal a b = Int64.equal (bits a) (bits b)

let cell_names cells = List.map (fun (g, c) -> (g, Cells.Cell.name c)) cells

(* The window-level oracle: on every gate of two quick circuits, a
   Production window and a Reference window over separate copies of the
   same sized circuit return the same verdict with bit-equal costs, and
   price a forced trial (the pivot's strongest size) to the bit, under both
   scoring modes. Each engine's window is reused across every gate, so a
   trial that leaked state into the circuit or the window would also
   surface here. *)
let test_window_engines_agree () =
  let objective = Core.Objective.create ~alpha:3.0 in
  List.iter
    (fun (name, mode) ->
      let window engine c =
        Core.Window.create ~mode ~engine ~circuit:c
          ~model:Variation.Model.default ~objective ~full:(Ssta.Fullssta.run c)
          ()
      in
      let cp = sized name and cr = sized name in
      let wp = window Core.Window.Production cp
      and wr = window Core.Window.Reference cr in
      List.iter
        (fun g ->
          let what =
            Printf.sprintf "%s %s gate %d: %s" name
              (match mode with
              | Core.Window.Global -> "Global"
              | Core.Window.Windowed -> "Windowed")
              g
          in
          let sub c = Netlist.Cone.extract c ~pivot:g ~depth:2 in
          let vp = Core.Window.best_size wp ~lib (sub cp)
          and vr = Core.Window.best_size wr ~lib (sub cr) in
          Alcotest.(check string)
            (what "best cell") (Cells.Cell.name vr.Core.Window.best)
            (Cells.Cell.name vp.Core.Window.best);
          check_true (what "co-resizes")
            (cell_names vp.Core.Window.co_resizes
            = cell_names vr.Core.Window.co_resizes);
          check_true (what "best_cost bit-equal")
            (bit_equal vp.Core.Window.best_cost vr.Core.Window.best_cost);
          check_true (what "current_cost bit-equal")
            (bit_equal vp.Core.Window.current_cost vr.Core.Window.current_cost);
          let strongest =
            Array.fold_left
              (fun best cell ->
                if Cells.Cell.strength cell > Cells.Cell.strength best then cell
                else best)
              (Netlist.Circuit.cell_exn cp g)
              (Cells.Library.sizes_of_fn lib
                 (Cells.Cell.fn (Netlist.Circuit.cell_exn cp g)))
          in
          let cost_p, adj_p = Core.Window.cost_with_cell ~lib wp (sub cp) strongest
          and cost_r, adj_r = Core.Window.cost_with_cell ~lib wr (sub cr) strongest in
          check_true (what "cost_with_cell bit-equal") (bit_equal cost_p cost_r);
          check_true (what "cost_with_cell co-resizes")
            (cell_names adj_p = cell_names adj_r))
        (Netlist.Circuit.gates cp))
    (List.concat_map
       (fun name -> [ (name, Core.Window.Global); (name, Core.Window.Windowed) ])
       [ "alu2"; "c432" ])

(* The acceptance property in miniature, over Table 1's configurations:
   both sizer engines walk the same trajectory, so the final cell
   assignment and moments agree bit-for-bit. *)
let test_sizer_incremental_bitexact () =
  let d = Core.Sizer.default_config in
  let cases =
    [
      ("alu2", "default", d);
      ("alu1", "mean-delay", Core.Sizer.mean_delay_config);
      ("alu1", "batch commits", { d with Core.Sizer.commit_mode = Core.Sizer.Batch });
      ("c432", "alpha 9", { d with Core.Sizer.objective = Core.Objective.create ~alpha:9.0 });
    ]
  in
  List.iter
    (fun (name, label, config) ->
      let run engine =
        let c = sized name in
        let r =
          Core.Sizer.optimize ~config:{ config with Core.Sizer.engine } ~lib c
        in
        ( List.map
            (fun g -> Cells.Cell.name (Netlist.Circuit.cell_exn c g))
            (Netlist.Circuit.gates c),
          r.Core.Sizer.final_moments )
      in
      let cells_r, m_r = run Core.Window.Reference in
      let cells_p, m_p = run Core.Window.Production in
      let what = Printf.sprintf "%s (%s): %s" name label in
      check_true (what "final sizings identical") (cells_r = cells_p);
      check_true (what "final moments bit-equal")
        (bit_equal m_r.Numerics.Clark.mean m_p.Numerics.Clark.mean
        && bit_equal m_r.Numerics.Clark.var m_p.Numerics.Clark.var))
    cases

(* [Electrical.update_logged] as it stood before the trial log moved into
   preallocated arrays, verbatim up to module paths and its scratch: a
   local wavefront and staging buffer stand in for the two fields the
   state once carried for them. The oracle of [Electrical.update_trial]. *)
module Oracle_logged = struct
  open Sta.Electrical

  let update_core ~slew_tol ~within ~log t circuit ~resized =
    let n = Netlist.Circuit.size circuit in
    let wave = Netlist.Wavefront.create n in
    let scratch = ref [||] in
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
    let quit = ref false in
    while not !quit do
      let id = Netlist.Wavefront.pop wave in
      if id < 0 then quit := true
      else if allow id then
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
            if Array.length !scratch < nf then scratch := Array.make nf 0.0;
            let stage = !scratch in
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
    (!dirty, Array.of_list !entries)

  let update_logged ?(slew_tol = 0.0) ?within t circuit ~resized =
    update_core ~slew_tol ~within ~log:true t circuit ~resized
end

let rows_bit_equal a b =
  Array.length a = Array.length b && Array.for_all2 bit_equal a b

(* Random window trials on suite circuits: resize a random gate and up to
   two of its gate fanins, then run the trial update on the long-lived
   state under test and the oracle on a copy of it, both clipped to the
   pivot's depth-2 window. The dirty ids (in order) and every load, slew
   and arc delay must agree to the bit; after [rewind], every node must
   hold its old load and slew to the bit and the very arc row it held
   before. The state under test is reused across all trials of a circuit,
   so a log or trial row left over from one trial would corrupt the
   next. *)
let test_trial_update_matches_oracle () =
  List.iter
    (fun name ->
      let c = sized name in
      let rng = Random.State.make [| Hashtbl.hash name; 0x7121 |] in
      let e = Sta.Electrical.compute c in
      let n = Netlist.Circuit.size c in
      let within = Array.make n false in
      let seeds = Array.make n 0 in
      let gates = Array.of_list (Netlist.Circuit.gates c) in
      let touched = ref 0 in
      for step = 1 to 80 do
        let what = Printf.sprintf "%s trial %d: %s" name step in
        let pivot = gates.(Random.State.int rng (Array.length gates)) in
        let fanin_gates =
          Array.to_list (Netlist.Circuit.fanins c pivot)
          |> List.filter (fun fi -> not (Netlist.Circuit.is_input c fi))
          |> List.sort_uniq compare
        in
        let resized =
          pivot
          :: List.filter (fun _ -> Random.State.int rng 3 = 0) fanin_gates
        in
        let load0 = Array.copy e.Sta.Electrical.load
        and slew0 = Array.copy e.Sta.Electrical.slew
        and rows0 = Array.copy e.Sta.Electrical.arc_delay in
        let oracle =
          {
            Sta.Electrical.load = Array.copy load0;
            slew = Array.copy slew0;
            arc_delay = Array.copy rows0;
            work = None;
          }
        in
        let cells0 = List.map (fun g -> (g, Netlist.Circuit.cell_exn c g)) resized in
        List.iter
          (fun g -> Netlist.Circuit.set_cell c g (alt_size_random rng c g))
          resized;
        let members = (Netlist.Cone.extract c ~pivot ~depth:2).Netlist.Cone.members in
        Array.iter (fun id -> within.(id) <- true) members;
        List.iteri (fun i g -> seeds.(i) <- g) resized;
        let dirty_o, _log =
          Oracle_logged.update_logged ~within:(fun id -> within.(id)) oracle c
            ~resized
        in
        Sta.Electrical.update_trial e c ~within ~resized:seeds
          ~nresized:(List.length resized);
        let k = Sta.Electrical.dirty_count e in
        touched := !touched + k;
        check_true (what "dirty ids")
          (List.init k (fun i -> Sta.Electrical.dirty e (k - 1 - i)) = dirty_o);
        for id = 0 to n - 1 do
          if
            not
              (bit_equal e.Sta.Electrical.load.(id) oracle.Sta.Electrical.load.(id)
              && bit_equal e.Sta.Electrical.slew.(id)
                   oracle.Sta.Electrical.slew.(id)
              && rows_bit_equal e.Sta.Electrical.arc_delay.(id)
                   oracle.Sta.Electrical.arc_delay.(id))
          then Alcotest.failf "%s" (what (Printf.sprintf "node %d written" id))
        done;
        Sta.Electrical.rewind e;
        for id = 0 to n - 1 do
          if
            not
              (bit_equal e.Sta.Electrical.load.(id) load0.(id)
              && bit_equal e.Sta.Electrical.slew.(id) slew0.(id)
              && e.Sta.Electrical.arc_delay.(id) == rows0.(id))
          then Alcotest.failf "%s" (what (Printf.sprintf "node %d rewound" id))
        done;
        Array.iter (fun id -> within.(id) <- false) members;
        List.iter (fun (g, cell) -> Netlist.Circuit.set_cell c g cell) cells0
      done;
      check_true (name ^ ": trials touched nodes") (!touched > 0))
    [ "alu2"; "c432"; "c880" ]

(* A trial whose callback raises: the window must restore the cells, its
   clip bitmap and the shared electrical state on the way out. Every other
   gate's callback starts a nested trial on the previous gate instead,
   which the window must refuse before it touches the live trial's state.
   Cells and electrical state are compared directly (arc rows
   physically); the clip bitmap through every later trial's dirty set,
   which a stale member would widen, against a fresh window over the same
   state; and every later verdict must be a fresh window's. *)
let test_raising_trial_restores () =
  let c = sized "c432" in
  let objective = Core.Objective.create ~alpha:3.0 in
  let full = Ssta.Fullssta.run c in
  let e = Ssta.Fullssta.electrical full in
  let window () =
    Core.Window.create ~engine:Core.Window.Production ~circuit:c
      ~model:Variation.Model.default ~objective ~full ()
  in
  let w = window () in
  let gates = Netlist.Circuit.gates c in
  let sub g = Netlist.Cone.extract c ~pivot:g ~depth:2 in
  let strongest g =
    let current = Netlist.Circuit.cell_exn c g in
    Array.fold_left
      (fun best cell ->
        if Cells.Cell.strength cell > Cells.Cell.strength best then cell else best)
      current
      (Cells.Library.sizes_of_fn lib (Cells.Cell.fn current))
  in
  let cells () = List.map (fun g -> Cells.Cell.name (Netlist.Circuit.cell_exn c g)) gates in
  let cells0 = cells () in
  let load0 = Array.copy e.Sta.Electrical.load
  and slew0 = Array.copy e.Sta.Electrical.slew
  and rows0 = Array.copy e.Sta.Electrical.arc_delay in
  let raised = ref 0 and refused = ref 0 in
  let prev = ref (List.hd gates) in
  List.iteri
    (fun i g ->
      let g' = !prev in
      prev := g;
      match
        Core.Window.capture_trial w ~lib (sub g) (strongest g) (fun () ->
            if i mod 2 = 0 then raise Exit
            else Core.Window.capture_trial w ~lib (sub g') (strongest g') ignore)
      with
      | () -> ()
      | exception Exit -> incr raised
      | exception Invalid_argument _ -> incr refused)
    gates;
  check_int "every callback raised" (List.length gates) (!raised + !refused);
  check_int "every nested trial refused" (List.length gates / 2) !refused;
  check_true "cells restored" (cells () = cells0);
  for id = 0 to Netlist.Circuit.size c - 1 do
    check_true
      (Printf.sprintf "node %d electrical state restored" id)
      (bit_equal e.Sta.Electrical.load.(id) load0.(id)
      && bit_equal e.Sta.Electrical.slew.(id) slew0.(id)
      && e.Sta.Electrical.arc_delay.(id) == rows0.(id))
  done;
  let dirty_ids w g =
    Core.Window.capture_trial w ~lib (sub g) (strongest g) (fun () ->
        List.init (Sta.Electrical.dirty_count e) (Sta.Electrical.dirty e)
        |> List.sort_uniq compare)
  in
  let fresh = window () in
  List.iter
    (fun g ->
      let what = Printf.sprintf "gate %d: %s" g in
      check_true (what "clip unchanged") (dirty_ids w g = dirty_ids fresh g);
      let v = Core.Window.best_size w ~lib (sub g)
      and v' = Core.Window.best_size fresh ~lib (sub g) in
      Alcotest.(check string)
        (what "best cell") (Cells.Cell.name v'.Core.Window.best)
        (Cells.Cell.name v.Core.Window.best);
      check_true (what "co-resizes")
        (cell_names v.Core.Window.co_resizes = cell_names v'.Core.Window.co_resizes);
      check_true (what "best_cost bit-equal")
        (bit_equal v.Core.Window.best_cost v'.Core.Window.best_cost);
      check_true (what "current_cost bit-equal")
        (bit_equal v.Core.Window.current_cost v'.Core.Window.current_cost))
    gates

(* Area recovery as it stood before it judged on the Production window,
   verbatim up to module paths and its config record, whose fields are now
   the objective and tolerance arguments and FULLSSTA's default settings:
   every trial downsize priced from scratch by a full electrical pass plus
   an exact FASSTA pass. The oracle the incremental judge must match
   decision for decision. *)
module Oracle_recovery = struct
  open Core
  open Core.Area_recovery

  let fast_cost objective circuit =
    let electrical = Sta.Electrical.compute circuit in
    let scratch =
      Array.make (Netlist.Circuit.size circuit)
        (Numerics.Clark.moments ~mean:0.0 ~var:0.0)
    in
    Ssta.Fassta.propagate_into ~exact:true ~model:Variation.Model.default
      ~circuit ~electrical scratch;
    Objective.cost_of_rv ~exact:true objective
      (fun o -> scratch.(o))
      (Netlist.Circuit.outputs circuit)

  let full_cost objective circuit =
    Objective.circuit_cost objective (Ssta.Fullssta.run circuit)

  let recover ~objective ~tolerance ~lib circuit =
    let area_before = Netlist.Circuit.total_area circuit in
    let cost_before = full_cost objective circuit in
    let fast_budget =
      let c = fast_cost objective circuit in
      c +. (tolerance *. Float.abs c)
    in
    let by_area_desc =
      Netlist.Circuit.gates circuit
      |> List.map (fun id -> (id, Cells.Cell.area (Netlist.Circuit.cell_exn circuit id)))
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.map fst
    in
    let downsized = ref 0 in
    List.iter
      (fun gate ->
        let rec step () =
          let current = Netlist.Circuit.cell_exn circuit gate in
          match Cells.Library.next_down lib current with
          | None -> ()
          | Some smaller ->
              Netlist.Circuit.set_cell circuit gate smaller;
              if fast_cost objective circuit <= fast_budget then begin
                incr downsized;
                step ()
              end
              else Netlist.Circuit.set_cell circuit gate current
        in
        step ())
      by_area_desc;
    let final_run = Ssta.Fullssta.run circuit in
    {
      downsized = !downsized;
      area_before;
      area_after = Netlist.Circuit.total_area circuit;
      cost_before;
      cost_after = Objective.circuit_cost objective final_run;
      final_run;
    }
end

(* Recovery on the incremental window against the from-scratch oracle, over
   the regimes recovery meets: sizer output at both Table-1 alphas (a mix
   of accepts and rejects), an over-sized circuit with a loose budget (long
   runs of consecutive accepts per gate), and a zero budget (nearly every
   trial rejected, so the revert commit runs thousands of times — a revert
   that left any state behind would drift every later verdict). The count,
   every figure to the bit, and every gate's final cell must agree. *)
let test_recovery_matches_oracle () =
  let after_sizer name alpha =
    let c = sized name in
    let config =
      { Core.Sizer.default_config with
        Core.Sizer.objective = Core.Objective.create ~alpha }
    in
    ignore (Core.Sizer.optimize ~config ~lib c);
    c
  in
  let oversized name =
    let c = sized name in
    List.iter
      (fun id ->
        let cell = Netlist.Circuit.cell_exn c id in
        Netlist.Circuit.set_cell c id
          (Cells.Library.max_cell lib ~fn:(Cells.Cell.fn cell)))
      (Netlist.Circuit.gates c);
    c
  in
  (* the default tolerance, 0.3% *)
  let setup ?(tolerance = 0.003) alpha = (Core.Objective.create ~alpha, tolerance) in
  let c432_a3 = after_sizer "c432" 3.0 in
  let cases =
    [
      ("c432 alpha 3", c432_a3, setup 3.0);
      ("c432 alpha 9", after_sizer "c432" 9.0, setup 9.0);
      ("c880 alpha 3", after_sizer "c880" 3.0, setup 3.0);
      ("c880 alpha 9", after_sizer "c880" 9.0, setup 9.0);
      ("alu2 oversized, tolerance 0.05", oversized "alu2", setup ~tolerance:0.05 3.0);
      ("c432 alpha 3, tolerance 0", c432_a3, setup ~tolerance:0.0 3.0);
    ]
  in
  List.iter
    (fun (label, c, (objective, tolerance)) ->
      let what = Printf.sprintf "%s: %s" label in
      let cn = Netlist.Circuit.copy c and co = Netlist.Circuit.copy c in
      let rn = Core.Area_recovery.recover ~objective ~tolerance ~lib cn in
      let ro = Oracle_recovery.recover ~objective ~tolerance ~lib co in
      check_int (what "downsized") ro.Core.Area_recovery.downsized
        rn.Core.Area_recovery.downsized;
      List.iter
        (fun (field, f) ->
          check_true (what (field ^ " bit-equal")) (bit_equal (f ro) (f rn)))
        [
          ("area_before", fun r -> r.Core.Area_recovery.area_before);
          ("area_after", fun r -> r.Core.Area_recovery.area_after);
          ("cost_before", fun r -> r.Core.Area_recovery.cost_before);
          ("cost_after", fun r -> r.Core.Area_recovery.cost_after);
        ];
      List.iter
        (fun g ->
          Alcotest.(check string)
            (what (Printf.sprintf "gate %d cell" g))
            (Cells.Cell.name (Netlist.Circuit.cell_exn co g))
            (Cells.Cell.name (Netlist.Circuit.cell_exn cn g)))
        (Netlist.Circuit.gates c))
    cases

(* Paranoid mode across a whole sizing run: every per-iteration update is
   cross-checked against a scratch rebuild and none may diverge. *)
let test_sizer_paranoid_run_clean () =
  let c = Benchgen.Iscas_like.build_exn ~lib "alu1" in
  let _ = Core.Initial_sizing.apply ~lib c in
  let config = { Core.Sizer.default_config with Core.Sizer.paranoid = true } in
  let r = Core.Sizer.optimize ~config ~lib c in
  check_true "run completed" (r.Core.Sizer.total_resizes >= 0)

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          prop_electrical_update_matches_compute;
          prop_fullssta_update_matches_run;
        ] );
      ( "paranoid",
        [
          Alcotest.test_case "divergence injection raises STAT005" `Quick
            test_paranoid_divergence_fires;
          Alcotest.test_case "paranoid sizing run stays clean" `Slow
            test_sizer_paranoid_run_clean;
        ] );
      ( "sizer",
        [
          Alcotest.test_case "scratch and incremental sizers agree bit-exactly"
            `Quick test_sizer_incremental_bitexact;
          Alcotest.test_case "Production and Reference windows agree per gate"
            `Quick test_window_engines_agree;
        ] );
      ( "trial",
        [
          Alcotest.test_case "trial update and rewind = logged oracle, bit for bit"
            `Quick test_trial_update_matches_oracle;
          Alcotest.test_case "a raising trial restores cells, clip and state"
            `Quick test_raising_trial_restores;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "incremental judge = scratch oracle, bit for bit"
            `Quick test_recovery_matches_oracle;
        ] );
    ]
