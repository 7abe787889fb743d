(* Cross-module properties checked on randomly generated circuits: every
   invariant here must hold for ANY well-formed mapped netlist, so the
   generator sweeps random profiles. *)

open Test_util

(* A small random circuit from a seeded profile. *)
let gen_circuit =
  QCheck.map
    (fun (seed, inputs, gates, depth) ->
      Benchgen.Random_dag.generate ~lib
        {
          Benchgen.Random_dag.profile_name = Printf.sprintf "prop%d" seed;
          inputs = 4 + inputs;
          outputs = 3;
          gates = 20 + gates;
          depth = 3 + depth;
          seed;
        })
    QCheck.(quad small_int (int_bound 10) (int_bound 60) (int_bound 8))

let prop_generated_circuits_are_valid =
  qcheck ~count:60 "generated circuits validate" gen_circuit (fun c ->
      Netlist.Circuit.validate c = [])

let prop_arrivals_dominate_fanins =
  qcheck ~count:40 "arrival >= fanin arrival + arc" gen_circuit (fun c ->
      let e = Sta.Electrical.compute c in
      let arrival = Sta.Analysis.arrivals c e in
      List.for_all
        (fun id ->
          let arcs = Sta.Electrical.arc_delays e id in
          Array.length arcs = 0
          || Array.for_all
               (fun ok -> ok)
               (Array.mapi
                  (fun k fi ->
                    arrival.(id) +. 1e-9 >= arrival.(fi) +. arcs.(k))
                  (Netlist.Circuit.fanins c id)))
        (Netlist.Circuit.topological c))

let prop_stat_mean_dominates_deterministic =
  qcheck ~count:30 "E[arrival] >= deterministic arrival" gen_circuit (fun c ->
      let e = Sta.Electrical.compute c in
      let det = Sta.Analysis.arrivals c e in
      let out = Array.make (Netlist.Circuit.size c) (moments ~mu:0.0 ~sigma:0.0) in
      Ssta.Fassta.propagate_into ~exact:true ~model:Variation.Model.default
        ~circuit:c ~electrical:e out;
      List.for_all
        (fun o -> out.(o).Numerics.Clark.mean >= det.(o) -. 1e-6)
        (Netlist.Circuit.outputs c))

let prop_fullssta_moments_finite_and_positive =
  qcheck ~count:30 "FULLSSTA moments are finite, sigma > 0 at gates" gen_circuit
    (fun c ->
      let full = Ssta.Fullssta.run c in
      List.for_all
        (fun id ->
          let m = Ssta.Fullssta.moments full id in
          Float.is_finite m.Numerics.Clark.mean
          && Float.is_finite m.Numerics.Clark.var
          && m.Numerics.Clark.var > 0.0)
        (Netlist.Circuit.gates c))

let prop_upsizing_never_changes_function =
  qcheck ~count:25 "uniform upsizing preserves function" gen_circuit (fun c ->
      let inputs = Netlist.Circuit.inputs c in
      let rng = Numerics.Rng.create ~seed:17 in
      let vectors =
        List.init 20 (fun _ ->
            List.map
              (fun id -> (Netlist.Circuit.node_name c id, Numerics.Rng.bool rng))
              inputs)
      in
      let before = List.map (fun v -> Netlist.Simulate.run c ~inputs:v) vectors in
      List.iter
        (fun id ->
          let cell = Netlist.Circuit.cell_exn c id in
          match Cells.Library.next_up lib cell with
          | Some up -> Netlist.Circuit.set_cell c id up
          | None -> ())
        (Netlist.Circuit.gates c);
      let after = List.map (fun v -> Netlist.Simulate.run c ~inputs:v) vectors in
      before = after)

let prop_upsizing_reduces_sigma =
  qcheck ~count:25 "uniform max-sizing reduces RV_O sigma" gen_circuit (fun c ->
      let s0 =
        Numerics.Clark.sigma
          (Ssta.Fullssta.output_moments (Ssta.Fullssta.run c))
      in
      List.iter
        (fun id ->
          let cell = Netlist.Circuit.cell_exn c id in
          Netlist.Circuit.set_cell c id
            (Cells.Library.max_cell lib ~fn:(Cells.Cell.fn cell)))
        (Netlist.Circuit.gates c);
      let s1 =
        Numerics.Clark.sigma
          (Ssta.Fullssta.output_moments (Ssta.Fullssta.run c))
      in
      s1 < s0)

let prop_bench_roundtrip_preserves_structure =
  qcheck ~count:25 ".bench roundtrip preserves structure" gen_circuit (fun c ->
      let c2 = Netlist.Bench_io.of_string ~lib (Netlist.Bench_io.to_string c) in
      Netlist.Circuit.gate_count c2 = Netlist.Circuit.gate_count c
      && List.length (Netlist.Circuit.inputs c2)
         = List.length (Netlist.Circuit.inputs c)
      && List.length (Netlist.Circuit.outputs c2)
         = List.length (Netlist.Circuit.outputs c))

let prop_copy_identical_timing =
  qcheck ~count:25 "copies time identically" gen_circuit (fun c ->
      let c2 = Netlist.Circuit.copy c in
      let a = Sta.Analysis.analyze c and b = Sta.Analysis.analyze c2 in
      Float.abs (Sta.Analysis.max_arrival a -. Sta.Analysis.max_arrival b) < 1e-9)

let prop_wnss_cone_nonempty_and_topological =
  qcheck ~count:20 "WNSS cone nonempty, sorted, within circuit" gen_circuit
    (fun c ->
      let full = Ssta.Fullssta.run c in
      let cone = Core.Wnss.critical_cone ~model:Variation.Model.default c full in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      cone <> [] && sorted cone
      && List.for_all (fun id -> id >= 0 && id < Netlist.Circuit.size c) cone)

let prop_downstream_plus_arrival_bounds_delay =
  qcheck ~count:25 "arrival + downstream <= circuit delay (on some path)"
    gen_circuit (fun c ->
      let e = Sta.Electrical.compute c in
      let arrival = Sta.Analysis.arrivals c e in
      let down = Sta.Analysis.downstream_delays c e in
      let worst =
        List.fold_left
          (fun acc o -> Float.max acc arrival.(o))
          Float.neg_infinity (Netlist.Circuit.outputs c)
      in
      (* arrival(n) + downstream(n) is the longest path through n, which can
         never exceed the circuit delay *)
      List.for_all
        (fun id -> arrival.(id) +. down.(id) <= worst +. 1e-6)
        (Netlist.Circuit.topological c))

let prop_stat_slack_outputs_match_period =
  qcheck ~count:20 "output slack = period - arrival when unconstrained"
    gen_circuit (fun c ->
      let model = Variation.Model.default in
      let full = Ssta.Fullssta.run c in
      let period = 1000.0 in
      let sl = Ssta.Stat_slack.of_fullssta ~model ~period full c in
      List.for_all
        (fun o ->
          (* outputs that feed nothing else: slack = period − arrival *)
          Netlist.Circuit.fanouts c o <> []
          ||
          match Ssta.Stat_slack.slack sl o with
          | None -> false
          | Some s ->
              let m = Ssta.Fullssta.moments full o in
              Float.abs
                (s.Numerics.Clark.mean -. (period -. m.Numerics.Clark.mean))
              < 1e-6)
        (Netlist.Circuit.outputs c))

(* Statcheck's realization envelope claims: for ANY per-arc variation draw
   with |z| <= z_span, the node's arrival stays inside the envelope. Sample
   that claim with a seeded deterministic propagation using exactly the
   certifier's arc model (Fassta.arc_moments over the same electrical
   state), truncating each z at the span. *)
let prop_envelope_contains_truncated_samples =
  qcheck ~count:15 "sampled arrivals stay in statcheck envelope" gen_circuit
    (fun c ->
      let sc = Absint.Statcheck.run ~lib c in
      let cfg = Absint.Statcheck.config sc in
      let z_span = cfg.Absint.Statcheck.z_span in
      let input_arrival = Sta.Electrical.input_arrival in
      let e = Sta.Electrical.compute c in
      let model = Variation.Model.default in
      let rng = Numerics.Rng.create ~seed:7 in
      let order = Netlist.Circuit.topological c in
      let arrival = Array.make (Netlist.Circuit.size c) input_arrival in
      let ok = ref true in
      for _trial = 1 to 20 do
        List.iter
          (fun id ->
            if not (Netlist.Circuit.is_input c id) then begin
              let fanins = Netlist.Circuit.fanins c id in
              let best = ref Float.neg_infinity in
              Array.iteri
                (fun k fi ->
                  let m = Ssta.Fassta.arc_moments model c e id k in
                  let z =
                    Float.max (-.z_span)
                      (Float.min z_span (Numerics.Rng.gaussian rng))
                  in
                  let d =
                    m.Numerics.Clark.mean +. (z *. Numerics.Clark.sigma m)
                  in
                  best := Float.max !best (arrival.(fi) +. d))
                fanins;
              arrival.(id) <- !best;
              if
                not
                  (Numerics.Interval.contains ~tol:1e-6
                     (Absint.Statcheck.envelope sc id)
                     !best)
              then ok := false
            end)
          order
      done;
      !ok)

let prop_criticality_bounded =
  qcheck ~count:15 "criticality within [0,1]" gen_circuit (fun c ->
      let crit = Core.Criticality.compute c in
      List.for_all
        (fun id ->
          let v = Core.Criticality.criticality crit id in
          v >= -.1e-9 && v <= 1.0 +. 1e-6)
        (Netlist.Circuit.topological c))

let () =
  Alcotest.run "properties"
    [
      ( "random-circuit invariants",
        [
          prop_generated_circuits_are_valid;
          prop_arrivals_dominate_fanins;
          prop_stat_mean_dominates_deterministic;
          prop_fullssta_moments_finite_and_positive;
          prop_upsizing_never_changes_function;
          prop_upsizing_reduces_sigma;
          prop_bench_roundtrip_preserves_structure;
          prop_copy_identical_timing;
          prop_wnss_cone_nonempty_and_topological;
          prop_downstream_plus_arrival_bounds_delay;
          prop_stat_slack_outputs_match_period;
          prop_envelope_contains_truncated_samples;
          prop_criticality_bounded;
        ] );
    ]
