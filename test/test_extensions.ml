(* Tests for the extension modules: eigendecomposition, statistical slack,
   K-worst paths, PCA-correlated SSTA. *)

open Test_util

(* ---- Eigen -------------------------------------------------------------- *)

let eigen_diagonal () =
  let e = Numerics.Eigen.decompose [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  close ~tol:1e-9 "first eigenvalue" 3.0 e.Numerics.Eigen.values.(0);
  close ~tol:1e-9 "second eigenvalue" 1.0 e.Numerics.Eigen.values.(1)

let eigen_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1 *)
  let e = Numerics.Eigen.decompose [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  close ~tol:1e-9 "lambda1" 3.0 e.Numerics.Eigen.values.(0);
  close ~tol:1e-9 "lambda2" 1.0 e.Numerics.Eigen.values.(1);
  (* eigenvector for 3 is (1,1)/sqrt2 up to sign *)
  let v = e.Numerics.Eigen.vectors.(0) in
  close ~tol:1e-6 "eigenvector components equal" (Float.abs v.(0)) (Float.abs v.(1))

let eigen_reconstructs_covariance () =
  let cov =
    [| [| 2.0; 0.8; 0.3 |]; [| 0.8; 1.5; 0.5 |]; [| 0.3; 0.5; 1.0 |] |]
  in
  let pcs = Numerics.Eigen.principal_components cov in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let rebuilt =
        Array.fold_left (fun acc row -> acc +. (row.(i) *. row.(j))) 0.0 pcs
      in
      close ~tol:1e-6
        (Printf.sprintf "cov(%d,%d) reconstructed" i j)
        cov.(i).(j) rebuilt
    done
  done

let eigen_rejects_asymmetric () =
  try
    ignore (Numerics.Eigen.decompose [| [| 1.0; 2.0 |]; [| 0.0; 1.0 |] |]);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let eigen_keep_truncates () =
  let cov = [| [| 1.0; 0.9 |]; [| 0.9; 1.0 |] |] in
  let pcs = Numerics.Eigen.principal_components ~keep:1 cov in
  check_int "one component kept" 1 (Array.length pcs);
  (* the dominant component explains 1.9 of the 2.0 total variance *)
  let explained = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 pcs.(0) in
  close ~tol:1e-6 "dominant component variance" 1.9 explained

(* ---- Stat_slack ----------------------------------------------------------- *)

let stat_slack_chain () =
  let bld = Netlist.Build.create ~lib ~name:"sl" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let x1 = Netlist.Build.not_ ~name:"x1" bld a in
  let x2 = Netlist.Build.not_ ~name:"x2" bld x1 in
  ignore (Netlist.Build.output bld x2);
  let c = Netlist.Build.finish bld in
  let model = Variation.Model.default in
  let full = Ssta.Fullssta.run c in
  let m_out = Ssta.Fullssta.output_moments full in
  let period = m_out.Numerics.Clark.mean +. 50.0 in
  let sl = Ssta.Stat_slack.of_fullssta ~model ~period full c in
  let x2id = Test_util.find_exn c ~name:"x2" in
  (match Ssta.Stat_slack.slack sl x2id with
  | Some s ->
      (* output slack mean = period − arrival mean *)
      close ~tol:0.01 "output slack mean" 50.0 s.Numerics.Clark.mean
  | None -> Alcotest.fail "output should have slack");
  (* the input's required time walks both arcs back *)
  let aid = Test_util.find_exn c ~name:"a" in
  match (Ssta.Stat_slack.required sl aid, Ssta.Stat_slack.slack sl aid) with
  | Some r, Some s ->
      check_true "input required below period" (r.Numerics.Clark.mean < period);
      (* on a single path, input slack mean = output slack mean *)
      close ~tol:0.5 "slack consistent along chain" 50.0 s.Numerics.Clark.mean;
      check_true "slack variance accumulated" (s.Numerics.Clark.var > 0.0)
  | _ -> Alcotest.fail "input should be constrained"

let stat_slack_meet_probability () =
  let c = tiny_circuit () in
  let model = Variation.Model.default in
  let full = Ssta.Fullssta.run c in
  let m = Ssta.Fullssta.output_moments full in
  let o = List.hd (Netlist.Circuit.outputs c) in
  (* generous period: certain to meet; impossible period: certain to miss *)
  let sl_hi =
    Ssta.Stat_slack.of_fullssta ~model
      ~period:(m.Numerics.Clark.mean *. 3.0)
      full c
  in
  let sl_lo = Ssta.Stat_slack.of_fullssta ~model ~period:1.0 full c in
  (match Ssta.Stat_slack.meet_probability sl_hi o with
  | Some p -> check_true "meets generous period" (p > 0.999)
  | None -> Alcotest.fail "expected probability");
  (match Ssta.Stat_slack.meet_probability sl_lo o with
  | Some p -> check_true "misses impossible period" (p < 0.01)
  | None -> Alcotest.fail "expected probability");
  match Ssta.Stat_slack.worst_node sl_lo ~alpha:3.0 c with
  | Some (_, v) -> check_true "worst pessimistic slack negative" (v < 0.0)
  | None -> Alcotest.fail "expected a worst node"

let stat_slack_wnss_anchor_matches_tight_period () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:6 () in
  let model = Variation.Model.default in
  let full = Ssta.Fullssta.run c in
  let m = Ssta.Fullssta.output_moments full in
  let sl =
    Ssta.Stat_slack.of_fullssta ~model ~period:m.Numerics.Clark.mean full c
  in
  (* at period = mean, some pessimistic slacks must be negative at alpha>0 *)
  match Ssta.Stat_slack.worst_node sl ~alpha:3.0 c with
  | Some (id, v) ->
      check_true "worst node has negative pessimistic slack" (v < 0.0);
      check_true "worst node is a real node" (id >= 0 && id < Netlist.Circuit.size c)
  | None -> Alcotest.fail "expected a worst node"

(* ---- Paths ------------------------------------------------------------------ *)

let paths_chain_single () =
  let bld = Netlist.Build.create ~lib ~name:"p1" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let x1 = Netlist.Build.not_ bld a in
  let x2 = Netlist.Build.not_ bld x1 in
  ignore (Netlist.Build.output bld x2);
  let c = Netlist.Build.finish bld in
  let t = Sta.Analysis.analyze c in
  match Sta.Paths.k_worst t c ~k:5 with
  | [ p ] ->
      check_int "three nodes" 3 (List.length p.Sta.Paths.nodes);
      close ~tol:1e-9 "arrival matches analysis" (Sta.Analysis.max_arrival t)
        p.Sta.Paths.arrival
  | ps -> Alcotest.failf "expected exactly one path, got %d" (List.length ps)

let paths_sorted_and_distinct () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let t = Sta.Analysis.analyze c in
  let paths = Sta.Paths.k_worst t c ~k:20 in
  check_int "found 20 paths" 20 (List.length paths);
  let arrivals = List.map (fun p -> p.Sta.Paths.arrival) paths in
  let rec descending = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && descending rest
    | _ -> true
  in
  check_true "worst first" (descending arrivals);
  (match paths with
  | first :: _ ->
      close ~tol:1e-9 "first is the critical path arrival"
        (Sta.Analysis.max_arrival t) first.Sta.Paths.arrival
  | [] -> Alcotest.fail "no paths");
  let keys = List.map (fun p -> p.Sta.Paths.nodes) paths in
  check_int "paths distinct" 20 (List.length (List.sort_uniq compare keys))

let paths_connected_ends () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let t = Sta.Analysis.analyze c in
  List.iter
    (fun p ->
      (match p.Sta.Paths.nodes with
      | first :: _ -> check_true "starts at input" (Netlist.Circuit.is_input c first)
      | [] -> Alcotest.fail "empty path");
      let last = List.nth p.Sta.Paths.nodes (List.length p.Sta.Paths.nodes - 1) in
      check_true "ends at output" (Netlist.Circuit.is_output c last))
    (Sta.Paths.k_worst t c ~k:10)

let paths_statistical_moments () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:5 () in
  let t = Sta.Analysis.analyze c in
  let e = Sta.Analysis.electrical t in
  let model = Variation.Model.default in
  match Sta.Paths.k_worst t c ~k:1 with
  | [ p ] ->
      let m = Sta.Paths.path_moments ~model c e p in
      (* one path: mean is exactly the deterministic arrival *)
      close ~tol:1e-9 "path mean = deterministic arrival" p.Sta.Paths.arrival
        m.Numerics.Clark.mean;
      check_true "path variance positive" (m.Numerics.Clark.var > 0.0);
      let p_slow =
        Sta.Paths.violation_probability ~model c e p ~period:p.Sta.Paths.arrival
      in
      close_abs ~tol:0.01 "violates its own mean half the time" 0.5 p_slow
  | _ -> Alcotest.fail "expected one path"

(* ---- PCA SSTA ------------------------------------------------------------------- *)

let pca_independent_structure_matches_fassta () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:6 () in
  let pca =
    Ssta.Pca.run ~structure:Variation.Correlated.independent c
  in
  let pa = Ssta.Pca.output_arrival pca c in
  (* with no correlated share, PCA must agree with plain exact-moment SSTA *)
  let e = Sta.Electrical.compute c in
  let out = Array.make (Netlist.Circuit.size c) (moments ~mu:0.0 ~sigma:0.0) in
  Ssta.Fassta.propagate_into ~exact:true ~model:Variation.Model.default
    ~circuit:c ~electrical:e out;
  let stat =
    Numerics.Clark.max_exact_list
      (List.map (fun o -> out.(o)) (Netlist.Circuit.outputs c))
  in
  close ~tol:0.01 "means agree" stat.Numerics.Clark.mean pa.Ssta.Pca.mean;
  close ~tol:0.05 "sigmas agree" (Numerics.Clark.sigma stat)
    (Ssta.Pca.total_sigma pa)

let pca_tracks_correlated_monte_carlo () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:8 () in
  let _ = Core.Initial_sizing.apply ~lib c in
  let structure =
    Variation.Correlated.create ~global_share:0.5 ~regional_share:0.2 ~regions:4 ()
  in
  let pca = Ssta.Pca.run ~structure c in
  let pa = Ssta.Pca.output_arrival pca c in
  let mc =
    Ssta.Monte_carlo.run
      ~config:{ Ssta.Monte_carlo.default_config with trials = 3000; structure }
      c
  in
  let ms = Ssta.Monte_carlo.circuit_stats mc in
  (* independent SSTA misses the die-to-die factor entirely *)
  let full = Ssta.Fullssta.run c in
  let indep_sigma = Numerics.Clark.sigma (Ssta.Fullssta.output_moments full) in
  let mc_sigma = Numerics.Stats.std ms in
  check_true "independent SSTA badly under-estimates" (indep_sigma < 0.5 *. mc_sigma);
  close ~tol:0.2 "PCA sigma tracks correlated MC" mc_sigma (Ssta.Pca.total_sigma pa);
  close ~tol:0.1 "PCA mean tracks correlated MC" (Numerics.Stats.mean ms)
    pa.Ssta.Pca.mean

let pca_loadings_reconstruct_structure () =
  let structure =
    Variation.Correlated.create ~global_share:0.4 ~regional_share:0.3 ~regions:3 ()
  in
  let pcs = Ssta.Pca.loadings_of_structure structure in
  (* Sum_k L_k(i) L_k(j) must reproduce the correlated covariance *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      let rebuilt =
        Array.fold_left (fun acc row -> acc +. (row.(i) *. row.(j))) 0.0 pcs
      in
      let expected = 0.4 +. if i = j then 0.3 else 0.0 in
      close ~tol:1e-6 "structure covariance" expected rebuilt
    done
  done

(* ---- DOT export ------------------------------------------------------------------ *)

let dot_export_well_formed () =
  let c = tiny_circuit () in
  let text = Netlist.Dot.to_dot ~graph_name:"tiny" c in
  check_true "digraph header"
    (String.length text > 20 && String.sub text 0 14 = "digraph \"tiny\"");
  (* one node line per node, one edge line per arc *)
  let count needle =
    let n = ref 0 and len = String.length needle in
    String.iteri
      (fun i _ ->
        if i + len <= String.length text && String.sub text i len = needle then
          incr n)
      text;
    !n
  in
  check_int "edges" 5 (count " -> ");
  check_int "nodes" (Netlist.Circuit.size c) (count "[shape=");
  let styled =
    Netlist.Dot.to_dot
      ~style:(fun id ->
        { Netlist.Dot.label = Some "x"; highlight = id mod 2 = 0 })
      c
  in
  check_true "highlight style applied"
    (count " -> " > 0 && String.length styled > String.length text)

(* ---- yield objective --------------------------------------------------------------- *)

let for_yield_objective () =
  let obj = Core.Objective.for_yield ~percentile:0.9772 in
  (* z at 97.72% is 2.0 *)
  close ~tol:1e-3 "z for 97.7%" 2.0 (Core.Objective.alpha obj);
  (try
     ignore (Core.Objective.for_yield ~percentile:0.3);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  close ~tol:1e-3 "cost is the percentile delay" 120.0
    (Core.Objective.cost_of_moments obj (moments ~mu:100.0 ~sigma:10.0))

(* ---- Criticality ------------------------------------------------------------------ *)

let criticality_chain_is_one () =
  (* on a pure chain every node is on the critical path with certainty *)
  let bld = Netlist.Build.create ~lib ~name:"cc" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let x1 = Netlist.Build.not_ bld a in
  let x2 = Netlist.Build.not_ bld x1 in
  ignore (Netlist.Build.output bld x2);
  let c = Netlist.Build.finish bld in
  let crit = Core.Criticality.compute c in
  Netlist.Circuit.iter_nodes c ~f:(fun id ->
      close ~tol:1e-9 "criticality 1 on a chain" 1.0
        (Core.Criticality.criticality crit id))

let criticality_conserved_and_bounded () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let crit = Core.Criticality.compute c in
  Netlist.Circuit.iter_nodes c ~f:(fun id ->
      let v = Core.Criticality.criticality crit id in
      check_true "within [0, 1+eps]" (v >= 0.0 && v <= 1.0 +. 1e-6));
  (* outputs' criticalities are a probability distribution over RV_O *)
  let total =
    List.fold_left
      (fun acc o -> acc +. Core.Criticality.criticality crit o)
      0.0 (Netlist.Circuit.outputs c)
  in
  close ~tol:1e-6 "output shares sum to 1" 1.0 total;
  (* ranking is sorted descending *)
  let ranking = Core.Criticality.ranking crit c in
  let rec desc = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
    | _ -> true
  in
  check_true "ranking descending" (desc ranking)

let rec find_upwards dir file =
  let candidate = Filename.concat dir file in
  if Sys.file_exists candidate then Some candidate
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_upwards parent file

let c17_data_file () =
  let path =
    match find_upwards (Sys.getcwd ()) "data/c17.bench" with
    | Some p -> p
    | None -> Alcotest.skip ()
  in
  let c = Netlist.Bench_io.load ~lib ~path () in
  check_int "5 inputs" 5 (List.length (Netlist.Circuit.inputs c));
  check_int "2 outputs" 2 (List.length (Netlist.Circuit.outputs c));
  check_int "6 gates" 6 (Netlist.Circuit.gate_count c);
  (* truth check, all inputs 0: the first NAND level goes high, so the
     output NANDs (of two high inputs) go low *)
  let outs =
    Netlist.Simulate.run c
      ~inputs:[ ("1", false); ("2", false); ("3", false); ("6", false); ("7", false) ]
  in
  check_true "22 low" (not (List.assoc "22" outs));
  check_true "23 low" (not (List.assoc "23" outs));
  (* 1=1, 3=1 -> 10 = NAND(1,1) = 0 -> 22 = NAND(0, 16) = 1 *)
  let outs2 =
    Netlist.Simulate.run c
      ~inputs:[ ("1", true); ("2", false); ("3", true); ("6", false); ("7", false) ]
  in
  check_true "22 high when 10 low" (List.assoc "22" outs2)

let () =
  Alcotest.run "extensions"
    [
      ( "eigen",
        [
          Alcotest.test_case "diagonal" `Quick eigen_diagonal;
          Alcotest.test_case "known 2x2" `Quick eigen_known_2x2;
          Alcotest.test_case "reconstructs covariance" `Quick
            eigen_reconstructs_covariance;
          Alcotest.test_case "rejects asymmetric" `Quick eigen_rejects_asymmetric;
          Alcotest.test_case "keep truncates" `Quick eigen_keep_truncates;
        ] );
      ( "stat_slack",
        [
          Alcotest.test_case "chain" `Quick stat_slack_chain;
          Alcotest.test_case "meet probability" `Quick stat_slack_meet_probability;
          Alcotest.test_case "wnss anchor" `Quick
            stat_slack_wnss_anchor_matches_tight_period;
        ] );
      ( "paths",
        [
          Alcotest.test_case "chain single" `Quick paths_chain_single;
          Alcotest.test_case "sorted and distinct" `Quick paths_sorted_and_distinct;
          Alcotest.test_case "connected ends" `Quick paths_connected_ends;
          Alcotest.test_case "statistical moments" `Quick paths_statistical_moments;
        ] );
      ( "pca",
        [
          Alcotest.test_case "independent matches exact moments" `Quick
            pca_independent_structure_matches_fassta;
          Alcotest.test_case "tracks correlated MC" `Quick
            pca_tracks_correlated_monte_carlo;
          Alcotest.test_case "loadings reconstruct structure" `Quick
            pca_loadings_reconstruct_structure;
        ] );
      ("dot", [ Alcotest.test_case "well-formed" `Quick dot_export_well_formed ]);
      ( "objective",
        [ Alcotest.test_case "for_yield" `Quick for_yield_objective ] );
      ( "criticality",
        [
          Alcotest.test_case "chain is one" `Quick criticality_chain_is_one;
          Alcotest.test_case "conserved and bounded" `Quick
            criticality_conserved_and_bounded;
        ] );
      ("data", [ Alcotest.test_case "c17.bench" `Quick c17_data_file ]);
    ]
