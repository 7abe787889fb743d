(* Unit tests for the deterministic STA substrate. *)

open Test_util

(* A 3-inverter chain: arrivals must be exact partial sums of arc delays. *)
let chain_circuit () =
  let bld = Netlist.Build.create ~lib ~name:"chain3" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let x1 = Netlist.Build.not_ ~name:"x1" bld a in
  let x2 = Netlist.Build.not_ ~name:"x2" bld x1 in
  let x3 = Netlist.Build.not_ ~name:"x3" bld x2 in
  ignore (Netlist.Build.output bld x3);
  Netlist.Build.finish bld

let electrical_chain_arrivals () =
  let c = chain_circuit () in
  let e = Sta.Electrical.compute c in
  let arrival = Sta.Analysis.arrivals c e in
  let x1 = Test_util.find_exn c ~name:"x1" in
  let x2 = Test_util.find_exn c ~name:"x2" in
  let x3 = Test_util.find_exn c ~name:"x3" in
  let d id = (Sta.Electrical.arc_delays e id).(0) in
  close ~tol:1e-9 "x1 arrival" (d x1) arrival.(x1);
  close ~tol:1e-9 "x2 arrival" (d x1 +. d x2) arrival.(x2);
  close ~tol:1e-9 "x3 arrival" (d x1 +. d x2 +. d x3) arrival.(x3)

let analysis_max_at_converge () =
  let c = tiny_circuit () in
  let t = Sta.Analysis.analyze c in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let n2 = Test_util.find_exn c ~name:"n2" in
  let n3 = Test_util.find_exn c ~name:"n3" in
  let e = Sta.Analysis.electrical t in
  let arcs = Sta.Electrical.arc_delays e n3 in
  let expected =
    Float.max
      (Sta.Analysis.arrival t n1 +. arcs.(0))
      (Sta.Analysis.arrival t n2 +. arcs.(1))
  in
  close ~tol:1e-9 "or gate max" expected (Sta.Analysis.arrival t n3);
  close ~tol:1e-9 "max arrival" (Sta.Analysis.arrival t n3) (Sta.Analysis.max_arrival t)

let analysis_slack_zero_on_critical () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:6 () in
  let t = Sta.Analysis.analyze c in
  (* without an explicit period, required = worst arrival: WNS = 0 *)
  close_abs ~tol:1e-9 "wns zero" 0.0 (Sta.Analysis.wns t);
  List.iter
    (fun id -> close_abs ~tol:1e-6 "zero slack along critical path" 0.0
        (Sta.Analysis.slack t id))
    (Sta.Analysis.critical_path t)

let analysis_explicit_period () =
  let c = tiny_circuit () in
  let t = Sta.Analysis.analyze ~period:1000.0 c in
  check_true "positive slack at relaxed period" (Sta.Analysis.wns t > 0.0);
  let t2 = Sta.Analysis.analyze ~period:1.0 c in
  check_true "negative slack at tight period" (Sta.Analysis.wns t2 < 0.0)

let analysis_critical_path_structure () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let t = Sta.Analysis.analyze c in
  match Sta.Analysis.critical_path t with
  | [] -> Alcotest.fail "empty critical path"
  | path ->
      (* the path is input-first, critical output last *)
      let first = List.hd path in
      check_true "starts at a primary input" (Netlist.Circuit.is_input c first);
      let last = List.nth path (List.length path - 1) in
      check_true "ends at the critical output"
        (last = Sta.Analysis.critical_output t);
      let rec connected = function
        | a :: b :: rest ->
            check_true "edge exists" (Array.mem a (Netlist.Circuit.fanins c b));
            connected (b :: rest)
        | _ -> ()
      in
      connected path

let downstream_delays_properties () =
  let c = chain_circuit () in
  let e = Sta.Electrical.compute c in
  let d = Sta.Analysis.downstream_delays c e in
  let x3 = Test_util.find_exn c ~name:"x3" in
  let x1 = Test_util.find_exn c ~name:"x1" in
  let a = Test_util.find_exn c ~name:"a" in
  close_abs ~tol:1e-9 "output has no downstream" 0.0 d.(x3);
  check_true "upstream accumulates" (d.(a) > d.(x1));
  (* downstream(a) = total path delay = max arrival *)
  let arrival = Sta.Analysis.arrivals c e in
  close ~tol:1e-9 "input downstream = circuit delay" arrival.(x3) d.(a)

let electrical_snapshot_restore () =
  let c = tiny_circuit () in
  let e = Sta.Electrical.compute c in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let ids = [| n1 |] in
  let before_delay = (Sta.Electrical.arc_delays e n1).(0) in
  let snap = Sta.Electrical.snapshot e ids in
  (* resize and recompute: delay changes *)
  let big = Cells.Library.cell_exn lib ~fn:(Cells.Fn.And 2) ~drive_index:6 in
  Netlist.Circuit.set_cell c n1 big;
  Sta.Electrical.recompute_nodes e c ids;
  check_true "delay changed" ((Sta.Electrical.arc_delays e n1).(0) <> before_delay);
  (* restore: delay back *)
  Sta.Electrical.restore e snap;
  close ~tol:0.0 "restored" before_delay (Sta.Electrical.arc_delays e n1).(0)

let electrical_recompute_all_matches_fresh () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let e = Sta.Electrical.compute c in
  (* resize a few gates, then full refresh must equal a fresh compute *)
  List.iteri
    (fun i id ->
      if i mod 3 = 0 then
        let cell = Netlist.Circuit.cell_exn c id in
        match Cells.Library.next_up lib cell with
        | Some up -> Netlist.Circuit.set_cell c id up
        | None -> ())
    (Netlist.Circuit.gates c);
  Sta.Electrical.recompute_all e c;
  let fresh = Sta.Electrical.compute c in
  Netlist.Circuit.iter_nodes c ~f:(fun id ->
      close ~tol:1e-12 "load" (Sta.Electrical.load fresh id) (Sta.Electrical.load e id);
      close ~tol:1e-12 "slew" (Sta.Electrical.slew fresh id) (Sta.Electrical.slew e id))

let () =
  Alcotest.run "sta"
    [
      ( "electrical",
        [
          Alcotest.test_case "chain arrivals" `Quick electrical_chain_arrivals;
          Alcotest.test_case "snapshot/restore" `Quick electrical_snapshot_restore;
          Alcotest.test_case "recompute_all consistent" `Quick
            electrical_recompute_all_matches_fresh;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "max at converge" `Quick analysis_max_at_converge;
          Alcotest.test_case "zero slack on critical path" `Quick
            analysis_slack_zero_on_critical;
          Alcotest.test_case "explicit period" `Quick analysis_explicit_period;
          Alcotest.test_case "critical path structure" `Quick
            analysis_critical_path_structure;
          Alcotest.test_case "downstream delays" `Quick downstream_delays_properties;
        ] );
    ]
