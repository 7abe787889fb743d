(* Statistical gate criticality: the probability that a node lies on the
   circuit's critical path (the concept the paper contrasts itself with in
   [5], Hashimoto & Onodera — criticality alone ranks gates but "does not
   address the variance of the timing path delays"; here it complements the
   WNSS machinery as a reporting/ranking tool).

   Computed by distributing probability backwards from RV_O: a node's
   criticality is the sum over its readers of the reader's criticality times
   the probability that the arc through this node wins the reader's max
   (its "tightness"). Tightness of arc i among arrivals A_1..A_k is
   approximated pairwise: P(A_i > max of the others), with the max of the
   others collapsed to moments by the exact Clark chain. *)

type t = {
  criticality : float array; (* P(node on the critical path), per node *)
}

let arrival_of_arc ~model circuit electrical arrivals id k =
  let fi = (Netlist.Circuit.fanins circuit id).(k) in
  Numerics.Clark.sum arrivals.(fi)
    (Ssta.Fassta.arc_moments model circuit electrical id k)

(* P(A > B) for independent normals. *)
let win_probability (a : Numerics.Clark.moments) (b : Numerics.Clark.moments) =
  let spread = Numerics.Clark.spread a b in
  if spread <= 0.0 then if a.Numerics.Clark.mean >= b.Numerics.Clark.mean then 1.0 else 0.0
  else Numerics.Normal.cdf ((a.Numerics.Clark.mean -. b.Numerics.Clark.mean) /. spread)

(* Tightness of each competitor in a list: P(it is the max), normalized. *)
let tightness_shares = function
  | [] -> [||]
  | [ _ ] -> [| 1.0 |]
  | arrivals ->
      let arr = Array.of_list arrivals in
      let n = Array.length arr in
      let raw =
        Array.mapi
          (fun i a ->
            let others =
              Array.to_list arr |> List.filteri (fun j _ -> j <> i)
            in
            win_probability a (Numerics.Clark.max_exact_list others))
          arr
      in
      let total = Array.fold_left ( +. ) 0.0 raw in
      if total <= 0.0 then Array.make n (1.0 /. float_of_int n)
      else Array.map (fun w -> w /. total) raw

let compute ?(model = Variation.Model.default) circuit =
  let electrical = Sta.Electrical.compute circuit in
  let n = Netlist.Circuit.size circuit in
  let arrivals =
    Array.make n
      (Numerics.Clark.moments ~mean:Sta.Electrical.input_arrival ~var:0.0)
  in
  (* forward: exact-Clark arrival moments *)
  Ssta.Fassta.propagate_into ~exact:true ~model ~circuit ~electrical arrivals;
  let criticality = Array.make n 0.0 in
  (* seed: the virtual RV_O max across outputs *)
  let outputs = Netlist.Circuit.outputs circuit in
  let output_shares =
    tightness_shares (List.map (fun o -> arrivals.(o)) outputs)
  in
  List.iteri (fun i o -> criticality.(o) <- output_shares.(i)) outputs;
  (* backward: distribute through each gate's max *)
  List.iter
    (fun id ->
      if criticality.(id) > 0.0 then begin
        let fanins = Netlist.Circuit.fanins circuit id in
        if Array.length fanins > 0 then begin
          let arc_arrivals =
            List.init (Array.length fanins) (fun k ->
                arrival_of_arc ~model circuit electrical arrivals id k)
          in
          let shares = tightness_shares arc_arrivals in
          Array.iteri
            (fun k fi ->
              criticality.(fi) <- criticality.(fi) +. (criticality.(id) *. shares.(k)))
            fanins
        end
      end)
    (List.rev (Netlist.Circuit.topological circuit));
  { criticality }

let criticality t id = t.criticality.(id)

(* Gates ranked by criticality, most critical first. *)
let ranking t circuit =
  Netlist.Circuit.gates circuit
  |> List.map (fun id -> (id, t.criticality.(id)))
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let pp ?(top = 10) circuit ppf t =
  Fmt.pf ppf "gate criticality (top %d):@." top;
  List.iteri
    (fun i (id, c) ->
      if i < top then
        Fmt.pf ppf "  %-14s %.3f@." (Netlist.Circuit.node_name circuit id) c)
    (ranking t circuit)
