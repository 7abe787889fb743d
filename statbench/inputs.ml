(* Workload inputs, all derived from the workload seed. The default seed
   reproduces the built-in suite exactly; any other seed re-draws the
   profile-matched random DAGs (the ISCAS-85 stand-ins) while the
   structurally defined circuits (ALUs, ECC, multiplier) stay fixed. *)

let default_seed = 1

type profile = {
  name : string;
  inputs : int;
  outputs : int;
  gates : int;
  depth : int;
  seed : int;
}

(* The suite's DAG profiles (Benchgen.Iscas_like); [check_profiles] proves
   this copy matches it on every run. *)
let profiles =
  [
    { name = "c432"; inputs = 36; outputs = 7; gates = 200; depth = 18; seed = 432 };
    { name = "c880"; inputs = 60; outputs = 26; gates = 300; depth = 22; seed = 880 };
    { name = "c1908"; inputs = 33; outputs = 25; gates = 560; depth = 30; seed = 1908 };
    { name = "c2670"; inputs = 157; outputs = 64; gates = 820; depth = 25; seed = 2670 };
    { name = "c3540"; inputs = 50; outputs = 22; gates = 1245; depth = 35; seed = 3540 };
    { name = "c5315"; inputs = 178; outputs = 123; gates = 2300; depth = 38; seed = 5315 };
    { name = "c7552"; inputs = 206; outputs = 107; gates = 2750; depth = 30; seed = 7552 };
  ]

let dag_seed ~seed (p : profile) = p.seed + (100_003 * (seed - default_seed))

let dag ~lib ~name ~inputs ~outputs ~gates ~depth ~seed =
  Benchgen.Random_dag.generate ~lib
    { Benchgen.Random_dag.profile_name = name; inputs; outputs; gates; depth; seed }

let build ~lib ~seed name =
  match List.find_opt (fun (p : profile) -> p.name = name) profiles with
  | Some p ->
      dag ~lib ~name ~inputs:p.inputs ~outputs:p.outputs ~gates:p.gates
        ~depth:p.depth ~seed:(dag_seed ~seed p)
  | None -> Benchgen.Iscas_like.build_exn ~lib name

let check_profiles ~lib names =
  List.for_all
    (fun name ->
      (not (List.exists (fun (p : profile) -> p.name = name) profiles))
      || String.equal
           (Netlist.Bench_io.to_string (build ~lib ~seed:default_seed name))
           (Netlist.Bench_io.to_string (Benchgen.Iscas_like.build_exn ~lib name)))
    names

(* One independent random stream per (seed, purpose). *)
let rng ~seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

(* The functional oracle: a sized netlist must compute what its pre-sizing
   netlist computes, on seeded random input vectors. Independent of the
   sizer — it only reads cell functions through Netlist.Simulate. *)
let equivalent ~seed ~salt a b =
  let rng = rng ~seed salt in
  let width = List.length (Netlist.Circuit.inputs a) in
  width = List.length (Netlist.Circuit.inputs b)
  && List.for_all
       (fun _ ->
         let bits = Array.init width (fun _ -> Random.State.bool rng) in
         Netlist.Simulate.run_vector a ~bits = Netlist.Simulate.run_vector b ~bits)
       (List.init 64 Fun.id)
