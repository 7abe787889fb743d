(* Shared helpers for the test suites. *)

let lib = Lazy.force Cells.Library.default

(* Relative/absolute closeness check with a readable failure message. *)
let close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.8g, got %.8g (tol %g)" msg expected actual tol

let close_abs ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.8g, got %.8g (abs tol %g)" msg expected actual
      tol

let check_true msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

(* A tiny hand-built circuit used across netlist/sta tests:

     a ----\
            AND2 (n1) ---\
     b ----/              OR2 (n3) --> out
     c --- INV (n2) -----/
*)
let tiny_circuit () =
  let bld = Netlist.Build.create ~lib ~name:"tiny" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let b = Netlist.Build.input bld ~name:"b" in
  let c = Netlist.Build.input bld ~name:"c" in
  let n1 = Netlist.Build.and_ ~name:"n1" bld [ a; b ] in
  let n2 = Netlist.Build.not_ ~name:"n2" bld c in
  let n3 = Netlist.Build.or_ ~name:"n3" bld [ n1; n2 ] in
  ignore (Netlist.Build.output bld n3);
  Netlist.Build.finish bld

(* The node named [name]; fails the test when there is none. *)
let find_exn c ~name =
  match Netlist.Circuit.find c ~name with
  | Some id -> id
  | None -> Alcotest.failf "no node %S" name

(* Little-endian named input vector helpers. *)
let bits_of_int ~prefix ~width v =
  List.init width (fun i -> (Printf.sprintf "%s%d" prefix i, v land (1 lsl i) <> 0))

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let moments ~mu ~sigma = Numerics.Clark.moments ~mean:mu ~var:(sigma *. sigma)

(* The generator as it stood before [Rng.fill_gaussian], verbatim: the
   oracle for the stream. Benchmark circuits and every Monte Carlo figure
   are built from these values, and [Rng.t] is abstract, so the oracle
   carries its own state. *)
module Oracle_rng = struct
  (* Deterministic splittable PRNG (splitmix64) so every experiment, test and
     Monte-Carlo run is reproducible from a single seed, independent of the
     global [Random] state. *)

  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let golden = 0x9E3779B97F4A7C15L

  let next_int64 t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t =
    (* Derive an independent stream: one draw seeds the child. *)
    { state = next_int64 t }

  (* Uniform in [0, 1): use the top 53 bits. *)
  let float t =
    let bits = Int64.shift_right_logical (next_int64 t) 11 in
    Int64.to_float bits *. (1.0 /. 9007199254740992.0)

  let float_range t ~lo ~hi =
    if hi < lo then invalid_arg "Rng.float_range: hi < lo";
    lo +. ((hi -. lo) *. float t)

  let int t ~bound =
    if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
    (* Keep 62 bits: Int64.to_int truncates into OCaml's 63-bit int, where a
       set bit 62 would turn the value negative. *)
    let u = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    u mod bound

  let bool t = Int64.logand (next_int64 t) 1L = 1L

  (* Box-Muller; one value per call keeps the stream position predictable. *)
  let gaussian t =
    let rec nonzero () =
      let u = float t in
      if u > 0.0 then u else nonzero ()
    in
    let u1 = nonzero () and u2 = float t in
    Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

  let gaussian_scaled t ~mean ~sigma = mean +. (sigma *. gaussian t)

  let shuffle_in_place t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t ~bound:(i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
end

(* splitmix64 at this seed first outputs 1 (found by inverting the
   finalizer at 1 and subtracting the golden gamma), so the first uniform is
   exactly 0.0 and the first Gaussian takes Box–Muller's rejection branch,
   which no ordinary seed reaches. *)
let rejection_seed = -561184103760049731

(* Words [f] allocates: minor plus major minus promoted, so a block made
   straight on the major heap (a string over 256 words) counts, which
   [Gc.minor_words] alone misses, and a promoted one counts once. The
   minor figure comes from [Gc.minor_words]: on OCaml 5.1 the one in
   [Gc.counters] undercounts (266,881 words for a [List.init 100_000]
   that [Gc.minor_words] counts as 300,020). *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* serve-mixed's fresh [info] payloads: 1500-gate random DAGs at DAG seeds
   1500 to 1507, as .bench text. *)
let payload_circuit i =
  Benchgen.Random_dag.generate ~lib
    {
      Benchgen.Random_dag.profile_name = Printf.sprintf "fresh%d" i;
      inputs = 120;
      outputs = 40;
      gates = 1500;
      depth = 30;
      seed = 1500 + i;
    }

let payload_text =
  Array.init 8 (fun i -> lazy (Netlist.Bench_io.to_string (payload_circuit i)))
