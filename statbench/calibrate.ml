(* Machine-speed calibration. The VMs this benchmark runs on drift in
   speed by 20-40% over minutes, which would swamp any regression bound.
   So each batch run also times a fixed reference kernel, and every
   end-to-end time it reports is scaled by (reference time / the kernel's
   median time in this run): a run on a machine that is 30% slow right now
   reports what the same work takes at the reference speed. The raw times
   are printed as report lines. serve-mixed takes no samples, so its
   factor is 1: the kernel runs in this process, and its speed does not
   track the daemons'.

   The kernel calls nothing in the program, so no change to the program
   can move it, and it allocates nothing, so the program's heap does not
   slow it through the GC. It is a Clark-style moment fold over a random
   DAG whose arrays (about 1.2 MB) spill out of L2, like the program's
   own working sets. *)

let nodes = 50_000

let fanin =
  let st = Random.State.make [| 42 |] in
  Array.init (2 * nodes) (fun i -> if i < 200 then i / 2 else Random.State.int st (i / 2))

let mean = Array.make nodes 0.0
let var = Array.make nodes 1.0

let kernel () =
  for i = 100 to nodes - 1 do
    let a = fanin.(2 * i) and b = fanin.((2 * i) + 1) in
    let s = sqrt (var.(a) +. var.(b) +. 1e-9) in
    let z = (mean.(a) -. mean.(b)) /. s in
    let p = 0.5 *. (1.0 +. Float.erf (z *. 0.7071067811865476)) in
    mean.(i) <- (p *. mean.(a)) +. ((1. -. p) *. mean.(b)) +. (s *. exp (-0.5 *. z *. z) *. 0.4) +. 1.0;
    var.(i) <- Float.abs ((var.(a) *. p) +. (var.(b) *. (1. -. p))) +. 0.01
  done

(* The kernel's median time on the 2-vCPU VM the bounds were set on. *)
let reference_s = 0.003

let samples : float list ref = ref []

(* Times the kernel [n] times and keeps the timings. *)
let sample n =
  for _ = 1 to n do
    samples := snd (Clock.time kernel) :: !samples
  done

(* Multiply a measured time by this to get reference-speed time. *)
let factor () =
  match !samples with [] -> 1.0 | s -> reference_s /. Quantile.median s
