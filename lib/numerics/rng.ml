(* Deterministic splittable PRNG (splitmix64) so every experiment, test and
   Monte-Carlo run is reproducible from a single seed, independent of the
   global [Random] state.

   The finalizer, the 53-bit uniform and Box–Muller are each defined once
   below, as [@inline] helpers over unboxed values: without flambda, an
   [int64] or [float] crossing a non-inlined call is boxed, and
   [fill_gaussian] must not box per draw. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output finalizer, applied to the advanced state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1): the top 53 bits of one output. *)
let[@inline] unit_float bits =
  Int64.to_float (Int64.shift_right_logical bits 11) *. (1.0 /. 9007199254740992.0)

(* Box–Muller, cosine branch only: [u1] in (0, 1), [u2] in [0, 1). *)
let[@inline] box_muller u1 u2 =
  Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

let next_int64 t =
  let s = Int64.add t.state golden in
  t.state <- s;
  mix s

let split t =
  (* Derive an independent stream: one draw seeds the child. *)
  { state = next_int64 t }

let float t = unit_float (next_int64 t)

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

(* Box-Muller; one value per call keeps the stream position predictable.
   [u1] is drawn, rejection loop included, before [u2]. *)
let gaussian t =
  let rec nonzero () =
    let u = float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  box_muller u1 u2

(* [gaussian]'s draws with the state in a local, so the loop boxes nothing:
   the state is read once and written back once. *)
let fill_gaussian t dst ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length dst - len then
    invalid_arg "Rng.fill_gaussian";
  let s = ref t.state in
  let u1 = ref 0.0 in
  for i = pos to pos + len - 1 do
    s := Int64.add !s golden;
    u1 := unit_float (mix !s);
    while not (!u1 > 0.0) do
      s := Int64.add !s golden;
      u1 := unit_float (mix !s)
    done;
    s := Int64.add !s golden;
    dst.(i) <- box_muller !u1 (unit_float (mix !s))
  done;
  t.state <- !s

let gaussian_scaled t ~mean ~sigma = mean +. (sigma *. gaussian t)

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
