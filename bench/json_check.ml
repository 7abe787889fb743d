(* Validator + counter-regression gate for the bench JSON emitters (the
   toolchain carries no JSON package; parsing comes from Obs.Json).

   Plain mode — `json_check FILE...` — validates each file parses as JSON
   (`-` reads standard input), guarding the emitters from rotting into
   almost-JSON.

   Gate mode — `json_check --gate CURRENT BASELINE` — diffs the statobs
   counter block of a fresh BENCH_counters.json against the committed
   baseline: counters must match EXACTLY in both directions (an operation-
   count change means an algorithmic change and must be acknowledged by
   refreshing the baseline), while the timings block is compared
   schema-only (wall-clock is machine noise; its shape is not).

   Conserve mode — `json_check --conserve BENCH_serve.json` — the
   baseline-free serve check: the warm cache path must be faster than
   cold. *)

let read_file = function
  | "-" -> In_channel.input_all stdin
  | path ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      body

let validate path =
  match read_file path with
  | exception Sys_error e ->
      Printf.eprintf "%s: %s\n" path e;
      false
  | body -> (
      match Obs.Json.parse_result body with
      | Ok _ ->
          Printf.printf "%s: valid JSON (%d bytes)\n" path (String.length body);
          true
      | Error (msg, at) ->
          Printf.eprintf "%s: INVALID JSON at byte %d: %s\n" path at msg;
          false)

(* ---- gate mode ----------------------------------------------------------- *)

let refresh_recipe =
  "refresh: dune exec bench/main.exe -- counters --json && cp \
   BENCH_counters.json bench/baselines/counters.json"

let counters_of path json =
  match Obs.Json.member "counters" json with
  | Some (Obs.Json.Obj kvs) ->
      List.map
        (fun (k, v) ->
          match v with
          | Obs.Json.Num f -> (k, int_of_float f)
          | _ ->
              Printf.eprintf "%s: counter %s is not a number\n" path k;
              exit 1)
        kvs
  | _ ->
      Printf.eprintf "%s: no \"counters\" object\n" path;
      exit 1

(* Structural comparison for the advisory blocks: same kinds, same object
   keys, recursively; array elements lenient (lengths and values may move
   run-to-run — e.g. which spans fired — as long as each side is a list). *)
let rec same_shape (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
      let keys l = List.map fst l |> List.sort String.compare in
      keys xs = keys ys
      && List.for_all
           (fun (k, v) -> same_shape v (List.assoc k ys))
           xs
  | Obs.Json.Arr _, Obs.Json.Arr _ -> true
  | Obs.Json.Num _, Obs.Json.Num _ -> true
  | Obs.Json.Str _, Obs.Json.Str _ -> true
  | Obs.Json.Bool _, Obs.Json.Bool _ -> true
  | Obs.Json.Null, Obs.Json.Null -> true
  | _ -> false

let gate current_path baseline_path =
  let parse path =
    match Obs.Json.parse_result (read_file path) with
    | Ok v -> v
    | Error (msg, at) ->
        Printf.eprintf "%s: INVALID JSON at byte %d: %s\n" path at msg;
        exit 1
  in
  let current = parse current_path and baseline = parse baseline_path in
  let cur = counters_of current_path current
  and base = counters_of baseline_path baseline in
  let complaints = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> complaints := s :: !complaints) fmt in
  List.iter
    (fun (k, bv) ->
      match List.assoc_opt k cur with
      | None -> complain "counter %s: in baseline (%d) but missing from current" k bv
      | Some cv when cv <> bv -> complain "counter %s: baseline %d, current %d" k bv cv
      | Some _ -> ())
    base;
  List.iter
    (fun (k, cv) ->
      if not (List.mem_assoc k base) then
        complain "counter %s: new in current (%d), absent from baseline" k cv)
    cur;
  (match (Obs.Json.member "timings" current, Obs.Json.member "timings" baseline) with
  | Some tc, Some tb ->
      if not (same_shape tc tb) then
        complain "timings block: schema diverged from baseline"
  | None, Some _ -> complain "timings block: missing from current"
  | Some _, None -> complain "timings block: missing from baseline"
  | None, None -> ());
  match List.rev !complaints with
  | [] ->
      Printf.printf "counter gate: %s matches %s (%d counters exact)\n"
        current_path baseline_path (List.length base)
  | cs ->
      Printf.eprintf "counter regression: %s diverged from %s\n" current_path
        baseline_path;
      List.iter (fun c -> Printf.eprintf "  %s\n" c) cs;
      Printf.eprintf
        "counters are deterministic per machine+toolchain; if the change is \
         intentional,\n%s\n"
        refresh_recipe;
      exit 1

(* ---- conserve mode -------------------------------------------------------- *)

(* `json_check --conserve BENCH_serve.json`: the in-file check for the serve
   bench. Unlike --gate it needs no committed baseline — the invariant is
   machine-independent: the warm cache path (min over repeats) is faster
   than the cold one. *)
let conserve path =
  let json =
    match Obs.Json.parse_result (read_file path) with
    | Ok v -> v
    | Error (msg, at) ->
        Printf.eprintf "%s: INVALID JSON at byte %d: %s\n" path at msg;
        exit 1
  in
  match
    Option.bind (Obs.Json.member "warm_cold" json) (Obs.Json.member "ratio")
  with
  | Some (Obs.Json.Num r) when r > 1.0 ->
      Printf.printf "conserve gate: %s — warm cache faster (%.1fx)\n" path r
  | Some (Obs.Json.Num r) ->
      Printf.eprintf "%s: warm/cold ratio %.2f is not > 1\n" path r;
      exit 1
  | _ ->
      Printf.eprintf "%s: missing warm_cold.ratio\n" path;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "--gate" :: [ current; baseline ] -> gate current baseline
  | _ :: "--gate" :: _ ->
      Printf.eprintf "usage: json_check --gate CURRENT BASELINE\n";
      exit 2
  | _ :: "--conserve" :: [ path ] -> conserve path
  | _ :: "--conserve" :: _ ->
      Printf.eprintf "usage: json_check --conserve FILE\n";
      exit 2
  | _ :: files ->
      if not (List.fold_left (fun ok f -> validate f && ok) true files) then
        exit 1
  | [] -> ()
