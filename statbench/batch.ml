(* The closed loop shared by the two in-process workloads: one job at a
   time, the same job list pass after pass until the measuring time is
   used up. In the traced run passes go untraced, traced, traced,
   untraced, ... so each (untraced, traced) pair has the other order next
   to it, and the tracing overhead is measured within one run without
   charging the warm-up drift to either side. *)

type pass = {
  traced : bool;
  wall : float;
  latencies : float list;  (** per job, in job order *)
  counters : (string * int) list;  (** traced passes only *)
  spans : Spans.span list;  (** benchmark + program spans, traced only *)
  start : float;
  stop : float;
}

let run_pass ~traced thunks =
  Calibrate.sample 3;
  if traced then begin
    Obs.Sink.reset ();
    Obs.Sink.enable ();
    Spans.on := true
  end;
  let start = Clock.now () in
  let latencies = List.map (fun f -> snd (Clock.time f)) thunks in
  let stop = Clock.now () in
  if traced then begin
    Obs.Sink.disable ();
    Spans.on := false
  end;
  let counters = if traced then Obs.Counters.dump () else [] in
  let spans = if traced then Spans.take () @ Spans.of_obs_events ~base:start else [] in
  { traced; wall = stop -. start; latencies; counters; spans; start; stop }

(* [pass ~traced] runs and checks one pass. A pass starts only if it is
   expected to end within the measuring time (judged by the previous
   pass), except that the run always makes at least one pass of each kind
   it needs. *)
let loop (ctx : Ctx.t) pass =
  let t0 = Clock.now () in
  let rec go acc i =
    let has traced = List.exists (fun p -> p.traced = traced) acc in
    let needed = (not (has false)) || (ctx.trace && not (has true)) in
    let next = match acc with p :: _ -> p.wall | [] -> 0.0 in
    if needed || Clock.now () -. t0 +. next <= ctx.seconds then
      go (pass ~traced:(ctx.trace && (i mod 4 = 1 || i mod 4 = 2)) :: acc) (i + 1)
    else List.rev acc
  in
  go [] 0

let untraced passes = List.filter (fun p -> not p.traced) passes
let traced passes = List.filter (fun p -> p.traced) passes

(* Median over several set-ups, each timed as a whole. Only the last
   result is kept, and a full collection runs before each set-up, so each
   one builds in memory the last one freed. A set-up that had to grow the
   heap into fresh pages took 0.15 s in one process and 0.28 s in the
   next, as page faults cost more or less. *)
let setup_repeats = 9

let timed_setup f =
  Gc.full_major ();
  Clock.time f

let timed_setups f =
  let times = List.init (setup_repeats - 1) (fun _ -> snd (timed_setup f)) in
  let last, t = timed_setup f in
  (last, Quantile.median (t :: times))

(* Every job's time is the median over the untraced passes, so a burst of
   machine noise that hits one pass does not move the result. A pass's
   wall time is the sum of its jobs' times; the latency percentiles run
   over the jobs. Times are scaled to the reference machine speed. *)
let end_to_end (out : Outcome.t) ~setup_s passes =
  let u = untraced passes in
  let jobs =
    match u with
    | [] -> []
    | p :: _ ->
        List.mapi
          (fun i _ -> Quantile.median (List.map (fun p -> List.nth p.latencies i) u))
          p.latencies
  in
  List.iter
    (fun p -> Outcome.report out (if p.traced then "pass_wall_s.traced" else "pass_wall_s") "s" p.wall)
    passes;
  Outcome.time out "setup_s" setup_s;
  Outcome.time out "wall_s" (Quantile.sum jobs);
  Outcome.time out "latency_s.p50" (Quantile.percentile 50.0 jobs);
  Outcome.time out "latency_s.p95" (Quantile.percentile 95.0 jobs);
  Outcome.metric out "peak_rss_mb" "MB" (Ctx.peak_rss_mb 0);
  Outcome.metric out "slo_attained_frac" "ratio"
    (Quantile.ratio (float_of_int (out.attempted - out.failed)) (float_of_int out.attempted))

(* Per-metric median over the traced passes of what [f] extracts. *)
let median_layers passes f =
  match List.map f (traced passes) with
  | [] -> []
  | first :: _ as all ->
      List.map
        (fun (name, _) ->
          (name, Quantile.median (List.filter_map (List.assoc_opt name) all)))
        first

(* Layer metrics every batch workload derives from its traced passes. *)
let common_layers (out : Outcome.t) ~what passes =
  (match traced passes with
  | first :: rest ->
      List.iter (fun p -> Outcome.same_counters out ~what first.counters p.counters) rest
  | [] -> ());
  let counters = match traced passes with p :: _ -> Layers.of_counters p.counters | [] -> [] in
  let timed =
    median_layers passes (fun p ->
        let summary = Spans.summarize p.spans in
        Layers.of_obs_spans (Spans.total summary)
        @ [ ("obs.coverage", Spans.coverage p.spans ~start:p.start ~stop:p.stop) ])
  in
  let rec pairs = function
    | a :: b :: rest ->
        let u, t = if a.traced then (b, a) else (a, b) in
        (100.0 *. Quantile.ratio (t.wall -. u.wall) u.wall) :: pairs rest
    | _ -> []
  in
  let overhead = Quantile.median (pairs passes) in
  counters @ timed @ [ ("obs.trace_overhead_pct", overhead) ]

let write_trace (ctx : Ctx.t) passes =
  match List.rev (traced passes) with
  | p :: _ ->
      let path = Ctx.path ctx (Printf.sprintf "trace-%s-seed%d.json" ctx.workload ctx.seed) in
      Spans.write ~path ~summary:(Spans.summarize p.spans) p.spans
  | [] -> ()
