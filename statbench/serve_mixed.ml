(* serve-mixed: an open loop at a fixed rate against a fresh
   `statsize serve --domains 2`, from one generator over one connection
   (a sender and a receiver thread). The run is split into segments, each
   against a fresh daemon of its own: one daemon process ran up to 25%
   faster or slower than the next, and the run averages over several.
   The seeded schedule mixes three request kinds: info on .bench payloads
   (some repeated, so the netlist cache hits; some fresh, so it misses),
   analyze on suite circuits with skewed popularity, and optimize on alu1
   and alu2, repeated.
   Latency runs from each request's due time, so a stall also charges the
   requests queued behind it. This is the only workload that exercises
   the serve protocol, the caches, pool batching and queue wait, and the
   only one where every optimize request re-runs Pipeline.prepare. *)

let rate = 15.0 (* requests per second *)
let warmup_s = 1.0 (* per segment; excluded from the percentiles, counted for failures *)
let latency_limit_s = 2.0
let daemon_domains = 2
let io_timeout_s = 20.0
let probe_requests = 30
let segments = 3
let payload_builds = 3 (* set-up repeats; the daemon spawn has its own *)

(* Per 100 requests: 51 info on fresh payloads (cache misses) and 28 on
   repeated ones (hits), 20 analyze, 1 optimize. Each percentile falls
   inside one homogeneous group of requests, away from its edges, so a
   shift of a few ranks moves it little: the median inside the fresh
   payloads, which share one size, and the 95th percentile inside the
   analyze requests on c1908 (about 30 ms), which popularity 1/rank² over
   [analyze_circuits] makes 13 of the 20. An optimize runs about 0.15 s
   and queues a request or two. One on c432 would hold the daemon for
   0.7 s, and the queue behind it alone would fill the top 5%. *)
let optimize_circuits = [ "alu1"; "alu2" ]
let analyze_circuits = [ "c1908"; "c880"; "c432"; "alu1"; "c499"; "alu2"; "c1355"; "alu3" ]
let repeated_bench = [ "alu2"; "c432"; "c499"; "c880" ]

(* The random 1500-gate circuits behind the fresh payloads, as .bench
   text. Their DAG seeds are fixed, not drawn from the workload seed: the
   time to generate a DAG varies by up to 2x between seeds, and set-up time
   would vary with it. The workload seed picks the circuit of each fresh
   payload. *)
let fresh_circuits ~lib =
  Array.init 8 (fun i ->
      Netlist.Bench_io.to_string
        (Inputs.dag ~lib ~name:(Printf.sprintf "fresh%d" i) ~inputs:120 ~outputs:40 ~gates:1500
           ~depth:30 ~seed:(1500 + i)))

type kind = Info | Analyze | Optimize

type request = {
  id : int;  (** unique within the run *)
  kind : kind;
  key : string;  (** identifies identical requests *)
  line : string;
  due : float;  (** seconds after the schedule starts *)
  fresh : bool;
}

let kind_name = function Info -> "info" | Analyze -> "analyze" | Optimize -> "optimize"

let request_line id fields =
  Serve.Protocol.to_line
    (Obs.Json.Obj ([ ("serve", Obs.Json.Num 1.0); ("id", Obs.Json.Num (float_of_int id)) ] @ fields))

(* Largest-remainder split of [n] by weights. *)
let apportion n weights =
  let total = Quantile.sum weights in
  let raw = List.map (fun w -> float_of_int n *. w /. total) weights in
  let base = List.map (fun x -> int_of_float (Float.floor x)) raw in
  let left = n - List.fold_left ( + ) 0 base in
  let order =
    List.mapi (fun i x -> (x -. Float.floor x, i)) raw
    |> List.sort (fun (a, i) (b, j) -> match Float.compare b a with 0 -> compare i j | c -> c)
    |> List.filteri (fun k _ -> k < left)
    |> List.map snd
  in
  List.mapi (fun i b -> if List.mem i order then b + 1 else b) base

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One segment's schedule, with ids from [first_id]. It depends only on
   the seed, the segment and the segment's length. *)
let schedule ~lib ~fresh ~seed ~seconds ~segment ~first_id =
  let rng = Inputs.rng ~seed (Printf.sprintf "serve-mixed/%d" segment) in
  let n = int_of_float (rate *. seconds) in
  let n_opt = max 1 (n / 100) in
  let n_an = n * 20 / 100 in
  let n_rep = n * 28 / 100 in
  let n_info = n - n_opt - n_an in
  let names = analyze_circuits in
  let analyze_counts =
    apportion n_an (List.mapi (fun r _ -> 1.0 /. float_of_int ((r + 1) * (r + 1))) names)
  in
  let repeated =
    List.map (fun name -> (name, Netlist.Bench_io.to_string (Inputs.build ~lib ~seed name))) repeated_bench
  in
  let optimizes =
    Array.init n_opt (fun i ->
        let c = List.nth optimize_circuits ((segment + i) mod List.length optimize_circuits) in
        (Optimize, "optimize " ^ c, [ ("op", Obs.Json.Str "optimize"); ("circuit", Obs.Json.Str c) ], false))
  in
  let others =
    List.concat
      (List.map2
         (fun name k ->
           List.init k (fun _ ->
               ( Analyze,
                 "analyze " ^ name,
                 [ ("op", Obs.Json.Str "analyze"); ("circuit", Obs.Json.Str name) ],
                 false )))
         names analyze_counts)
    @ List.init n_rep (fun i ->
          let name, text = List.nth repeated (i mod List.length repeated) in
          (Info, "info " ^ name, [ ("op", Obs.Json.Str "info"); ("bench", Obs.Json.Str text) ], false))
    @ List.init (n_info - n_rep) (fun i ->
          let name = Printf.sprintf "fresh%d.%d" segment i in
          (* a comment line of its own makes each payload new to the
             daemon's netlist cache, which keys on the text *)
          let text = Printf.sprintf "# %s\n%s" name fresh.(Random.State.int rng (Array.length fresh)) in
          (Info, "info " ^ name, [ ("op", Obs.Json.Str "info"); ("bench", Obs.Json.Str text) ], true))
    |> Array.of_list
  in
  shuffle rng optimizes;
  shuffle rng others;
  (* Optimize requests hold the daemon longest, so each opens
     its own block of the schedule rather than being shuffled freely, and
     none falls in the warm-up prefix: how many requests queue behind them,
     and for how long, then depends on the rate and the mix, not on how a
     seed happens to place them. *)
  let warm = min (Array.length others) (int_of_float (warmup_s *. rate)) in
  let block = (Array.length others - warm) / n_opt in
  let items =
    Array.to_list (Array.sub others 0 warm)
    @ List.concat
        (List.init n_opt (fun b ->
             let lo = warm + (b * block) in
             let hi = if b = n_opt - 1 then Array.length others else lo + block in
             optimizes.(b) :: Array.to_list (Array.sub others lo (hi - lo))))
  in
  List.mapi
    (fun i (kind, key, fields, fresh) ->
      let id = first_id + i in
      { id; kind; key; line = request_line id fields; due = float_of_int i /. rate; fresh })
    items
  |> Array.of_list

(* ---- daemon lifecycle ---- *)

type daemon = {
  pid : int;
  socket : string;
  log : string;
  metrics : string option;  (** where a traced daemon writes its Obs dump *)
  mutable alive : bool;
}

(* Daemon logs and dumps; removed at the end of a run without failures. *)
let scratch = ref []

let log_tail d =
  match In_channel.with_open_text d.log In_channel.input_all with
  | text ->
      let n = String.length text in
      String.trim (if n > 400 then String.sub text (n - 400) 400 else text)
  | exception Sys_error _ -> ""

let reap d ~timeout =
  let deadline = Clock.now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> None
    | _, status ->
        d.alive <- false;
        Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  if d.alive then go () else Some (Unix.WEXITED 0)

let kill d =
  if d.alive then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap d ~timeout:io_timeout_s);
    try Sys.remove d.socket with Sys_error _ -> ()
  end

let set_timeouts fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout_s

(* Spawn a daemon and connect to it; the time from spawn until a connect
   succeeds is the serve set-up time. *)
let spawn (ctx : Ctx.t) ~tag ~metrics =
  let stem = Printf.sprintf "%d-%s" (Unix.getpid ()) tag in
  let socket = Ctx.path ctx ("s" ^ stem ^ ".sock") in
  let log = Ctx.path ctx ("daemon-" ^ stem ^ ".log") in
  let metrics = if metrics then Some (Ctx.path ctx ("daemon-" ^ stem ^ ".metrics.json")) else None in
  let args =
    [ ctx.statsize; "serve"; "--socket"; socket; "--domains"; string_of_int daemon_domains ]
    @ Option.fold ~none:[] ~some:(fun m -> [ "--metrics"; m ]) metrics
  in
  scratch := (log :: Option.to_list metrics) @ !scratch;
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Clock.now () in
  let pid = Unix.create_process ctx.statsize (Array.of_list args) null log_fd log_fd in
  Unix.close null;
  Unix.close log_fd;
  let d = { pid; socket; log; metrics; alive = true } in
  let deadline = t0 +. io_timeout_s in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if reap d ~timeout:0.0 <> None then Error "daemon exited before its socket was ready"
        else if Clock.now () > deadline then Error "daemon socket not ready in time"
        else begin
          Unix.sleepf 0.002;
          connect ()
        end
  in
  match connect () with
  | Ok fd ->
      set_timeouts fd;
      Ok (d, fd, Clock.now () -. t0)
  | Error msg ->
      kill d;
      Error (Printf.sprintf "%s (%s)" msg (log_tail d))

(* Line reader over a socket; None on EOF, timeout or error. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let rec read_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
  | None -> (
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> None
      | n ->
          Buffer.add_subbytes r.buf r.chunk 0 n;
          read_line r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
      | exception Unix.Unix_error _ -> None)

let write_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let request fd r line =
  match write_line fd line with
  | () -> read_line r
  | exception Unix.Unix_error _ -> None

(* Ends a daemon with the shutdown op; kills it if it does not exit. *)
let stop (out : Outcome.t) d fd r =
  (match request fd r {|{"serve":1,"id":"end","op":"shutdown"}|} with
  | Some _ -> ()
  | None -> Outcome.warn out "daemon did not acknowledge shutdown");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match reap d ~timeout:10.0 with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> Outcome.fail out "daemon exited abnormally: %s" (log_tail d)
  | None ->
      Outcome.fail out "daemon hung on shutdown and was killed: %s" (log_tail d);
      kill d

(* ---- one open-loop pass ---- *)

type sample = {
  req : request;
  due_at : float;  (** absolute due time *)
  sent : float;  (** absolute send time, nan if never sent *)
  recv : float;  (** absolute receive time, nan if no response *)
  response : Obs.Json.t option;
}

let play fd sched =
  let n = Array.length sched in
  let recv = Array.make n Float.nan and lines = Array.make n None in
  let sent = Array.make n Float.nan in
  let r = reader fd in
  let receiver =
    Thread.create
      (fun () ->
        let rec go k =
          if k < n then
            match read_line r with
            | Some line ->
                recv.(k) <- Clock.now ();
                lines.(k) <- Some line;
                go (k + 1)
            | None -> ()
        in
        go 0)
      ()
  in
  let t0 = Clock.now () +. 0.01 in
  (try
     Array.iteri
       (fun i req ->
         let wait = t0 +. req.due -. Clock.now () in
         if wait > 0.0 then Thread.delay wait;
         sent.(i) <- Clock.now ();
         write_line fd req.line)
       sched
   with Unix.Unix_error _ -> ());
  Thread.join receiver;
  let samples =
    Array.mapi
      (fun i req ->
        let response =
          Option.bind lines.(i) (fun l -> Result.to_option (Obs.Json.parse_result l))
        in
        { req; due_at = t0 +. req.due; sent = sent.(i); recv = recv.(i); response })
      sched
  in
  (Array.to_list samples, r)

let member path json =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some json) path

let num_member path json =
  match member path json with Some (Obs.Json.Num f) -> Some f | _ -> None

(* The deterministic part of a result: everything but cache state and
   service time. *)
let projection json =
  match member [ "result" ] json with
  | Some (Obs.Json.Obj fields) ->
      Some
        (Serve.Protocol.to_line
           (Obs.Json.Obj (List.filter (fun (k, _) -> k <> "cache" && k <> "elapsed_s") fields)))
  | _ -> None

(* Checks every response, across segments; returns which requests
   succeeded. *)
let check (out : Outcome.t) samples =
  let first = Hashtbl.create 64 in
  List.map
    (fun s ->
      Outcome.attempt out;
      let id = Printf.sprintf "request %d (%s)" s.req.id s.req.key in
      let fail fmt = Printf.ksprintf (fun m -> Outcome.fail out "%s: %s" id m; false) fmt in
      match s.response with
      | None -> fail "no response"
      | Some json -> (
          match (member [ "ok" ] json, num_member [ "id" ] json, projection json) with
          | Some (Obs.Json.Bool true), Some rid, Some p when int_of_float rid = s.req.id -> (
              match Hashtbl.find_opt first s.req.key with
              | Some p0 when not (String.equal p0 p) -> fail "differs from an identical earlier request"
              | Some _ -> true
              | None ->
                  Hashtbl.replace first s.req.key p;
                  if not s.req.fresh then Outcome.digest out s.req.key p;
                  true)
          | Some (Obs.Json.Bool false), _, _ ->
              fail "error response %s"
                (Option.fold ~none:"" ~some:Serve.Protocol.to_line (member [ "error" ] json))
          | _ -> fail "malformed response"))
    samples

(* Closed-loop replay of the schedule's first requests on a fresh daemon:
   the traced run compares an untraced and a traced daemon on it. *)
let probe ctx out ~metrics sched =
  match spawn ctx ~tag:(if metrics then "probe-traced" else "probe") ~metrics with
  | Error msg ->
      Outcome.warn out "overhead probe: %s" msg;
      None
  | Ok (d, fd, _) ->
      Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
      let r = reader fd in
      let (), wall =
        Clock.time (fun () ->
            Array.iteri
              (fun i req -> if i < probe_requests then ignore (request fd r req.line))
              sched)
      in
      stop out d fd r;
      Some wall

let read_metrics path =
  match Obs.Json.parse_result (In_channel.with_open_text path In_channel.input_all) with
  | Ok json ->
      let counters =
        match member [ "counters" ] json with
        | Some (Obs.Json.Obj kvs) ->
            List.filter_map
              (function k, Obs.Json.Num f -> Some (k, int_of_float f) | _ -> None)
              kvs
        | _ -> []
      in
      let spans =
        match member [ "spans" ] json with
        | Some (Obs.Json.Arr xs) ->
            List.filter_map
              (fun s ->
                match (member [ "name" ] s, num_member [ "total_us" ] s) with
                | Some (Obs.Json.Str n), Some us -> Some (n, us *. 1e-6)
                | _ -> None)
              xs
        | _ -> []
      in
      Some (counters, spans)
  | Error _ | (exception Sys_error _) -> None

(* Sums per-daemon (name, value) lists by name. *)
let sum_by add lists =
  List.fold_left
    (List.fold_left (fun acc (k, v) ->
         (k, Option.fold ~none:v ~some:(add v) (List.assoc_opt k acc)) :: List.remove_assoc k acc))
    [] lists

let latency s = s.recv -. s.due_at

let answered_after_warmup samples =
  List.filter (fun s -> s.req.due >= warmup_s && not (Float.is_nan s.recv)) samples

let layers (ctx : Ctx.t) (out : Outcome.t) ~samples ~stats ~metrics_files ~start ~stop_t =
  let lib = Cells.Library.generate () in
  let measured = answered_after_warmup samples in
  let exec s = Option.value ~default:0.0 (Option.bind s.response (num_member [ "result"; "elapsed_s" ])) in
  let execs = List.map exec measured and waits = List.map (fun s -> latency s -. exec s) measured in
  let c = Layers.counter stats in
  let dumps = List.filter_map read_metrics metrics_files in
  let program_counters = sum_by ( + ) (List.map fst dumps)
  and program_spans = sum_by ( +. ) (List.map snd dumps) in
  let span name = Option.value ~default:0.0 (List.assoc_opt name program_spans) in
  (* protocol cost on this workload's own request and response lines *)
  let lines = List.map (fun s -> s.req.line) samples in
  let responses =
    List.filter_map
      (fun s ->
        Option.map
          (fun json ->
            {
              Serve.Protocol.id = Option.value ~default:Obs.Json.Null (member [ "id" ] json);
              body = Ok (Option.value ~default:Obs.Json.Null (member [ "result" ] json));
            })
          s.response)
      samples
  in
  let protocol_s =
    Layers.per_call ~budget:0.2 (fun () ->
        List.iter (fun l -> ignore (Serve.Protocol.parse_line l)) lines;
        List.iter (fun r -> ignore (Serve.Protocol.render_response r)) responses)
  in
  (* parse cost on this workload's fresh .bench payloads (cold info) *)
  let fresh =
    List.filter_map
      (fun s ->
        if s.req.fresh then
          match Serve.Protocol.parse_line s.req.line with
          | Ok (Serve.Protocol.Single { job = Serve.Protocol.Info { source = Serve.Protocol.Bench t; _ }; _ }) ->
              Some t
          | _ -> None
        else None)
      samples
  in
  let (), parse_s =
    Clock.time (fun () -> List.iter (fun t -> ignore (Netlist.Bench_io.of_string ~lib t)) fresh)
  in
  let bytes = Quantile.sum (List.map (fun t -> float_of_int (String.length t)) fresh) in
  let analyzed =
    List.map
      (fun name ->
        let c = Benchgen.Iscas_like.build_exn ~lib name in
        ignore (Core.Initial_sizing.apply ~lib c);
        c)
      Benchgen.Iscas_like.names
  in
  let optimized =
    List.filter_map
      (fun (k, p) ->
        if String.starts_with ~prefix:"optimize" k then
          Option.bind (Result.to_option (Obs.Json.parse_result p)) (fun j ->
              Option.map
                (fun s ->
                  ( s,
                    Option.value ~default:0.0 (num_member [ "area_change_pct" ] j),
                    Option.value ~default:0.0 (num_member [ "mean_change_pct" ] j) ))
                (num_member [ "sigma_change_pct" ] j))
        else None)
      out.Outcome.digests
  in
  let mean f = Quantile.ratio (Quantile.sum (List.map f optimized)) (float_of_int (List.length optimized)) in
  let spans =
    List.filter_map
      (fun s ->
        if Float.is_nan s.recv then None
        else Some { Spans.name = "serve." ^ kind_name s.req.kind; start = s.due_at; stop = s.recv })
      samples
  in
  let summary = Spans.summarize spans in
  Spans.write ~path:(Ctx.path ctx (Printf.sprintf "trace-%s-seed%d.json" ctx.workload ctx.seed)) ~summary spans;
  List.iter
    (fun (k, v) -> Outcome.layer out k v)
    (Layers.of_counters program_counters
    @ Layers.of_obs_spans span
    @ [
        ("netlist.parse_s", parse_s);
        ("netlist.parse_mb_per_s", Quantile.ratio (bytes /. 1e6) parse_s);
        ("cells.library_s", Layers.library_s ());
        ("sta.electrical_ns_per_node", Layers.electrical_ns_per_node analyzed);
        ("numerics.clark_ns_per_op", Layers.clark_ns_per_op analyzed);
        ("core.prepare_s", span "pipeline.prepare");
        ("core.run_alpha_s", span "pipeline.run_alpha");
        ("core.sigma_reduction_pct", mean (fun (s, _, _) -> -.s));
        ("core.area_increase_pct", mean (fun (_, a, _) -> a));
        ("core.mean_change_pct", mean (fun (_, _, m) -> m));
        ("serve.exec_s.p50", Quantile.percentile 50.0 execs);
        ("serve.exec_s.p95", Quantile.percentile 95.0 execs);
        ("serve.wait_s.p50", Quantile.percentile 50.0 waits);
        ("serve.wait_s.p95", Quantile.percentile 95.0 waits);
        ("serve.batch_size_mean", Quantile.ratio (c "serve.requests") (c "serve.batches"));
        ( "serve.netlist_hit_ratio",
          Quantile.ratio (c "serve.cache.netlist.hits")
            (c "serve.cache.netlist.hits" +. c "serve.cache.netlist.misses") );
        ( "serve.library_hit_ratio",
          Quantile.ratio (c "serve.cache.library.hits")
            (c "serve.cache.library.hits" +. c "serve.cache.library.misses") );
        ("serve.errors", c "serve.request.errors");
        ("serve.protocol_us", protocol_s *. 1e6 /. float_of_int (max 1 (List.length lines)));
        ( "gen.late_s.p95",
          Quantile.percentile 95.0
            (List.filter_map
               (fun s -> if Float.is_nan s.sent then None else Some (s.sent -. s.due_at))
               samples) );
        ("obs.coverage", Spans.coverage spans ~start ~stop:stop_t);
      ])

(* What one segment leaves for the run's figures. *)
type segment = {
  samples : sample list;
  start : float;  (** the first due time *)
  stop_t : float;  (** the last response *)
  rss_mb : float;
  stats : (string * int) list;  (** daemon counters, traced run only *)
  metrics_file : string option;
}

(* Plays one segment's schedule against daemon [d], then stops it. *)
let play_segment (ctx : Ctx.t) out d fd sched =
  Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
  let samples, r = play fd sched in
  let start = (List.hd samples).due_at in
  let stop_t =
    List.fold_left (fun m s -> if Float.is_nan s.recv then m else Float.max m s.recv) start samples
  in
  let rss_mb = Ctx.peak_rss_mb d.pid in
  let stats =
    if ctx.trace then
      match Option.bind (request fd r {|{"serve":1,"id":"stats","op":"stats"}|}) (fun l -> Result.to_option (Obs.Json.parse_result l)) with
      | Some json -> (
          match member [ "result"; "counters" ] json with
          | Some (Obs.Json.Obj kvs) ->
              List.filter_map
                (function
                  (* less the stats request itself: one request in one batch *)
                  | ("serve.requests" | "serve.batches") as k, Obs.Json.Num f -> Some (k, int_of_float f - 1)
                  | k, Obs.Json.Num f -> Some (k, int_of_float f)
                  | _ -> None)
                kvs
          | _ -> [])
      | None -> []
    else []
  in
  stop out d fd r;
  { samples; start; stop_t; rss_mb; stats; metrics_file = d.metrics }

(* A segment whose daemon never came up: every request goes unanswered. *)
let unanswered sched =
  let samples =
    Array.to_list
      (Array.map
         (fun req -> { req; due_at = req.due; sent = Float.nan; recv = Float.nan; response = None })
         sched)
  in
  { samples; start = 0.0; stop_t = 0.0; rss_mb = 0.0; stats = []; metrics_file = None }

(* Latencies past the warm-up of each segment. *)
let measured samples = List.map latency (answered_after_warmup samples)

let run (ctx : Ctx.t) (out : Outcome.t) =
  let seg_seconds = ctx.seconds /. float_of_int segments in
  let schedules () =
    let lib = Cells.Library.generate () in
    let fresh = fresh_circuits ~lib in
    List.rev
      (snd
         (List.fold_left
            (fun (first_id, acc) segment ->
              let s = schedule ~lib ~fresh ~seed:ctx.seed ~seconds:seg_seconds ~segment ~first_id in
              (first_id + Array.length s, s :: acc))
            (0, []) (List.init segments Fun.id)))
  in
  (* Set-up is the median time to generate and export the payloads, as on
     the batch workloads, plus the median time from spawning a daemon until
     it is ready; the last daemon serves the first segment. A spawn alone
     takes 15 ms or 23 ms, depending on the process it starts from, so on
     its own it would not be steady between runs. *)
  let times = List.init (payload_builds - 1) (fun _ -> snd (Batch.timed_setup schedules)) in
  let scheds, t = Batch.timed_setup schedules in
  let payloads_s = Quantile.median (t :: times) in
  let sched = List.hd scheds in
  let rec setups k acc =
    match spawn ctx ~tag:(string_of_int k) ~metrics:ctx.trace with
    | Error msg -> Error msg
    | Ok (d, fd, ready_s) ->
        if k + 1 < Batch.setup_repeats then begin
          stop out d fd (reader fd);
          setups (k + 1) (ready_s :: acc)
        end
        else Ok (d, fd, Quantile.median (ready_s :: acc))
  in
  let overhead =
    if ctx.trace then
      match (probe ctx out ~metrics:false sched, probe ctx out ~metrics:true sched) with
      | Some u, Some t -> 100.0 *. Quantile.ratio (t -. u) u
      | _ -> 0.0
    else 0.0
  in
  match setups 0 [] with
  | Error msg ->
      List.iter (Array.iter (fun _ -> Outcome.attempt out)) scheds;
      Outcome.fail out "daemon: %s" msg;
      out.failed <- out.attempted
  | Ok (d, fd, spawn_s) ->
      let segs =
        List.mapi
          (fun k sched ->
            let daemon =
              if k = 0 then Ok (d, fd)
              else
                Result.map (fun (d, fd, _) -> (d, fd)) (spawn ctx ~tag:(Printf.sprintf "seg%d" k) ~metrics:ctx.trace)
            in
            match daemon with
            | Ok (d, fd) -> play_segment ctx out d fd sched
            | Error msg ->
                Outcome.warn out "segment %d: daemon: %s" k msg;
                unanswered sched)
          scheds
      in
      let samples = List.concat_map (fun s -> s.samples) segs in
      let ok = check out samples in
      let lats = measured samples in
      let n = float_of_int (List.length samples) in
      let good =
        float_of_int
          (List.length
             (List.filter Fun.id
                (List.map2 (fun s ok -> ok && latency s <= latency_limit_s) samples ok)))
      in
      let p95 = Quantile.percentile 95.0 lats in
      (* Times here are not scaled by the reference kernel: it runs in this
         process, and its speed does not track the daemons'. *)
      Outcome.metric out "setup_s" "s" (payloads_s +. spawn_s);
      Outcome.metric out "wall_s" "s" (Quantile.sum (List.map (fun s -> s.stop_t -. s.start) segs));
      Outcome.metric out "latency_s.p50" "s" (Quantile.percentile 50.0 lats);
      Outcome.metric out "latency_s.p95" "s" p95;
      Outcome.metric out "peak_rss_mb" "MB" (List.fold_left (fun m s -> Float.max m s.rss_mb) 0.0 segs);
      Outcome.metric out "slo_attained_frac" "ratio" (Quantile.ratio good n);
      Outcome.report out "setup.payloads_s" "s" payloads_s;
      Outcome.report out "setup.spawn_s" "s" spawn_s;
      Outcome.report out "slo_miss_frac" "ratio" (Quantile.ratio (n -. good) n);
      Outcome.report out "rate" "1/s" rate;
      Outcome.report out "latency_limit_s" "s" latency_limit_s;
      Outcome.report out "latency_samples" "count" (float_of_int (List.length lats));
      Outcome.report out "samples_beyond_p95" "count"
        (float_of_int (List.length (List.filter (fun l -> l > p95) lats)));
      (* how far one daemon's figures stray from another's *)
      List.iteri
        (fun k seg ->
          let lats = measured seg.samples in
          Outcome.report out (Printf.sprintf "segment%d.latency_s.p50" k) "s" (Quantile.percentile 50.0 lats);
          Outcome.report out (Printf.sprintf "segment%d.latency_s.p95" k) "s" (Quantile.percentile 95.0 lats))
        segs;
      if ctx.trace then begin
        Outcome.layer out "obs.trace_overhead_pct" overhead;
        let answered = List.filter (fun s -> s.stop_t > 0.0) segs in
        layers ctx out ~samples
          ~stats:(sum_by ( + ) (List.map (fun s -> s.stats) segs))
          ~metrics_files:(List.filter_map (fun s -> s.metrics_file) segs)
          ~start:(List.fold_left (fun m s -> Float.min m s.start) Float.infinity answered)
          ~stop_t:(List.fold_left (fun m s -> Float.max m s.stop_t) 0.0 answered)
      end;
      if out.failed = 0 then
        List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) !scratch
