(* Benchmark-side tracing. Each public call the benchmark makes is wrapped
   in a named span; the program's own Obs spans are merged in afterwards.
   Spans stay in memory and are written out once, at the end of the run. *)

type span = { name : string; start : float; stop : float }

let on = ref false
let recorded : span list ref = ref []
let lock = Mutex.create ()

let add name start stop =
  Mutex.protect lock (fun () -> recorded := { name; start; stop } :: !recorded)

let with_ name f =
  if not !on then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> add name t0 (Clock.now ())) f
  end

let take () =
  Mutex.protect lock (fun () ->
      let spans = !recorded in
      recorded := [];
      spans)

(* Obs span events carry microseconds since the last [Obs.Sink.reset];
   [base] is the monotonic time read right after that reset. *)
let of_obs_events ~base =
  let open_ = Hashtbl.create 8 in
  List.fold_left
    (fun acc (e : Obs.Span.event) ->
      let t = base +. (e.ts_us *. 1e-6) in
      let stack = Option.value ~default:[] (Hashtbl.find_opt open_ e.tid) in
      if e.enter then begin
        Hashtbl.replace open_ e.tid ((e.name, t) :: stack);
        acc
      end
      else
        match stack with
        | (name, start) :: rest ->
            Hashtbl.replace open_ e.tid rest;
            { name; start; stop = t } :: acc
        | [] -> acc)
    [] (Obs.Span.events ())

type summary = { count : int; total : float; self : float }

(* Self time is a span's duration minus the part of it that its direct
   children cover. Spans nest properly within one thread, so one sweep in
   start order with a stack of open spans finds every direct parent. *)
let summarize spans =
  let spans =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> Float.compare b.stop a.stop
        | c -> c)
      spans
  in
  let covered = Hashtbl.create 64 in
  let rec pop stack s =
    match stack with
    | (top, _) :: rest when top.stop <= s.start -> pop rest s
    | _ -> stack
  in
  let _ =
    List.fold_left
      (fun (stack, i) s ->
        let stack = pop stack s in
        (match stack with
        | (parent, j) :: _ ->
            let c = Float.min s.stop parent.stop -. s.start in
            Hashtbl.replace covered j
              (c +. Option.value ~default:0.0 (Hashtbl.find_opt covered j))
        | [] -> ());
        ((s, i) :: stack, i + 1))
      ([], 0) spans
  in
  let by_name = Hashtbl.create 32 in
  List.iteri
    (fun i s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt covered i) in
      let prev =
        Option.value ~default:{ count = 0; total = 0.0; self = 0.0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { count = prev.count + 1; total = prev.total +. dur; self = prev.self +. self })
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

let total summary name =
  match List.assoc_opt name summary with Some s -> s.total | None -> 0.0

(* Fraction of [start, stop] that lies inside at least one span. *)
let coverage spans ~start ~stop =
  let clipped =
    List.filter_map
      (fun s ->
        let a = Float.max start s.start and b = Float.min stop s.stop in
        if b > a then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, start) clipped
  in
  Quantile.ratio covered (stop -. start)

let write ~path ~summary spans =
  let origin = List.fold_left (fun m s -> Float.min m s.start) Float.infinity spans in
  let num f = Obs.Json.Num f in
  let json =
    Obs.Json.Obj
      [
        ( "summary",
          Obs.Json.Arr
            (List.map
               (fun (name, s) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str name);
                     ("count", num (float_of_int s.count));
                     ("total_s", num s.total);
                     ("self_s", num s.self);
                   ])
               summary) );
        ( "spans",
          Obs.Json.Arr
            (List.map
               (fun s ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str s.name);
                     ("start_us", num (Float.round ((s.start -. origin) *. 1e6)));
                     ("dur_us", num (Float.round ((s.stop -. s.start) *. 1e6)));
                   ])
               (List.sort (fun a b -> Float.compare a.start b.start) spans)) );
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Serve.Protocol.to_line json);
      output_char oc '\n')
