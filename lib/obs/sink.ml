let enable () = Gate.set true
let disable () = Gate.set false
let enabled = Gate.on

let reset () =
  Counters.reset_all ();
  Span.reset ()

(* Written into a Buffer rather than built as a Json.t, because timings
   print as %.3f, which Json.to_string does not do: microsecond fields with
   nanosecond noise would defeat eyeball diffing. Names go through
   Json.to_string; counters print as plain ints. *)

let add_name b name = Buffer.add_string b (Json.to_string (Json.Str name))

let metrics_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"statobs/1\",\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_name b name;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int v))
    (Counters.dump ());
  Buffer.add_string b "},\"spans\":[";
  List.iteri
    (fun i (name, count, total_us, max_us) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      add_name b name;
      Buffer.add_string b (Printf.sprintf ",\"count\":%d" count);
      Buffer.add_string b (Printf.sprintf ",\"total_us\":%.3f" total_us);
      Buffer.add_string b (Printf.sprintf ",\"max_us\":%.3f}" max_us))
    (Span.summaries ());
  Buffer.add_string b
    (Printf.sprintf "],\"dropped_events\":%d}" (Span.dropped ()));
  Buffer.contents b

let trace_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (e : Span.event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      add_name b e.name;
      Buffer.add_string b ",\"cat\":\"statsize\",\"ph\":";
      Buffer.add_string b (if e.enter then "\"B\"" else "\"E\"");
      Buffer.add_string b
        (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"ts\":%.3f}" e.tid e.ts_us))
    (Span.events ());
  Buffer.add_string b "]}";
  Buffer.contents b

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

let write_metrics ~path = write_file ~path (metrics_json ())
let write_trace ~path = write_file ~path (trace_json ())
