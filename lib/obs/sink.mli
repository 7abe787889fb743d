(** The front door of the observability layer: enable/disable recording,
    reset state between workloads, and export what was recorded.

    Two export shapes serve two audiences: [metrics_json] is the flat,
    machine-diffable form (deterministic counters first, advisory span
    summaries second) that CI gates on; [trace_json] is Chrome
    [trace_event] format — load it at chrome://tracing or in Perfetto. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero all counters and clear the span trace; call before a measured
    workload so exports describe exactly that workload. *)

(* statflow: safe — the metrics export as text; test_obs parses it *)
val metrics_json : unit -> string
(** [{"schema":"statobs/1","counters":{...},"spans":[...],
    "dropped_events":n}] — counters sorted by name, exactly reproducible
    run-to-run; span timings advisory. *)

(* statflow: safe — the trace export as text; test_obs parses it *)
val trace_json : unit -> string
(** Chrome [trace_event] JSON: [{"displayTimeUnit":"ms","traceEvents":
    [{name,cat,ph,pid,tid,ts}]}] with [ph] of ["B"]/["E"] and [ts] in
    microseconds. *)

val write_metrics : path:string -> unit
val write_trace : path:string -> unit
