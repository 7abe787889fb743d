(* What one workload run reports: operations attempted and failed, the
   digest set that lets two runs be compared byte for byte, and named
   metrics with their units. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable warnings : string list;
  mutable digests : (string * string) list;
  mutable metrics : metric list;  (** end-to-end, untraced run *)
  mutable layers : (string * float) list;  (** per-layer, traced run *)
  mutable report : metric list;  (** printed for readers only *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    warnings = [];
    digests = [];
    metrics = [];
    layers = [];
    report = [];
  }

let attempt t = t.attempted <- t.attempted + 1

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      t.failures <- msg :: t.failures)
    fmt

let warn t fmt = Printf.ksprintf (fun msg -> t.warnings <- msg :: t.warnings) fmt

let metric t name unit_ value =
  t.metrics <- { name; value; unit_ } :: t.metrics

let report t name unit_ value = t.report <- { name; value; unit_ } :: t.report

(* An end-to-end time, scaled to the reference machine speed; the raw
   measurement is kept as a report line. *)
let time t name value =
  report t ("raw." ^ name) "s" value;
  metric t name "s" (value *. Calibrate.factor ())

let layer t name value = t.layers <- (name, value) :: t.layers

let digest t key value =
  if not (List.mem_assoc key t.digests) then t.digests <- (key, value) :: t.digests

(* Counters (and anything else derived only from the inputs) must repeat
   exactly between passes of one run; a mismatch is flagged, not fatal. *)
let same_counters t ~what first later =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k first with
      | Some v0 when v0 <> v -> warn t "%s: counter %s differs between passes (%d vs %d)" what k v0 v
      | _ -> ())
    later
