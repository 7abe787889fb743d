(** Serve-driven Table 1: fan the experiment's circuits out to a running
    daemon as [table1] jobs (one per circuit, amortizing the daemon's warm
    caches and pool) and assemble the printed-table metrics from the
    responses. The daemon runs the exact {!Experiments.Table1.run_circuit}
    pipeline, so the numbers are identical to the in-process path; only the
    circuits (which never cross the wire) are absent from these rows. *)

type run = {
  alpha : float;
  mean_change_pct : float;
  sigma_change_pct : float;
  final_sigma_over_mean : float;
  area_change_pct : float;
  iterations : int;
  resizes : int;
  runtime_s : float;
  sizing_digest : string;
}

type row = {
  name : string;
  gates : int;
  original_sigma_over_mean : float;
  runs : run list;
}

val run :
  socket:string ->
  ?alphas:float list ->
  ?names:string list ->
  ?max_iterations:int ->
  unit ->
  (row list, string) result
(** One connection, pipelined requests, so the whole table is a single
    daemon batch; the daemon's pool parallelizes across its jobs. *)

val pp : row list Fmt.t
(** Same layout as {!Experiments.Table1.pp}. *)
