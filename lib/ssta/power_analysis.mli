(** Circuit power and its die-to-die variability (the paper's §2.2 power
    side of the Fig.-1 story): activity-weighted dynamic power plus Monte-
    Carlo leakage with the fast-die/leaky-die exponential coupling. *)

type config = {
  trials : int;
  seed : int;
  params : Cells.Power.params;
  structure : Variation.Correlated.t;
  activity : float;
  clock_ghz : float;
}

val default_config : config

type result = {
  config : config;
  dynamic_uw : float;
  leakage_uw : float array;
}

val run : ?config:config -> Netlist.Circuit.t -> result

val leakage_stats : result -> Numerics.Stats.t
(* statflow: safe — mean total power the power tests check *)
val total_mean_uw : result -> float

val pp : result Fmt.t
