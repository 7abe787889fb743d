(** Monte-Carlo timing — the ground truth the SSTA engines are validated
    against, and the yield model behind Fig. 1.

    {b The draw order is a contract.} Every Monte Carlo figure depends on
    it. [run] draws from one [Numerics.Rng] stream seeded with
    [config.seed]. Each trial draws, in this order:
    - the global factor;
    - [structure.regions] regional factors, on every trial, even when the
      regional share is zero;
    - then, for each node with fanins in [Circuit.topological] order,
      either one deviation before its arcs ([Per_gate]) or one deviation
      per arc in fanin order ([Per_arc]).

    Primary inputs draw nothing. An arc's delay is
    [nominal + sigma * ((wg * g + wr * r) + we * eps)], where the weights
    are the square roots of the structure's shares. A node's arrival is
    the [Float.max] fold over its arcs, starting from [neg_infinity]; the
    circuit delay is the same fold over [Circuit.outputs], in order. *)

type sharing =
  | Per_arc  (** independent draw per arc — matches the SSTA assumption *)
  | Per_gate  (** arcs of a gate share one deviation (correlation study) *)

type config = {
  trials : int;
  seed : int;
  model : Variation.Model.t;
  structure : Variation.Correlated.t;
  sharing : sharing;
}

val default_config : config
(** 2000 trials, per-arc independent draws, default variation model. *)

type result = {
  config : config;
  circuit_delay : float array;  (** worst output arrival per trial *)
  per_output : (Netlist.Circuit.id * float array) list;
}

val run : ?config:config -> Netlist.Circuit.t -> result
(** [per_output] lists the outputs in [Circuit.outputs] order. The trial
    loop allocates nothing: each trial takes its draws with one
    [Rng.fill_gaussian] into a buffer reused across trials. Raises
    [Invalid_argument] if [config.trials < 1]. *)

val circuit_stats : result -> Numerics.Stats.t
(* statflow: safe — the engine-vs-Monte-Carlo tests read it *)
val output_stats : result -> Netlist.Circuit.id -> Numerics.Stats.t option

val yield_at : result -> period:float -> float
(** Fraction of trials meeting the period. *)

val quantile : result -> float -> float
