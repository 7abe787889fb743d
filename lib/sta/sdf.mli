(** SDF (Standard Delay Format) writer: per-instance IOPATH delays with
    statistical (min:typ:max) corners at ±k·σ under the variation model. *)

(* statflow: safe — the text save writes; the SDF tests parse it *)
val to_sdf :
  ?design:string ->
  ?sigma_corner:float ->
  ?model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Electrical.t ->
  string
(** [sigma_corner] defaults to 3.0 (±3σ corners). *)

val save :
  ?design:string ->
  ?sigma_corner:float ->
  ?model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Electrical.t ->
  path:string ->
  unit
