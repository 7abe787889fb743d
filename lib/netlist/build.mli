(** Construction DSL over a cell library: fresh-name management, balanced
    decomposition of wide AND/OR/NAND/NOR into trees and XOR into chains.
    Used by the benchmark generators and the [.bench] mapper. *)

type t

val create :
  ?drive_index:int ->
  ?output_load:float ->
  ?reserved:(string -> bool) ->
  lib:Cells.Library.t ->
  name:string ->
  unit ->
  t
(** New builder; gates are instantiated at [drive_index] (default 0 =
    minimum size — sizing starts from the smallest cells). {!fresh} never
    returns a name for which [reserved] holds (default: none): the
    [.bench] reader reserves every name its file defines, so a
    decomposition node cannot take the name of a gate instantiated
    later. *)

val circuit : t -> Circuit.t
val library : t -> Cells.Library.t

val fresh : t -> string -> string
(** Fresh node name with the given prefix: in neither the circuit nor the
    reserved names. *)

val input : t -> name:string -> Circuit.id
val inputs : t -> prefix:string -> count:int -> Circuit.id array

val gate : ?name:string -> t -> Cells.Fn.t -> Circuit.id array -> Circuit.id
(** One library gate; arity must match exactly. *)

val not_ : ?name:string -> t -> Circuit.id -> Circuit.id
val buf : ?name:string -> t -> Circuit.id -> Circuit.id

val and_ : ?name:string -> t -> Circuit.id list -> Circuit.id
(** AND of any width ≥ 1 (balanced tree above arity 4); [name] lands on the
    root gate. *)

val or_ : ?name:string -> t -> Circuit.id list -> Circuit.id
val nand : ?name:string -> t -> Circuit.id list -> Circuit.id
val nor : ?name:string -> t -> Circuit.id list -> Circuit.id

val xor2 : ?name:string -> t -> Circuit.id -> Circuit.id -> Circuit.id
val xnor2 : ?name:string -> t -> Circuit.id -> Circuit.id -> Circuit.id

val xor : ?name:string -> t -> Circuit.id list -> Circuit.id
(** Parity of any width ≥ 1 (balanced XOR2 tree). *)

val mux2 :
  ?name:string -> t -> sel:Circuit.id -> a:Circuit.id -> b:Circuit.id -> Circuit.id
(** [sel ? b : a]. *)

val aoi21 : ?name:string -> t -> Circuit.id -> Circuit.id -> Circuit.id -> Circuit.id
val oai21 : ?name:string -> t -> Circuit.id -> Circuit.id -> Circuit.id -> Circuit.id

val output : ?name:string -> t -> Circuit.id -> Circuit.id
(** Mark as primary output; with [name], a named buffer is inserted first. *)

val finish : ?validate:bool -> t -> Circuit.t
(** Validate and return the circuit; raises on any structural finding.
    [~validate:false] skips the check — the lint front end loads this way
    so warning-level findings are reported as diagnostics instead of
    aborting the load. *)
