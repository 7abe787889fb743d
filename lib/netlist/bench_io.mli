(** ISCAS-85 [.bench] reader/writer. Reading technology-maps primitives onto
    minimum-size library cells (wide gates become balanced trees); writing
    emits a superset dialect this reader accepts back. *)

exception Parse_error of { line : int; code : string; message : string }
(** [code] is the stable diagnostic code (BENCH001 syntax, BENCH002
    unsupported gate, CIRC001 cycle, CIRC002 multiply-driven or repeated
    INPUT, CIRC003 undefined reference, or the first finding of the final
    structural check). *)

val of_string :
  ?name:string -> ?validate:bool -> lib:Cells.Library.t -> string -> Circuit.t
(** Parse and map; raises {!Parse_error} on every text it refuses
    (fail-fast — first problem wins), and no other exception for the
    default library. Names resolve through the file's own names only, and
    the names a decomposition invents skip every name the file defines, so
    a gate named like a decomposition node ([AND4_0]) keeps its name and
    function in any line order. The structural check refuses with its
    first finding, at that gate's definition line (line 0 for a finding
    about the whole circuit, such as no outputs). [~validate:false] skips
    that check so circuits with warning-level findings (e.g. dangling gates)
    still load — the lint front end reports those as diagnostics
    instead. *)

val load :
  ?name:string ->
  ?validate:bool ->
  lib:Cells.Library.t ->
  path:string ->
  unit ->
  Circuit.t

val lint : ?file:string -> string -> Diag.t list
(** Permissive diagnostic pass over the same scanner as {!of_string}:
    malformed lines become diagnostics and are skipped, then it reports
    undefined references, unsupported operators, multiply-driven nets,
    repeated INPUTs and combinational cycles over the surviving
    definitions — every problem in the file at once, with [file:line]
    locations. Empty iff [of_string ~validate:false] would succeed. *)

val lint_file : path:string -> Diag.t list

val to_string : Circuit.t -> string
val save : Circuit.t -> path:string -> unit
