(** Graphviz DOT export with optional per-node annotations (criticality
    highlighting, extra labels). *)

type style = { label : string option; highlight : bool }

(* statflow: safe — the text save writes; the DOT test parses it *)
val to_dot :
  ?graph_name:string -> ?style:(Circuit.id -> style) -> Circuit.t -> string

val save :
  ?graph_name:string ->
  ?style:(Circuit.id -> style) ->
  Circuit.t ->
  path:string ->
  unit
