(** Structural gate-level Verilog writer (named ports .A/.B/…/.Y; escaped
    identifiers where needed). *)

(* statflow: safe — the text save writes; the Verilog tests parse it *)
val to_verilog : ?module_name:string -> Circuit.t -> string
val save : ?module_name:string -> Circuit.t -> path:string -> unit
