(** The Table-1 benchmark suite: alu1/2/3 and c432…c7552 equivalents
    (structural circuits where the original is structurally defined, seeded
    profile DAGs otherwise — DESIGN.md §2). *)

type entry = { name : string; build : lib:Cells.Library.t -> Netlist.Circuit.t }

val names : string list
val find : string -> entry option
val build_exn : lib:Cells.Library.t -> string -> Netlist.Circuit.t
