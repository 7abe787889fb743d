(** SDC constraint subset: [create_clock -period], [set_input_delay],
    [set_output_delay]. Enough to drive constrained (statistical) slack
    analysis. *)

exception Parse_error of { line : int; message : string }

type t

val empty : t
val of_string : string -> t
val load : path:string -> t

val period : t -> float option
val period_exn : t -> float

(* statflow: safe — constraint accessor the SDC tests check *)
val input_delay : t -> port:string -> float
(** External arrival offset on an input port (0 when unconstrained). *)

(* statflow: safe — constraint accessor the SDC tests check *)
val output_delay : t -> port:string -> float
(** External margin required before the clock edge at an output port. *)

val required_at : t -> Netlist.Circuit.t -> Netlist.Circuit.id -> float
(** period − output_delay for the named output. *)

(* statflow: safe — constraint accessor the SDC tests check *)
val worst_input_delay : t -> float

val pp : t Fmt.t
