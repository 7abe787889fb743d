(** Technology-mapped combinational circuits: a DAG of primary inputs and
    library-cell instances with dense integer ids.

    Invariant: a gate's fanins are created before the gate, so ascending id
    order is a topological order. Gate {e sizes} are mutable; structure is
    append-only. *)

type id = int

type t

val create : ?output_load:float -> name:string -> unit -> t
(** Fresh empty circuit. [output_load] (default 4.0 fF) is the fixed
    capacitance each primary output drives. *)

val name : t -> string
val size : t -> int
(** Total node count (inputs + gates). *)

val output_load : t -> float

val add_input : t -> name:string -> id
val add_gate : t -> name:string -> cell:Cells.Cell.t -> fanins:id array -> id
(** Raises [Invalid_argument] on duplicate names, arity mismatch, or fanins
    that do not exist yet. *)

val mark_output : t -> id -> unit
(** Flag a node as a primary output (idempotent). *)

val inputs : t -> id list
val outputs : t -> id list
val is_input : t -> id -> bool
val is_output : t -> id -> bool

val node_name : t -> id -> string
val mem_name : t -> string -> bool
val find : t -> name:string -> id option

val fanins : t -> id -> id array
(** Empty for primary inputs. Do not mutate. *)

val fanouts : t -> id -> id list
(** Gates reading this node, in insertion order. *)

val iter_fanouts : t -> id -> f:(id -> unit) -> unit
(** Allocation-free fanout iteration (unspecified order). *)

val cell : t -> id -> Cells.Cell.t option
val cell_exn : t -> id -> Cells.Cell.t

val set_cell : t -> id -> Cells.Cell.t -> unit
(** Resize a gate. Raises if the new cell computes a different function or
    the node is a primary input. *)

val load : t -> id -> float
(** Capacitive load on the node's output: reader pin caps plus the external
    output load when the node is a primary output. *)

val topological : t -> id list
(** All ids in topological order. *)

val gates : t -> id list
(** Gate ids (no primary inputs), topologically ordered. *)

val iter_nodes : t -> f:(id -> unit) -> unit
val gate_count : t -> int
val total_area : t -> float

val copy : ?name:string -> t -> t
(** Structural deep copy with fresh mutable cell assignments (ids are
    preserved). *)

val validate_diag : t -> Diag.t list
(** Structural problems as typed diagnostics (codes CIRC001/004/008/009/010),
    empty when well-formed. Dangling gates are [Warning]; everything else is
    [Error]. *)

val validate : t -> string list
(** Deprecated: string rendering of {!validate_diag}, kept for one release.
    Empty when well-formed. *)

val pp : t Fmt.t
