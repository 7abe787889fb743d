(** Per-rule configuration: disable codes entirely or override their
    severity. Applied as a post-filter, so rule packs always emit at the
    catalogue's default severity and the registry rewrites/drops findings. *)

type t

val default : t
(** Every rule enabled at its catalogue severity. *)

val disable : t -> string -> t
(** Disable a rule code. Unknown codes raise [Invalid_argument]. *)

(* statflow: safe — severity override; the registry tests exercise it *)
val override : t -> code:string -> severity:Diag.Severity.t -> t
(** Force a rule's severity. Unknown codes raise [Invalid_argument]. *)

val of_spec : ?disable:string list -> ?overrides:string list -> unit -> (t, string) result
(** Build from CLI-style specs: [disable] is a list of codes, [overrides] a
    list of [CODE=error|warning|info] strings. Returns [Error] with a
    human-readable message on unknown codes or malformed specs. *)

val apply : t -> Diag.t list -> Diag.t list
(** Drop disabled findings, rewrite overridden severities, sort. *)
