(** Content-keyed caches for the serve daemon (parsed netlists, generated
    libraries). The key is the full source content itself: stdlib string
    hashing reads the whole string and key equality compares the whole
    string, so two different contents never share an entry. Domain-safe: a
    mutex guards the table, builds run outside it (a racing duplicate
    build is wasted work, never wrong — builds are deterministic functions
    of the content, and the first insert wins). *)

type 'a t

val create : unit -> 'a t

type 'a outcome = Hit of 'a | Miss of 'a  (** built just now (and cached) *)

val find_or_build : 'a t -> content:string -> build:(unit -> 'a) -> 'a outcome
(** [build] may raise; nothing is cached in that case. *)

val find : 'a t -> content:string -> 'a option
(** The value cached for [content], without building it. *)

val length : 'a t -> int
