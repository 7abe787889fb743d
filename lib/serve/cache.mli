(** Content-hashed caches for the serve daemon (parsed netlists, generated
    libraries). Keys are the full source content; lookups go through a
    digest index but always verify the stored content byte-for-byte, so a
    digest collision is *detected* and surfaced as a typed error instead of
    silently serving the wrong value. Domain-safe: a mutex guards the
    table, builds run outside it (a racing duplicate build is wasted work,
    never wrong — builds are deterministic functions of the content, and
    the first insert wins). *)

type 'a t

val create : ?hash:(string -> string) -> unit -> 'a t
(** [hash] defaults to stdlib [Digest.string] (MD5). Tests inject a
    colliding hash to exercise the collision path. *)

type 'a outcome =
  | Hit of 'a
  | Miss of 'a  (** built just now (and cached) *)
  | Collision of string  (** digest matched, stored content differed *)

val find_or_build : 'a t -> content:string -> build:(unit -> 'a) -> 'a outcome
(** [build] may raise; nothing is cached in that case. *)

val find : 'a t -> content:string -> 'a option
(** The value cached for [content], without building it; [None] on a
    collision too. *)

val length : 'a t -> int
