(** Source loading for the source analyzers (statrace, statflow): read an
    [.ml] or [.mli] file, parse it with the compiler's own front end
    (compiler-libs [Parse]), and scan the raw text for
    [(* NAME: safe — reason *)]
    allowlist pragmas, one namespace per {!Tool.t}.

    The analyzers are purely syntactic — no typing pass — so anything that
    parses under the project's compiler version is analyzable, including
    planted fixtures that are never compiled. *)

type t = {
  path : string;  (** as given on the command line; used in diagnostics *)
  module_name : string;  (** capitalized basename, the module it compiles to *)
  structure : Parsetree.structure;  (** [[]] for an [.mli] *)
  signature : Parsetree.signature;  (** the parsed [.mli]; [[]] for an [.ml] *)
  pragmas : (string * int * string) list;
      (** [(tool, line, reason)] for every [NAME: safe] pragma, 1-based;
          only the tools passed at load time are scanned for *)
}

val is_interface : string -> bool
(** The path names an [.mli]. *)

val of_string :
  tool:Tool.t -> ?tools:Tool.t list -> path:string -> string -> (t, Diag.t) result
(** Parse source text: an interface when [path] ends in [.mli], else an
    implementation. Parse failures come back as a single Error diagnostic
    (code [tool.parse_code]) carrying the failing file/line. [tools] is the
    set of pragma namespaces to scan for; it defaults to [[tool]] — pass
    both analyzers' tools to share one parsed source set between them. *)

val load : tool:Tool.t -> ?tools:Tool.t list -> string -> (t, Diag.t) result
(** [of_string] over a file's contents; I/O errors are parse errors too. *)

val load_dirs :
  tool:Tool.t ->
  ?tools:Tool.t list ->
  ?interfaces:bool ->
  string list ->
  t list * Diag.t list
(** Every [.ml] file under the given roots, and every [.mli] too when
    [interfaces] is set (default false), recursive, [_build] and
    dot-directories skipped, sorted by path for deterministic output.
    Returns parsed sources and the diagnostics of unparseable ones. *)

val pragmas_for_tool : t -> tool:Tool.t -> (int * string) list
(** This tool's [(line, reason)] pragmas, for staleness accounting. *)

val pragma_for : t -> tool:Tool.t -> line:int -> (int * string) option
(** The pragma covering a finding at [line]: same line or the line above. *)
