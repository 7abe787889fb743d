(* Source loading: compiler-libs parse + pragma scan. The pragma scanner
   works on the raw text rather than the AST's attribute/comment stream so
   it sees comments anywhere — including lines the parser attaches to no
   node at all — and so fixtures with planted findings need no special
   annotation syntax beyond an ordinary comment. Pragmas are scanned per
   tool ([(* statrace: safe … *)] vs [(* statflow: safe … *)]) so the two
   analyzers' allowlists never shadow each other. *)

type t = {
  path : string;
  module_name : string;
  structure : Parsetree.structure;
  signature : Parsetree.signature;
  pragmas : (string * int * string) list;
}

let is_interface path = Filename.check_suffix path ".mli"


let module_name_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

let parse_error ~(tool : Tool.t) ~path ~line msg =
  Diag.errorf ~code:tool.Tool.parse_code
    ~loc:(Diag.File { file = path; line })
    ~hint:
      (tool.Tool.name
     ^ " analyzes source syntactically; the file must parse under the \
        project's own compiler version")
    "unparseable source file: %s" msg

(* A pragma line contains the full open-comment form and nothing after the
   close: [find_sub] locates "(* NAME: safe" and the line must end with
   "*)" (modulo trailing whitespace). Both conditions together keep lines
   that merely mention the pragma — help text, string literals, this very
   comment — from registering as suppressions. The reason is everything
   after the marker up to the comment close, dashes trimmed; an empty
   reason is accepted but discouraged. *)
let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let scan_pragmas ~tools text =
  let lines =
    String.split_on_char '\n' text |> List.mapi (fun i line -> (i + 1, line))
  in
  let ends_with_close line =
    let t = String.trim line in
    String.length t >= 2 && String.sub t (String.length t - 2) 2 = "*)"
  in
  let scan_tool (tool : Tool.t) =
    let marker = Tool.pragma_marker tool in
    List.filter_map
      (fun (n, line) ->
        if not (ends_with_close line) then None
        else
        match find_sub line marker with
        | None -> None
        | Some i ->
            let rest =
              String.sub line
                (i + String.length marker)
                (String.length line - i - String.length marker)
            in
            let rest =
              match find_sub rest "*)" with
              | Some j -> String.sub rest 0 j
              | None -> rest
            in
            let reason =
              String.trim rest
              |> fun s ->
              (* strip a leading em-dash / hyphen separator *)
              let s = String.trim s in
              let drop p s =
                if String.length s >= String.length p
                   && String.sub s 0 (String.length p) = p
                then
                  String.sub s (String.length p)
                    (String.length s - String.length p)
                else s
              in
              String.trim (drop "-" (drop "\xe2\x80\x94" s))
            in
            Some (tool.Tool.name, n, reason))
      lines
  in
  List.concat_map scan_tool tools

let of_string ~tool ?(tools = []) ~path text =
  let tools = if tools = [] then [ tool ] else tools in
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match
    if is_interface path then ([], Parse.interface lexbuf)
    else (Parse.implementation lexbuf, [])
  with
  | structure, signature ->
      Ok
        {
          path;
          module_name = module_name_of_path path;
          structure;
          signature;
          pragmas = scan_pragmas ~tools text;
        }
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error e ->
            (Syntaxerr.location_of_error e).Location.loc_start.Lexing.pos_lnum
        | _ -> lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum
      in
      let msg =
        match exn with
        | Syntaxerr.Error _ -> "syntax error"
        | Failure m -> m
        | e -> Printexc.to_string e
      in
      Error (parse_error ~tool ~path ~line msg)

let load ~tool ?tools path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string ~tool ?tools ~path text
  | exception Sys_error msg -> Error (parse_error ~tool ~path ~line:0 msg)

let rec files_under ~wanted dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.sort String.compare
      |> List.concat_map (fun entry ->
             let path = Filename.concat dir entry in
             if String.length entry > 0 && entry.[0] = '.' then []
             else if entry = "_build" then []
             else if Sys.is_directory path then files_under ~wanted path
             else if wanted entry then [ path ]
             else [])
  | exception Sys_error _ -> []

let load_dirs ~tool ?tools ?(interfaces = false) roots =
  let wanted file =
    Filename.check_suffix file ".ml"
    || (interfaces && Filename.check_suffix file ".mli")
  in
  let files =
    List.concat_map
      (fun root ->
        if Sys.file_exists root && Sys.is_directory root then
          files_under ~wanted root
        else if Sys.file_exists root && wanted root then [ root ]
        else [])
      roots
    |> List.sort_uniq String.compare
  in
  List.fold_left
    (fun (srcs, errs) path ->
      match load ~tool ?tools path with
      | Ok s -> (s :: srcs, errs)
      | Error d -> (srcs, d :: errs))
    ([], []) files
  |> fun (srcs, errs) -> (List.rev srcs, List.rev errs)

let pragmas_for_tool t ~(tool : Tool.t) =
  List.filter_map
    (fun (name, line, reason) ->
      if name = tool.Tool.name then Some (line, reason) else None)
    t.pragmas

let pragma_for t ~(tool : Tool.t) ~line =
  List.find_opt
    (fun (name, n, _) -> name = tool.Tool.name && (n = line || n = line - 1))
    t.pragmas
  |> Option.map (fun (_, n, reason) -> (n, reason))
