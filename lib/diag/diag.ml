(* Typed diagnostics shared by the lint subsystem and the validators. Their
   JSON schema lives with the report renderer, in Lint.Report. *)

module Severity = struct
  type t = Error | Warning | Info

  let rank = function Error -> 0 | Warning -> 1 | Info -> 2
  let compare a b = Int.compare (rank a) (rank b)

  let to_string = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  let of_string = function
    | "error" -> Some Error
    | "warning" -> Some Warning
    | "info" -> Some Info
    | _ -> None

  let pp ppf s = Fmt.string ppf (to_string s)
end

type location =
  | Circuit
  | Net of string
  | Gate of string
  | Cell of string
  | Lut of { cell : string; table : string }
  | Pdf
  | Pdf_point of { index : int; value : float }
  | Model
  | File of { file : string; line : int }

type t = {
  code : string;
  severity : Severity.t;
  location : location;
  message : string;
  hint : string option;
}

let make ~code ~severity ~loc ?hint message =
  { code; severity; location = loc; message; hint }

let errorf ~code ~loc ?hint fmt =
  Fmt.kstr (fun message -> make ~code ~severity:Severity.Error ~loc ?hint message) fmt

let warningf ~code ~loc ?hint fmt =
  Fmt.kstr
    (fun message -> make ~code ~severity:Severity.Warning ~loc ?hint message)
    fmt

let with_severity severity t = { t with severity }

let pp_location ppf = function
  | Circuit -> Fmt.string ppf "circuit"
  | Net n -> Fmt.pf ppf "net %S" n
  | Gate g -> Fmt.pf ppf "gate %S" g
  | Cell c -> Fmt.pf ppf "cell %s" c
  | Lut { cell; table } -> Fmt.pf ppf "%s.%s" cell table
  | Pdf -> Fmt.string ppf "pdf"
  | Pdf_point { index; value } -> Fmt.pf ppf "pdf[%d] (=%g)" index value
  | Model -> Fmt.string ppf "variation model"
  | File { file; line } -> Fmt.pf ppf "%s:%d" file line

let location_string loc = Fmt.str "%a" pp_location loc

let compare a b =
  let c = Severity.compare a.severity b.severity in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare (location_string a.location) (location_string b.location) in
      if c <> 0 then c else String.compare a.message b.message

let sort ds = List.sort compare ds

let has_errors ds = List.exists (fun d -> d.severity = Severity.Error) ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let pp ppf t =
  Fmt.pf ppf "%a[%s] %a: %s%a" Severity.pp t.severity t.code pp_location
    t.location t.message
    (Fmt.option (fun ppf h -> Fmt.pf ppf " (hint: %s)" h))
    t.hint

let to_string t = Fmt.str "%a" pp t
