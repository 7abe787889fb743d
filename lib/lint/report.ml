(* Text and JSON rendering of lint results, plus the exit-code policy CI
   scripts key on. *)

let pp_summary ppf ds =
  let e = Diag.count Diag.Severity.Error ds
  and w = Diag.count Diag.Severity.Warning ds
  and i = Diag.count Diag.Severity.Info ds in
  if e = 0 && w = 0 && i = 0 then Fmt.string ppf "clean"
  else
    let plural n word =
      Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")
    in
    Fmt.string ppf
      (String.concat ", "
         (List.filter_map Fun.id
            [
              (if e > 0 then Some (plural e "error") else None);
              (if w > 0 then Some (plural w "warning") else None);
              (if i > 0 then Some (plural i "info") else None);
            ]))

let pp ppf ds =
  List.iter (fun d -> Fmt.pf ppf "  %a@." Diag.pp d) (Diag.sort ds);
  Fmt.pf ppf "  %a@." pp_summary ds

let exit_code ?(strict = false) ds =
  if Diag.has_errors ds then 1
  else if strict && Diag.count Diag.Severity.Warning ds > 0 then 3
  else 0

(* ---- JSON: the diagnostic schema, on Obs.Json ---- *)

module J = Obs.Json

let location_to_json = function
  | Diag.Circuit -> J.Obj [ ("kind", J.Str "circuit") ]
  | Net n -> J.Obj [ ("kind", J.Str "net"); ("name", J.Str n) ]
  | Gate g -> J.Obj [ ("kind", J.Str "gate"); ("name", J.Str g) ]
  | Cell c -> J.Obj [ ("kind", J.Str "cell"); ("name", J.Str c) ]
  | Lut { cell; table } ->
      J.Obj
        [ ("kind", J.Str "lut"); ("cell", J.Str cell); ("table", J.Str table) ]
  | Pdf -> J.Obj [ ("kind", J.Str "pdf") ]
  | Pdf_point { index; value } ->
      J.Obj
        [ ("kind", J.Str "pdf_point"); ("index", J.Num (float_of_int index));
          ("value", J.Num value) ]
  | Model -> J.Obj [ ("kind", J.Str "model") ]
  | File { file; line } ->
      J.Obj
        [ ("kind", J.Str "file"); ("file", J.Str file);
          ("line", J.Num (float_of_int line)) ]

let diag_to_json (d : Diag.t) =
  J.Obj
    ([
       ("code", J.Str d.code);
       ("severity", J.Str (Diag.Severity.to_string d.severity));
       ("location", location_to_json d.location);
       ("message", J.Str d.message);
     ]
    @ match d.hint with None -> [] | Some h -> [ ("hint", J.Str h) ])

let to_json targets =
  J.to_string
    (J.Obj
       [
         ("version", J.Num 1.0);
         ( "targets",
           J.Arr
             (List.map
                (fun (name, ds) ->
                  J.Obj
                    [
                      ("name", J.Str name);
                      ( "diagnostics",
                        J.Arr (List.map diag_to_json (Diag.sort ds)) );
                    ])
                targets) );
       ])

let ( let* ) = Result.bind

let str_member key v =
  match J.member key v with
  | Some (J.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" key)

(* The writer prints NaN and both infinities as null; all read back as NaN. *)
let num_member key v =
  match J.member key v with
  | Some (J.Num f) -> Ok f
  | Some J.Null -> Ok Float.nan
  | _ -> Error (Printf.sprintf "missing numeric field %S" key)

let int_member key v =
  match J.member key v with
  | Some (J.Num f) -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "missing integer field %S" key)

let location_of_json v =
  let* kind = str_member "kind" v in
  match kind with
  | "circuit" -> Ok Diag.Circuit
  | "net" ->
      let* n = str_member "name" v in
      Ok (Diag.Net n)
  | "gate" ->
      let* n = str_member "name" v in
      Ok (Diag.Gate n)
  | "cell" ->
      let* n = str_member "name" v in
      Ok (Diag.Cell n)
  | "lut" ->
      let* cell = str_member "cell" v in
      let* table = str_member "table" v in
      Ok (Diag.Lut { cell; table })
  | "pdf" -> Ok Diag.Pdf
  | "pdf_point" ->
      let* index = int_member "index" v in
      let* value = num_member "value" v in
      Ok (Diag.Pdf_point { index; value })
  | "model" -> Ok Diag.Model
  | "file" ->
      let* file = str_member "file" v in
      let* line = int_member "line" v in
      Ok (Diag.File { file; line })
  | k -> Error (Printf.sprintf "unknown location kind %S" k)

let diag_of_json v =
  let* code = str_member "code" v in
  let* sev_s = str_member "severity" v in
  let* severity =
    match Diag.Severity.of_string sev_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown severity %S" sev_s)
  in
  let* loc_v =
    match J.member "location" v with
    | Some l -> Ok l
    | None -> Error "missing location"
  in
  let* location = location_of_json loc_v in
  let* message = str_member "message" v in
  let hint =
    match J.member "hint" v with Some (J.Str h) -> Some h | _ -> None
  in
  Ok { Diag.code; severity; location; message; hint }

let of_json text =
  let* doc =
    Result.map_error
      (fun (msg, at) -> Printf.sprintf "%s at offset %d" msg at)
      (J.parse_result text)
  in
  let* () =
    match J.member "version" doc with
    | Some (J.Num 1.0) -> Ok ()
    | _ -> Error "missing or unsupported version"
  in
  let* targets =
    match J.member "targets" doc with
    | Some (J.Arr ts) -> Ok ts
    | _ -> Error "missing targets array"
  in
  List.fold_left
    (fun acc t ->
      let* parsed = acc in
      let* name = str_member "name" t in
      let* diag_values =
        match J.member "diagnostics" t with
        | Some (J.Arr ds) -> Ok ds
        | _ -> Error "target missing diagnostics"
      in
      let* diags =
        List.fold_left
          (fun acc v ->
            let* ds = acc in
            let* d = diag_of_json v in
            Ok (d :: ds))
          (Ok []) diag_values
      in
      Ok ((name, List.rev diags) :: parsed))
    (Ok []) targets
  |> Result.map List.rev
