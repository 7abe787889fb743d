type run = {
  alpha : float;
  mean_change_pct : float;
  sigma_change_pct : float;
  final_sigma_over_mean : float;
  area_change_pct : float;
  iterations : int;
  resizes : int;
  runtime_s : float;
  sizing_digest : string;
}

type row = {
  name : string;
  gates : int;
  original_sigma_over_mean : float;
  runs : run list;
}

let ( let* ) = Result.bind

let jfloat what json =
  match json with
  | Some (Obs.Json.Num f) -> Ok f
  | _ -> Error (Printf.sprintf "table1 response: bad %S" what)

let jint what json =
  let* f = jfloat what json in
  Ok (int_of_float f)

let jstr what json =
  match json with
  | Some (Obs.Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "table1 response: bad %S" what)

let parse_run json =
  let m k = Obs.Json.member k json in
  let* alpha = jfloat "alpha" (m "alpha") in
  let* mean_change_pct = jfloat "mean_change_pct" (m "mean_change_pct") in
  let* sigma_change_pct = jfloat "sigma_change_pct" (m "sigma_change_pct") in
  let* final_sigma_over_mean =
    jfloat "final_sigma_over_mean" (m "final_sigma_over_mean")
  in
  let* area_change_pct = jfloat "area_change_pct" (m "area_change_pct") in
  let* iterations = jint "iterations" (m "iterations") in
  let* resizes = jint "resizes" (m "resizes") in
  let* runtime_s = jfloat "runtime_s" (m "runtime_s") in
  let* sizing_digest = jstr "sizing_digest" (m "sizing_digest") in
  Ok
    {
      alpha;
      mean_change_pct;
      sigma_change_pct;
      final_sigma_over_mean;
      area_change_pct;
      iterations;
      resizes;
      runtime_s;
      sizing_digest;
    }

let parse_row line =
  let* json =
    Result.map_error
      (fun (msg, off) -> Printf.sprintf "byte %d: %s" off msg)
      (Obs.Json.parse_result line)
  in
  match Obs.Json.member "ok" json with
  | Some (Obs.Json.Bool true) -> (
      match Obs.Json.member "result" json with
      | Some result -> (
          let m k = Obs.Json.member k result in
          let* name = jstr "name" (m "name") in
          let* gates = jint "gates" (m "gates") in
          let* original_sigma_over_mean =
            jfloat "original_sigma_over_mean" (m "original_sigma_over_mean")
          in
          match m "runs" with
          | Some (Obs.Json.Arr runs) ->
              let* runs =
                List.fold_right
                  (fun r acc ->
                    let* acc = acc in
                    let* run = parse_run r in
                    Ok (run :: acc))
                  runs (Ok [])
              in
              Ok { name; gates; original_sigma_over_mean; runs }
          | _ -> Error "table1 response: missing \"runs\"")
      | None -> Error "table1 response: missing \"result\"")
  | _ -> (
      match Obs.Json.member "error" json with
      | Some e ->
          Error
            (Printf.sprintf "daemon error: %s" (Obs.Json.to_string e))
      | None -> Error "table1 response: not ok, no error")

let run ~socket ?(alphas = Experiments.Table1.default_alphas)
    ?(names = Benchgen.Iscas_like.names) ?max_iterations () =
  let request name =
    let fields =
      [
        ("serve", Obs.Json.Num 1.0);
        ("id", Obs.Json.Str name);
        ("op", Obs.Json.Str "table1");
        ("circuit", Obs.Json.Str name);
        ("alphas", Obs.Json.Arr (List.map (fun a -> Obs.Json.Num a) alphas));
      ]
      @
      match max_iterations with
      | None -> []
      | Some n -> [ ("max_iterations", Obs.Json.Num (float_of_int n)) ]
    in
    Obs.Json.to_string (Obs.Json.Obj fields)
  in
  match Client.session ~socket (List.map request names) with
  | responses ->
      List.fold_right
        (fun line acc ->
          let* acc = acc in
          let* row = parse_row line in
          Ok (row :: acc))
        responses (Ok [])
  | exception e -> Error (Printexc.to_string e)

let pp_header ppf alphas =
  Fmt.pf ppf "%-8s %6s %9s" "circuit" "gates" "orig s/m";
  List.iter
    (fun a ->
      Fmt.pf ppf " | a=%-3g %6s %7s %7s %7s %8s" a "dmu%" "dsig%" "s/m" "darea%"
        "time(m)")
    alphas;
  Fmt.pf ppf "@."

let pp ppf rows =
  match rows with
  | [] -> Fmt.pf ppf "(no rows)@."
  | first :: _ ->
      pp_header ppf (List.map (fun r -> r.alpha) first.runs);
      List.iter
        (fun row ->
          Fmt.pf ppf "%-8s %6d %9.3f" row.name row.gates
            row.original_sigma_over_mean;
          List.iter
            (fun r ->
              Fmt.pf ppf " |       %+6.1f %+7.1f %7.3f %+7.1f %8.2f"
                r.mean_change_pct r.sigma_change_pct r.final_sigma_over_mean
                r.area_change_pct
                (r.runtime_s /. 60.0))
            row.runs;
          Fmt.pf ppf "@.")
        rows
