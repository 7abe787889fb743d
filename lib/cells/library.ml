(* Standard-cell libraries and the procedurally generated 90nm-like default.

   The paper sizes gates against "an industrial 90nm lookup-table based
   standard cell library with 6-8 sizes per gate type". We generate an
   equivalent-interface library: every function in {!Fn.all_shapes} at eight
   drive strengths, each with bilinear delay/slew LUTs exhibiting the usual
   nonlinear dependence on load and input slew. The sizing engines consume
   only the LUTs, input caps and areas, exactly as they would a real library. *)

type t = {
  name : string;
  tau : float; (* technology time constant, ps *)
  strengths : float array; (* drive-strength ladder, ascending *)
  groups : (Fn.t * Cell.t array) list; (* cells per function, by drive *)
  by_fn : Cell.t array array;
      (* [groups]' arrays at their function's [Fn.index], [||] where absent:
         the sizer's lookups run in O(1), without polymorphic compare *)
  by_name : (string, Cell.t) Hashtbl.t;
}

let name t = t.name
let tau t = t.tau
let strengths t = Array.copy t.strengths
let functions t = List.map fst t.groups

let cell_count t =
  List.fold_left (fun acc (_, cs) -> acc + Array.length cs) 0 t.groups

let iter_cells t ~f = List.iter (fun (_, cs) -> Array.iter f cs) t.groups

let cells t =
  List.concat_map (fun (_, cs) -> Array.to_list cs) t.groups

let group t fn =
  let i = Fn.index fn in
  if i < 0 then [||] else t.by_fn.(i)

let sizes_of_fn t fn =
  let cells = group t fn in
  if Array.length cells > 0 then cells
  else
    invalid_arg
      (Printf.sprintf "Library.sizes_of_fn: %s not in library %s" (Fn.name fn)
         t.name)

let mem_fn t fn = Array.length (group t fn) > 0

let find t ~name = Hashtbl.find_opt t.by_name name

let cell_exn t ~fn ~drive_index =
  let cells = sizes_of_fn t fn in
  if drive_index < 0 || drive_index >= Array.length cells then
    invalid_arg
      (Printf.sprintf "Library.cell_exn: drive %d out of range for %s"
         drive_index (Fn.name fn));
  cells.(drive_index)

let min_cell t ~fn = (sizes_of_fn t fn).(0)

let max_cell t ~fn =
  let cells = sizes_of_fn t fn in
  cells.(Array.length cells - 1)

let next_up t cell =
  let cells = sizes_of_fn t (Cell.fn cell) in
  let i = Cell.drive_index cell in
  if i + 1 < Array.length cells then Some cells.(i + 1) else None

let next_down t cell =
  let cells = sizes_of_fn t (Cell.fn cell) in
  let i = Cell.drive_index cell in
  if i > 0 then Some cells.(i - 1) else None

let of_cells ~name ~tau ~strengths cells =
  let by_name = Hashtbl.create 97 in
  List.iter
    (fun (c : Cell.t) ->
      if Hashtbl.mem by_name c.Cell.name then
        invalid_arg ("Library.of_cells: duplicate cell " ^ c.Cell.name);
      if Fn.index c.Cell.fn < 0 then
        invalid_arg
          (Printf.sprintf "Library.of_cells: cell %s has invalid function %s"
             c.Cell.name (Fn.name c.Cell.fn));
      Hashtbl.add by_name c.Cell.name c)
    cells;
  let groups =
    List.filter_map
      (fun fn ->
        let group =
          List.filter (fun c -> Fn.equal (Cell.fn c) fn) cells
          |> List.sort (fun a b -> Float.compare (Cell.strength a) (Cell.strength b))
        in
        match group with [] -> None | _ -> Some (fn, Array.of_list group))
      (List.sort_uniq Fn.compare (List.map Cell.fn cells))
  in
  let by_fn = Array.make Fn.index_count [||] in
  List.iter (fun (fn, cs) -> by_fn.(Fn.index fn) <- cs) groups;
  { name; tau; strengths; groups; by_fn; by_name }

(* ---- generated default library ---------------------------------------- *)

let default_strengths = [| 1.0; 2.0; 3.0; 4.0; 6.0; 8.0; 12.0; 16.0 |]
let default_slew_axis = [| 2.0; 5.0; 10.0; 20.0; 40.0; 80.0; 160.0 |]
let default_load_axis = [| 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

(* Analytic seed for the LUT entries. The load term scales with logical
   effort and inversely with strength; the quadratic load correction and the
   sublinear slew term give the tables their realistic curvature. *)
let model_delay ~tau fn strength ~slew ~load =
  let g = Fn.effort fn and p = Fn.parasitic fn in
  let normalized = load /. strength in
  let load_term = g *. normalized *. (1.0 +. (0.004 *. normalized)) in
  let slew_term = 0.22 *. slew *. (1.0 +. (0.0015 *. slew)) in
  (p *. tau) +. load_term +. slew_term

let model_slew ~tau fn strength ~slew ~load =
  let g = Fn.effort fn in
  let normalized = load /. strength in
  (0.9 *. tau)
  +. (1.6 *. g *. normalized *. (1.0 +. (0.003 *. normalized)))
  +. (0.12 *. slew)

let drive_suffix s =
  if Float.is_integer s then Printf.sprintf "X%d" (int_of_float s)
  else Printf.sprintf "X%g" s

let make_cell ~tau ~slew_axis ~load_axis fn ~drive_index ~strength =
  let delay =
    Numerics.Lut.of_function ~rows:slew_axis ~cols:load_axis (fun slew load ->
        model_delay ~tau fn strength ~slew ~load)
  and output_slew =
    Numerics.Lut.of_function ~rows:slew_axis ~cols:load_axis (fun slew load ->
        model_slew ~tau fn strength ~slew ~load)
  in
  {
    Cell.name = Printf.sprintf "%s_%s" (Fn.name fn) (drive_suffix strength);
    fn;
    drive_index;
    strength;
    area = 1.4 *. Fn.base_area fn *. (0.35 +. (0.65 *. strength));
    input_cap = 1.2 *. Fn.effort fn *. strength;
    delay;
    output_slew;
  }

let generate ?(name = "statsize90") ?(tau = 5.0) ?(strengths = default_strengths)
    ?(slew_axis = default_slew_axis) ?(load_axis = default_load_axis)
    ?(shapes = Fn.all_shapes) () =
  let cells =
    List.concat_map
      (fun fn ->
        List.init (Array.length strengths) (fun i ->
            make_cell ~tau ~slew_axis ~load_axis fn ~drive_index:i
              ~strength:strengths.(i)))
      shapes
  in
  of_cells ~name ~tau ~strengths cells

let default = lazy (generate ())

let pp ppf t =
  Fmt.pf ppf "library %s: %d functions, %d cells" t.name (List.length t.groups)
    (cell_count t)
