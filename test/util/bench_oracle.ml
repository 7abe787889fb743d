(* The [.bench] reader and lint pass as they were before one scanner
   replaced them in Netlist.Bench_io, kept verbatim (one local variable
   renamed) as the oracle the scanner is checked against (test_netlist's
   oracle and fuzz groups).
   They raise the shipped [Parse_error], so outcomes compare directly.
   Known differences, each asserted by name in test_netlist: a repeated
   INPUT, an '=' after the '(' and the structural check's refusal raise
   [Invalid_argument] here, and a gate named like a decomposition node
   ([AND4_0]) is silently dropped here when the decomposition comes
   first. *)

module Build = Netlist.Build
module Circuit = Netlist.Circuit

exception Parse_error = Netlist.Bench_io.Parse_error

let fail ?(code = "BENCH001") line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; code; message })) fmt

type def = { op : string; args : string list; line : int }

type parsed = {
  inputs : (string * int) list; (* name, line *)
  outputs : (string * int) list;
  defs : (string, def) Hashtbl.t;
  def_order : string list;
}

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') s

let parse_line ~line ~acc text =
  let text = String.trim text in
  if text = "" || text.[0] = '#' then acc
  else
    let lparen =
      match String.index_opt text '(' with
      | Some i -> i
      | None -> fail line "expected '(' in %S" text
    in
    let rparen =
      match String.rindex_opt text ')' with
      | Some i when i > lparen -> i
      | _ -> fail line "expected ')' in %S" text
    in
    let args_text = String.sub text (lparen + 1) (rparen - lparen - 1) in
    let args =
      String.split_on_char ',' args_text
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    match String.index_opt text '=' with
    | None -> (
        let keyword = String.trim (String.sub text 0 lparen) in
        match (String.uppercase_ascii keyword, args) with
        | "INPUT", [ name ] -> { acc with inputs = (name, line) :: acc.inputs }
        | "OUTPUT", [ name ] -> { acc with outputs = (name, line) :: acc.outputs }
        | _ -> fail line "expected INPUT(x) or OUTPUT(x), got %S" text)
    | Some eq ->
        let name = String.trim (String.sub text 0 eq) in
        let op =
          String.uppercase_ascii (String.trim (String.sub text (eq + 1) (lparen - eq - 1)))
        in
        if name = "" then fail line "missing gate name in %S" text;
        if args = [] then fail line "gate %S has no operands" name;
        if Hashtbl.mem acc.defs name then
          fail ~code:"CIRC002" line "duplicate definition of %S (multiply-driven net)"
            name;
        Hashtbl.add acc.defs name { op; args; line };
        { acc with def_order = name :: acc.def_order }

let parse_text text =
  let acc =
    { inputs = []; outputs = []; defs = Hashtbl.create 997; def_order = [] }
  in
  let lines = String.split_on_char '\n' text in
  let acc, _ =
    List.fold_left
      (fun (acc, n) l ->
        ((if is_blank l then acc else parse_line ~line:n ~acc l), n + 1))
      (acc, 1) lines
  in
  {
    acc with
    inputs = List.rev acc.inputs;
    outputs = List.rev acc.outputs;
    def_order = List.rev acc.def_order;
  }

let instantiate_gate bld ~name def ids =
  let module F = Cells.Fn in
  match (def.op, List.length ids) with
  | ("NOT" | "INV"), 1 -> Build.not_ ~name bld (List.hd ids)
  | ("BUF" | "BUFF"), 1 -> Build.buf ~name bld (List.hd ids)
  | ("AND" | "AND2" | "AND3" | "AND4"), n when n >= 2 -> Build.and_ ~name bld ids
  | ("OR" | "OR2" | "OR3" | "OR4"), n when n >= 2 -> Build.or_ ~name bld ids
  | ("NAND" | "NAND2" | "NAND3" | "NAND4"), n when n >= 2 -> Build.nand ~name bld ids
  | ("NOR" | "NOR2" | "NOR3" | "NOR4"), n when n >= 2 -> Build.nor ~name bld ids
  | ("XOR" | "XOR2"), n when n >= 2 -> Build.xor ~name bld ids
  | ("XNOR" | "XNOR2"), 2 ->
      (match ids with
      | [ a; b ] -> Build.xnor2 ~name bld a b
      | _ -> assert false)
  | ("XNOR" | "XNOR2"), n when n > 2 -> Build.not_ ~name bld (Build.xor bld ids)
  | "AOI21", 3 ->
      (match ids with [ a; b; c ] -> Build.aoi21 ~name bld a b c | _ -> assert false)
  | "OAI21", 3 ->
      (match ids with [ a; b; c ] -> Build.oai21 ~name bld a b c | _ -> assert false)
  | "MUX2", 3 ->
      (match ids with
      | [ a; b; s ] -> Build.mux2 ~name bld ~sel:s ~a ~b
      | _ -> assert false)
  | op, n -> fail ~code:"BENCH002" def.line "unsupported gate %s/%d for %S" op n name

let map_to_circuit ?(name = "bench") ?(validate = true) ~lib parsed =
  let bld = Build.create ~lib ~name () in
  List.iter
    (fun (input_name, line) ->
      if Hashtbl.mem parsed.defs input_name then
        fail ~code:"CIRC002" line "node %S is both INPUT and a gate (multiply-driven)"
          input_name;
      ignore (Build.input bld ~name:input_name))
    parsed.inputs;
  let circuit = Build.circuit bld in
  (* Dependency-ordered instantiation (definitions may be out of order). *)
  let visiting = Hashtbl.create 97 in
  let rec resolve ref_name ~line =
    match Circuit.find circuit ~name:ref_name with
    | Some id -> id
    | None -> (
        match Hashtbl.find_opt parsed.defs ref_name with
        | None -> fail ~code:"CIRC003" line "reference to undefined signal %S" ref_name
        | Some def ->
            if Hashtbl.mem visiting ref_name then
              fail ~code:"CIRC001" def.line "combinational cycle through %S" ref_name;
            Hashtbl.add visiting ref_name ();
            let ids = List.map (fun a -> resolve a ~line:def.line) def.args in
            Hashtbl.remove visiting ref_name;
            instantiate_gate bld ~name:ref_name def ids)
  in
  List.iter (fun n -> ignore (resolve n ~line:0)) parsed.def_order;
  List.iter
    (fun (out_name, line) ->
      Circuit.mark_output circuit (resolve out_name ~line))
    parsed.outputs;
  Build.finish ~validate bld

let of_string ?name ?validate ~lib text =
  map_to_circuit ?name ?validate ~lib (parse_text text)

(* ---- permissive diagnostic pass ----------------------------------------

   [of_string] is fail-fast: the first problem raises. The lint front end
   wants every problem in the file at once, with file:line positions, so
   this second pass parses line by line (bad lines become diagnostics and
   are skipped) and then checks references, operators and cycles over the
   surviving definition graph without instantiating any gates. *)

(* `Ok | `Unknown op | `Bad_arity mirror exactly what [instantiate_gate]
   would accept. *)
let op_support op ~arity =
  match op with
  | "NOT" | "INV" | "BUF" | "BUFF" -> if arity = 1 then `Ok else `Bad_arity
  | "AND" | "AND2" | "AND3" | "AND4"
  | "OR" | "OR2" | "OR3" | "OR4"
  | "NAND" | "NAND2" | "NAND3" | "NAND4"
  | "NOR" | "NOR2" | "NOR3" | "NOR4"
  | "XOR" | "XOR2" | "XNOR" | "XNOR2" ->
      if arity >= 2 then `Ok else `Bad_arity
  | "AOI21" | "OAI21" | "MUX2" -> if arity = 3 then `Ok else `Bad_arity
  | _ -> `Unknown

let lint ?(file = "<bench>") text =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let loc line = Diag.File { file; line } in
  let acc =
    ref { inputs = []; outputs = []; defs = Hashtbl.create 997; def_order = [] }
  in
  List.iteri
    (fun i l ->
      let line = i + 1 in
      if not (is_blank l) then
        match parse_line ~line ~acc:!acc l with
        | acc' -> acc := acc'
        | exception Parse_error { line; code; message } ->
            add (Diag.make ~code ~severity:Diag.Severity.Error ~loc:(loc line) message))
    (String.split_on_char '\n' text);
  let parsed =
    {
      !acc with
      inputs = List.rev !acc.inputs;
      outputs = List.rev !acc.outputs;
      def_order = List.rev !acc.def_order;
    }
  in
  let defined name =
    List.mem_assoc name parsed.inputs || Hashtbl.mem parsed.defs name
  in
  List.iter
    (fun (input_name, line) ->
      if Hashtbl.mem parsed.defs input_name then
        add
          (Diag.errorf ~code:"CIRC002" ~loc:(loc line)
             "node %S is both INPUT and a gate (multiply-driven)" input_name))
    parsed.inputs;
  List.iter
    (fun name ->
      match Hashtbl.find_opt parsed.defs name with
      | None -> ()
      | Some def ->
          (match op_support def.op ~arity:(List.length def.args) with
          | `Ok -> ()
          | `Unknown ->
              add
                (Diag.errorf ~code:"BENCH002" ~loc:(loc def.line)
                   "unsupported gate %s for %S" def.op name)
          | `Bad_arity ->
              add
                (Diag.errorf ~code:"BENCH002" ~loc:(loc def.line)
                   "unsupported gate %s/%d for %S" def.op
                   (List.length def.args) name));
          List.iter
            (fun a ->
              if not (defined a) then
                add
                  (Diag.errorf ~code:"CIRC003" ~loc:(loc def.line)
                     "reference to undefined signal %S" a))
            def.args)
    parsed.def_order;
  List.iter
    (fun (out_name, line) ->
      if not (defined out_name) then
        add
          (Diag.errorf ~code:"CIRC003" ~loc:(loc line)
             "OUTPUT references undefined signal %S" out_name))
    parsed.outputs;
  (* Cycle detection over the definition graph (no instantiation): a grey
     node reached again is a back edge — one diagnostic per back edge. *)
  let color = Hashtbl.create 97 in
  let rec dfs name =
    match Hashtbl.find_opt color name with
    | Some _ -> ()
    | None -> (
        match Hashtbl.find_opt parsed.defs name with
        | None -> ()
        | Some def ->
            Hashtbl.replace color name `Grey;
            List.iter
              (fun a ->
                if Hashtbl.find_opt color a = Some `Grey then
                  add
                    (Diag.errorf ~code:"CIRC001" ~loc:(loc def.line)
                       "combinational cycle through %S" a)
                else dfs a)
              def.args;
            Hashtbl.replace color name `Black)
  in
  List.iter dfs parsed.def_order;
  Diag.sort !diags
