(* ISCAS-85 [.bench] reader and writer.

   Reading performs the technology-mapping step the paper delegates to Design
   Compiler: bench primitives become minimum-size library cells, and gates
   wider than the library's arity cap are decomposed into balanced trees.
   Definitions may appear in any order; we instantiate in dependency order.

   Writing emits a superset dialect: every cell function prints under its
   library name (AOI21/OAI21/MUX2 included), which this reader accepts back,
   so write/read round-trips preserve structure. *)

exception Parse_error of { line : int; code : string; message : string }

let fail ?(code = "BENCH001") line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; code; message })) fmt

(* ---- the scanner ------------------------------------------------------

   One walk over the text by index, shared by [of_string] and [lint]. Each
   name is interned once into a symbol table (open addressing over the
   name's bytes, so a lookup copies nothing), and what the file says about
   a name lives in arrays indexed by its symbol. The only strings made are
   the names, which become the circuit's node names, and the texts of
   error messages. *)

(* What a gate line's operator instantiates. The digit-suffixed spellings
   (AND3, NAND2, ...) are aliases whose digit is not checked. *)
type op = Not | Buf | And | Or | Nand | Nor | Xor | Xnor | Aoi21 | Oai21 | Mux2 | Unknown

let op_names =
  [|
    ("NOT", Not); ("INV", Not); ("BUF", Buf); ("BUFF", Buf);
    ("AND", And); ("AND2", And); ("AND3", And); ("AND4", And);
    ("OR", Or); ("OR2", Or); ("OR3", Or); ("OR4", Or);
    ("NAND", Nand); ("NAND2", Nand); ("NAND3", Nand); ("NAND4", Nand);
    ("NOR", Nor); ("NOR2", Nor); ("NOR3", Nor); ("NOR4", Nor);
    ("XOR", Xor); ("XOR2", Xor); ("XNOR", Xnor); ("XNOR2", Xnor);
    ("AOI21", Aoi21); ("OAI21", Oai21); ("MUX2", Mux2);
  |]

(* [node] values besides circuit ids: not built yet, and being resolved
   ([of_string]) or on the depth-first path ([lint]); [lint] marks a
   finished name [done_]. *)
let unbuilt = -1
let resolving = -2
let done_ = -3

type scan = {
  text : string;
  mutable slots : int array; (* symbol + 1, or 0 for an empty slot *)
  mutable count : int;
  (* per symbol *)
  mutable names : string array;
  mutable input_line : int array; (* first INPUT line; 0 if not an input *)
  mutable def_line : int array; (* gate definition line; 0 if not a gate *)
  mutable def_op : op array;
  mutable def_op_at : int array; (* the operator's trimmed text ... *)
  mutable def_op_len : int array; (* ... kept for error messages *)
  mutable def_args : int array; (* first operand's index in [args] *)
  mutable def_arity : int array;
  mutable node : int array;
  (* operand symbols of every gate line, flat *)
  args : int array;
  mutable nargs : int;
  (* statements in file order; [inputs] and [outputs] hold (symbol, line)
     pairs as consecutive elements *)
  inputs : int Vec.t;
  outputs : int Vec.t;
  def_order : int Vec.t;
}

(* String.trim's whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space text i stop =
  if i < stop && is_space (String.unsafe_get text i) then skip_space text (i + 1) stop
  else i

let rec back_space text start i =
  if i > start && is_space (String.unsafe_get text (i - 1)) then
    back_space text start (i - 1)
  else i

let rec index_in text c i stop =
  if i >= stop then -1
  else if String.unsafe_get text i = c then i
  else index_in text c (i + 1) stop

let rec rindex_in text c start i =
  if i <= start then -1
  else if String.unsafe_get text (i - 1) = c then i - 1
  else rindex_in text c start (i - 1)

(* The scanner's helpers are top-level functions that take every value
   they read: a local closure would be allocated on each call. *)

(* [text.[at+k ..]] and [name.[k ..]] agree up to [len] bytes, the text
   upper-cased first when [upper] holds. *)
let rec equal_from ~upper text at name k len =
  k = len
  || (let c = String.unsafe_get text (at + k) in
      (if upper then Char.uppercase_ascii c else c) = String.unsafe_get name k)
     && equal_from ~upper text at name (k + 1) len

(* [text.[at .. at+len-1]], upper-cased, equals [word]. *)
let upper_equals text at len word =
  len = String.length word && equal_from ~upper:true text at word 0 len

let rec op_from text at len i =
  if i = Array.length op_names then Unknown
  else
    let word, op = op_names.(i) in
    if upper_equals text at len word then op else op_from text at len (i + 1)

let op_of text at len = op_from text at len 0

let hash text at len =
  let h = ref 0x811c9dc5 in
  for i = at to at + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get text i)) * 0x01000193
  done;
  !h land max_int

let same_name name text at len =
  String.length name = len && equal_from ~upper:false text at name 0 len

let rec probe st text at len mask i =
  let s = st.slots.(i) - 1 in
  if s < 0 || same_name st.names.(s) text at len then i
  else probe st text at len mask ((i + 1) land mask)

(* The slot holding [text.[at .. at+len-1]]'s symbol, or the empty slot
   where it belongs. *)
let slot st text at len =
  let mask = Array.length st.slots - 1 in
  probe st text at len mask (hash text at len land mask)

let find st name =
  let s = st.slots.(slot st name 0 (String.length name)) - 1 in
  if s < 0 then None else Some s

let grow_symbols st =
  let n = 2 * Array.length st.names in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 st.count;
    b
  in
  st.names <- extend st.names "";
  st.input_line <- extend st.input_line 0;
  st.def_line <- extend st.def_line 0;
  st.def_op <- extend st.def_op Unknown;
  st.def_op_at <- extend st.def_op_at 0;
  st.def_op_len <- extend st.def_op_len 0;
  st.def_args <- extend st.def_args 0;
  st.def_arity <- extend st.def_arity 0;
  st.node <- extend st.node unbuilt;
  st.slots <- Array.make (2 * Array.length st.slots) 0;
  for s = 0 to st.count - 1 do
    let name = st.names.(s) in
    st.slots.(slot st name 0 (String.length name)) <- s + 1
  done

(* The symbol of [text.[at .. at+len-1]], interned on first sight. *)
let intern st at len =
  let i = slot st st.text at len in
  let s = st.slots.(i) - 1 in
  if s >= 0 then s
  else begin
    let s = st.count in
    st.names.(s) <- String.sub st.text at len;
    st.slots.(i) <- s + 1;
    st.count <- s + 1;
    if 2 * st.count > Array.length st.slots || st.count = Array.length st.names
    then grow_symbols st;
    s
  end

let create text =
  (* a line has at most one more operand than it has commas, so [args]
     never grows; the symbol arrays start at a name per line and grow
     when names outnumber lines *)
  let lines = ref 1 and commas = ref 0 in
  for i = 0 to String.length text - 1 do
    match String.unsafe_get text i with
    | '\n' -> incr lines
    | ',' -> incr commas
    | _ -> ()
  done;
  let n = !lines + 16 in
  let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
  {
    text;
    slots = Array.make (pow2 64) 0;
    count = 0;
    names = Array.make n "";
    input_line = Array.make n 0;
    def_line = Array.make n 0;
    def_op = Array.make n Unknown;
    def_op_at = Array.make n 0;
    def_op_len = Array.make n 0;
    def_args = Array.make n 0;
    def_arity = Array.make n 0;
    node = Array.make n unbuilt;
    args = Array.make (!lines + !commas) 0;
    nargs = 0;
    inputs = Vec.create ~dummy:0;
    outputs = Vec.create ~dummy:0;
    def_order = Vec.create ~dummy:0;
  }

(* Intern the trimmed, non-empty pieces between the commas of
   [text.[at .. rparen-1]] into [args]. *)
let rec operands st text at rparen =
  let comma = index_in text ',' at rparen in
  let stop = if comma < 0 then rparen else comma in
  let ps = skip_space text at stop in
  let pe = back_space text ps stop in
  if ps < pe then begin
    st.args.(st.nargs) <- intern st ps (pe - ps);
    st.nargs <- st.nargs + 1
  end;
  if comma >= 0 then operands st text (comma + 1) rparen

let port vec s ~line =
  ignore (Vec.push vec s);
  ignore (Vec.push vec line)

(* One line, [text.[at .. stop-1]] without its newline: an INPUT, an
   OUTPUT, a gate, or nothing (blank or a comment). Raises {!Parse_error}
   before it records anything, so [lint] can skip a bad line. Messages
   quote the trimmed line. *)
let scan_line st ~line at stop =
  let text = st.text in
  let ts = skip_space text at stop in
  let te = back_space text ts stop in
  if ts < te && text.[ts] <> '#' then begin
    let lparen = index_in text '(' ts te in
    if lparen < 0 then fail line "expected '(' in %S" (String.sub text ts (te - ts));
    let rparen = rindex_in text ')' ts te in
    if rparen <= lparen then
      fail line "expected ')' in %S" (String.sub text ts (te - ts));
    let first = st.nargs in
    operands st text (lparen + 1) rparen;
    let arity = st.nargs - first in
    let eq = index_in text '=' ts te in
    if eq < 0 then begin
      let ks = skip_space text ts lparen in
      let ke = back_space text ks lparen in
      if arity = 1 && upper_equals text ks (ke - ks) "INPUT" then begin
        let s = st.args.(first) in
        if st.input_line.(s) = 0 then st.input_line.(s) <- line;
        port st.inputs s ~line
      end
      else if arity = 1 && upper_equals text ks (ke - ks) "OUTPUT" then
        port st.outputs st.args.(first) ~line
      else
        fail line "expected INPUT(x) or OUTPUT(x), got %S"
          (String.sub text ts (te - ts))
    end
    else begin
      if eq > lparen then
        fail line "misplaced '=' after '(' in %S" (String.sub text ts (te - ts));
      let ns = skip_space text ts eq in
      let ne = back_space text ns eq in
      let os = skip_space text (eq + 1) lparen in
      let oe = back_space text os lparen in
      if ns = ne then
        fail line "missing gate name in %S" (String.sub text ts (te - ts));
      if arity = 0 then
        fail line "gate %S has no operands" (String.sub text ns (ne - ns));
      let s = intern st ns (ne - ns) in
      if st.def_line.(s) > 0 then
        fail ~code:"CIRC002" line "duplicate definition of %S (multiply-driven net)"
          st.names.(s);
      st.def_line.(s) <- line;
      st.def_op.(s) <- op_of text os (oe - os);
      st.def_op_at.(s) <- os;
      st.def_op_len.(s) <- oe - os;
      st.def_args.(s) <- first;
      st.def_arity.(s) <- arity;
      ignore (Vec.push st.def_order s)
    end
  end

let rec scan_lines st ~on_error ~line at =
  let text = st.text in
  let nl = index_in text '\n' at (String.length text) in
  let stop = if nl < 0 then String.length text else nl in
  (match scan_line st ~line at stop with
  | () -> ()
  | exception (Parse_error _ as e) -> on_error e);
  if nl >= 0 then scan_lines st ~on_error ~line:(line + 1) (nl + 1)

(* Scan every line. A bad line raises {!Parse_error}, which [on_error]
   re-raises ([of_string]) or records ([lint], which goes on). *)
let scan ~on_error text =
  let st = create text in
  scan_lines st ~on_error ~line:1 0;
  st

let op_text st s =
  String.uppercase_ascii (String.sub st.text st.def_op_at.(s) st.def_op_len.(s))

let defined st s = st.input_line.(s) > 0 || st.def_line.(s) > 0

(* (symbol, line) pairs of [vec], in file order. *)
let iter_ports vec f =
  for i = 0 to (Vec.length vec / 2) - 1 do
    f (Vec.get vec (2 * i)) (Vec.get vec ((2 * i) + 1))
  done

(* ---- mapping onto library cells -------------------------------------- *)

let operand_id st s k = st.node.(st.args.(st.def_args.(s) + k))

(* The circuit ids of gate [s]'s operands [0 .. k], ahead of [acc]. *)
let rec operand_ids st s k acc =
  if k < 0 then acc else operand_ids st s (k - 1) (operand_id st s k :: acc)

let instantiate st bld s =
  let name = st.names.(s) and n = st.def_arity.(s) in
  match (st.def_op.(s), n) with
  | Not, 1 -> Build.not_ ~name bld (operand_id st s 0)
  | Buf, 1 -> Build.buf ~name bld (operand_id st s 0)
  | And, n when n >= 2 -> Build.and_ ~name bld (operand_ids st s (n - 1) [])
  | Or, n when n >= 2 -> Build.or_ ~name bld (operand_ids st s (n - 1) [])
  | Nand, n when n >= 2 -> Build.nand ~name bld (operand_ids st s (n - 1) [])
  | Nor, n when n >= 2 -> Build.nor ~name bld (operand_ids st s (n - 1) [])
  | Xor, n when n >= 2 -> Build.xor ~name bld (operand_ids st s (n - 1) [])
  | Xnor, 2 -> Build.xnor2 ~name bld (operand_id st s 0) (operand_id st s 1)
  | Xnor, n when n > 2 ->
      Build.not_ ~name bld (Build.xor bld (operand_ids st s (n - 1) []))
  | Aoi21, 3 ->
      Build.aoi21 ~name bld (operand_id st s 0) (operand_id st s 1)
        (operand_id st s 2)
  | Oai21, 3 ->
      Build.oai21 ~name bld (operand_id st s 0) (operand_id st s 1)
        (operand_id st s 2)
  | Mux2, 3 ->
      Build.mux2 ~name bld ~sel:(operand_id st s 2) ~a:(operand_id st s 0)
        ~b:(operand_id st s 1)
  | _, n ->
      fail ~code:"BENCH002" st.def_line.(s) "unsupported gate %s/%d for %S"
        (op_text st s) n name

(* Dependency-ordered instantiation (definitions may be out of order):
   operands first, left to right, then the gate itself. *)
let rec resolve st bld s ~line =
  let id = st.node.(s) in
  if id >= 0 then id
  else if st.def_line.(s) = 0 then
    fail ~code:"CIRC003" line "reference to undefined signal %S" st.names.(s)
  else if id = resolving then
    fail ~code:"CIRC001" st.def_line.(s) "combinational cycle through %S"
      st.names.(s)
  else begin
    st.node.(s) <- resolving;
    let first = st.def_args.(s) in
    for k = 0 to st.def_arity.(s) - 1 do
      ignore (resolve st bld st.args.(first + k) ~line:st.def_line.(s))
    done;
    let id = instantiate st bld s in
    st.node.(s) <- id;
    id
  end

(* The file line a structural finding points at: its gate's definition;
   0 for a finding about the whole circuit. *)
let line_of st (d : Diag.t) =
  match d.location with
  | Diag.Gate name | Diag.Net name -> (
      match find st name with
      | Some s -> if st.def_line.(s) > 0 then st.def_line.(s) else st.input_line.(s)
      | None -> 0)
  | _ -> 0

(* The INPUT on [line] names a gate too, or repeats an earlier INPUT:
   either way its node would be driven twice. *)
let check_input st s ~line =
  if st.def_line.(s) > 0 then
    fail ~code:"CIRC002" line "node %S is both INPUT and a gate (multiply-driven)"
      st.names.(s);
  if st.input_line.(s) <> line then
    fail ~code:"CIRC002" line "INPUT %S repeated (first at line %d)" st.names.(s)
      st.input_line.(s)

let of_string ?(name = "bench") ?(validate = true) ~lib text =
  let st = scan ~on_error:raise text in
  let reserved name =
    match find st name with Some s -> defined st s | None -> false
  in
  let bld = Build.create ~lib ~name ~reserved () in
  iter_ports st.inputs (fun s line ->
      check_input st s ~line;
      st.node.(s) <- Build.input bld ~name:st.names.(s));
  for i = 0 to Vec.length st.def_order - 1 do
    ignore (resolve st bld (Vec.get st.def_order i) ~line:0)
  done;
  let circuit = Build.circuit bld in
  iter_ports st.outputs (fun s line ->
      Circuit.mark_output circuit (resolve st bld s ~line));
  if validate then begin
    match Circuit.validate_diag circuit with
    | [] -> ()
    | d :: _ ->
        raise (Parse_error { line = line_of st d; code = d.code; message = d.message })
  end;
  circuit

(* ---- permissive diagnostic pass ----------------------------------------

   [of_string] is fail-fast: the first problem raises. The lint front end
   wants every problem in the file at once, with file:line positions, so
   [lint] runs the same scanner but records a bad line as a diagnostic and
   skips it, then checks references, operators and cycles over the
   surviving definitions without instantiating any gates. *)

(* `Ok | `Unknown | `Bad_arity mirror exactly what [instantiate] accepts. *)
let op_support op ~arity =
  match op with
  | Not | Buf -> if arity = 1 then `Ok else `Bad_arity
  | And | Or | Nand | Nor | Xor | Xnor -> if arity >= 2 then `Ok else `Bad_arity
  | Aoi21 | Oai21 | Mux2 -> if arity = 3 then `Ok else `Bad_arity
  | Unknown -> `Unknown

let lint ?(file = "<bench>") text =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let loc line = Diag.File { file; line } in
  let record = function
    | Parse_error { line; code; message } ->
        add (Diag.make ~code ~severity:Diag.Severity.Error ~loc:(loc line) message)
    | e -> raise e
  in
  let st = scan text ~on_error:record in
  iter_ports st.inputs (fun s line ->
      try check_input st s ~line with e -> record e);
  Vec.iter st.def_order ~f:(fun s ->
      let name = st.names.(s) and line = st.def_line.(s) in
      let arity = st.def_arity.(s) in
      (match op_support st.def_op.(s) ~arity with
      | `Ok -> ()
      | `Unknown ->
          add
            (Diag.errorf ~code:"BENCH002" ~loc:(loc line)
               "unsupported gate %s for %S" (op_text st s) name)
      | `Bad_arity ->
          add
            (Diag.errorf ~code:"BENCH002" ~loc:(loc line)
               "unsupported gate %s/%d for %S" (op_text st s) arity name));
      for k = 0 to arity - 1 do
        let a = st.args.(st.def_args.(s) + k) in
        if not (defined st a) then
          add
            (Diag.errorf ~code:"CIRC003" ~loc:(loc line)
               "reference to undefined signal %S" st.names.(a))
      done);
  iter_ports st.outputs (fun s line ->
      if not (defined st s) then
        add
          (Diag.errorf ~code:"CIRC003" ~loc:(loc line)
             "OUTPUT references undefined signal %S" st.names.(s)));
  (* Cycle detection over the definitions (no instantiation): an operand
     on the depth-first path is a back edge — one diagnostic per back
     edge. *)
  let rec dfs s =
    if st.node.(s) = unbuilt && st.def_line.(s) > 0 then begin
      st.node.(s) <- resolving;
      for k = 0 to st.def_arity.(s) - 1 do
        let a = st.args.(st.def_args.(s) + k) in
        if st.node.(a) = resolving then
          add
            (Diag.errorf ~code:"CIRC001" ~loc:(loc st.def_line.(s))
               "combinational cycle through %S" st.names.(a))
        else dfs a
      done;
      st.node.(s) <- done_
    end
  in
  Vec.iter st.def_order ~f:dfs;
  Diag.sort !diags

let lint_file ~path =
  let text = In_channel.with_open_text path In_channel.input_all in
  lint ~file:path text

let load ?name ?validate ~lib ~path () =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ?name ?validate ~lib (In_channel.input_all ic))

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s — emitted by statsize\n" (Circuit.name t));
  List.iter
    (fun id ->
      Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Circuit.node_name t id)))
    (Circuit.inputs t);
  List.iter
    (fun id ->
      Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Circuit.node_name t id)))
    (Circuit.outputs t);
  List.iter
    (fun id ->
      match Circuit.cell t id with
      | None -> ()
      | Some cell ->
          let args =
            Circuit.fanins t id |> Array.to_list
            |> List.map (Circuit.node_name t)
            |> String.concat ", "
          in
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s)\n" (Circuit.node_name t id)
               (Cells.Fn.name (Cells.Cell.fn cell))
               args))
    (Circuit.topological t);
  Buffer.contents buf

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
