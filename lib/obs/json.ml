(* The project's one JSON codec, hand-rolled because the toolchain ships no
   JSON library. The reader covers RFC 8259 except surrogate-pair
   recombination — escaped non-BMP characters decode as two replacement
   bytes, which the writer never produces. The writer is compact and
   single-line: serve/1 responses, lint and certification reports, statobs
   exports and the bench records all go through it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string * int

(* One pass by index over the text. Nothing is allocated per byte: a
   string is decoded by first finding its closing quote and its decoded
   length (raising any error where a byte-at-a-time decoder would), then
   blitting the runs between escapes into one buffer of that length. *)
let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let is_digit c = c >= '0' && c <= '9' in
  let at_digit () = !pos < n && is_digit (String.unsafe_get s !pos) in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    let rec same k = k = l || (s.[!pos + k] = word.[k] && same (k + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d = hex_digit s.[!pos] in
      if d < 0 then fail "bad hex digit in \\u escape";
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_length cp = if cp < 0x80 then 1 else if cp < 0x800 then 2 else 3 in
  (* From inside a string to its closing quote (left at [pos]): the
     decoded length, [len] so far. *)
  let rec measure len =
    if !pos >= n then fail "unterminated string";
    match String.unsafe_get s !pos with
    | '"' -> len
    | '\\' -> (
        advance ();
        if !pos >= n then fail "unterminated escape";
        let c = String.unsafe_get s !pos in
        advance ();
        match c with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> measure (len + 1)
        | 'u' ->
            let cp = hex4 () in
            measure (len + utf8_length cp)
        | _ -> fail "bad escape character")
    | c when Char.code c < 0x20 -> fail "raw control character in string"
    | _ ->
        advance ();
        measure (len + 1)
  in
  (* The escaped body [s.[start .. stop-1]], already measured. *)
  let decode start stop len =
    let b = Bytes.create len in
    let rec run i o =
      if i < stop then begin
        let j = ref i in
        while !j < stop && String.unsafe_get s !j <> '\\' do
          incr j
        done;
        let j = !j in
        Bytes.blit_string s i b o (j - i);
        let o = o + (j - i) in
        if j < stop then
          match s.[j + 1] with
          | 'u' ->
              let cp = ref 0 in
              for k = j + 2 to j + 5 do
                cp := (!cp * 16) + hex_digit s.[k]
              done;
              let cp = !cp in
              if cp < 0x80 then Bytes.set b o (Char.chr cp)
              else if cp < 0x800 then begin
                Bytes.set b o (Char.chr (0xC0 lor (cp lsr 6)));
                Bytes.set b (o + 1) (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Bytes.set b o (Char.chr (0xE0 lor (cp lsr 12)));
                Bytes.set b (o + 1) (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Bytes.set b (o + 2) (Char.chr (0x80 lor (cp land 0x3F)))
              end;
              run (j + 6) (o + utf8_length cp)
          | c ->
              Bytes.set b o
                (match c with
                | 'b' -> '\b'
                | 'f' -> '\012'
                | 'n' -> '\n'
                | 'r' -> '\r'
                | 't' -> '\t'
                | c -> c (* '"', '\\' and '/' stand for themselves *));
              run (j + 2) (o + 1)
      end
    in
    run start 0;
    Bytes.unsafe_to_string b
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let len = measure 0 in
    let stop = !pos in
    advance ();
    (* every escape decodes shorter than it is written *)
    if len = stop - start then String.sub s start len else decode start stop len
  in
  let parse_number () =
    let start = !pos in
    let consume_digits () =
      let first = !pos in
      while at_digit () do
        advance ()
      done;
      if !pos = first then fail "expected digit"
    in
    if at '-' then advance ();
    if at '0' then advance ()
    else if at_digit () then consume_digits ()
    else fail "expected digit";
    if at '.' then begin
      advance ();
      consume_digits ()
    end;
    if at 'e' || at 'E' then begin
      advance ();
      if at '+' || at '-' then advance ();
      consume_digits ()
    end;
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (k, v) :: !members;
            skip_ws ();
            if at ',' then begin
              advance ();
              member ()
            end
            else if at '}' then advance ()
            else fail "expected ',' or '}'"
          in
          member ();
          Obj (List.rev !members)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            if at ',' then begin
              advance ();
              item ()
            end
            else if at ']' then advance ()
            else fail "expected ',' or ']'"
          in
          item ();
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> Num (parse_number ())
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v

let parse_result s =
  match parse_exn s with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (msg, at)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* ---- writer ---- *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* RFC 8259 has no NaN or infinity, so every non-finite number is null. *)
let add_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
  else Buffer.add_string b "null"

(* A fresh buffer per call and no module-level state: pool lanes encode
   responses concurrently. *)
let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> add_number b f
    | Str s -> add_quoted b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_quoted b k;
            Buffer.add_char b ':';
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b
