(* Obs.Json's reader as it was before its strings were decoded by
   blitting the runs between escapes and [peek] stopped allocating, kept
   verbatim as the oracle the shipped reader is checked against
   (test_obs's oracle group): same value, or the same message at the same
   byte offset. *)

type t = Obs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad = Obs.Json.Bad

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                  let cp = hex4 () in
                  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                  else if cp < 0x800 then begin
                    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                  end
                  else begin
                    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                    Buffer.add_char b
                      (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                  end
              | _ -> fail "bad escape character");
              go ())
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let consume_digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            seen := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> consume_digits ()
    | _ -> fail "expected digit");
    if peek () = Some '.' then begin
      advance ();
      consume_digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        consume_digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
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
            match peek () with
            | Some ',' ->
                advance ();
                member ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          member ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                item ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v
