(* statobs (lib/obs): deterministic counters, span tracing, the disabled-path
   contract, and Domain-safety of the atomic counters. *)

open Test_util

(* Test-local counters, registered once at module load like production
   call sites do. *)
let c_test = Obs.Counters.make "test.obs.bump"
let c_domains = Obs.Counters.make "test.obs.domains"

(* Every test must leave the sink disabled and empty — the rest of the
   suite (and the bench) assumes a quiet default. *)
let scoped f =
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.reset ())
    f

(* The fixed workload of the determinism test: analysis of c432, same spirit
   as the CI-gated bench section. *)
let workload () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
  let _ = Core.Initial_sizing.apply ~lib c in
  let full = Ssta.Fullssta.run c in
  ignore (Ssta.Fullssta.output_moments full);
  let moments = Ssta.Fassta.run c in
  ignore (Ssta.Fassta.output_moments c moments)

let test_counters_deterministic () =
  let run () =
    Obs.Sink.reset ();
    Obs.Sink.enable ();
    workload ();
    Obs.Sink.disable ();
    Obs.Counters.dump ()
  in
  let first = run () in
  let second = run () in
  Obs.Sink.reset ();
  check_true "some counter fired" (List.exists (fun (_, v) -> v > 0) first);
  Alcotest.(check (list (pair string int)))
    "two identical runs produce identical counter dumps" first second

let test_disabled_counters_stay_zero () =
  Obs.Sink.reset ();
  check_true "sink disabled by default" (not (Obs.Sink.enabled ()));
  for _ = 1 to 1000 do
    Obs.Counters.bump c_test;
    Obs.Counters.add c_test 5
  done;
  check_int "disabled bumps record nothing" 0 (Obs.Counters.read c_test)

let test_disabled_path_allocates_nothing () =
  Obs.Sink.reset ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Counters.bump c_test
  done;
  let delta = Gc.minor_words () -. before in
  (* the loop itself allocates nothing; leave slack for the Gc probe *)
  check_true
    (Printf.sprintf "100k disabled bumps allocate ~nothing (%.0f words)" delta)
    (delta < 256.0)

let test_span_nesting_and_balance () =
  scoped (fun () ->
      Obs.Span.with_ "outer" (fun () ->
          Obs.Span.with_ "inner" (fun () -> check_int "depth" 2 (Obs.Span.depth ())));
      check_int "depth restored" 0 (Obs.Span.depth ());
      let events = Obs.Span.events () in
      check_int "four events" 4 (List.length events);
      (* balanced B/E per tid, and timestamps non-decreasing *)
      let stack = Hashtbl.create 4 in
      let last = ref neg_infinity in
      List.iter
        (fun (e : Obs.Span.event) ->
          check_true "monotonic ts" (e.ts_us >= !last);
          last := e.ts_us;
          let s = try Hashtbl.find stack e.tid with Not_found -> [] in
          if e.enter then Hashtbl.replace stack e.tid (e.name :: s)
          else
            match s with
            | top :: rest when String.equal top e.name ->
                Hashtbl.replace stack e.tid rest
            | _ -> Alcotest.failf "unbalanced end event %s" e.name)
        events;
      Hashtbl.iter
        (fun _ s -> check_true "all spans closed" (s = []))
        stack)

let test_span_exception_safety () =
  scoped (fun () ->
      (try
         Obs.Span.with_ "outer" (fun () ->
             Obs.Span.with_ "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      check_int "depth restored after exception" 0 (Obs.Span.depth ());
      let events = Obs.Span.events () in
      check_int "all four events recorded" 4 (List.length events);
      let enters = List.filter (fun (e : Obs.Span.event) -> e.enter) events in
      check_int "balanced" (List.length events) (2 * List.length enters))

let test_exports_parse () =
  scoped (fun () ->
      Obs.Counters.bump c_test;
      Obs.Span.with_ "export.span" (fun () -> ());
      let metrics = Obs.Sink.metrics_json () in
      let trace = Obs.Sink.trace_json () in
      (match Obs.Json.parse_result metrics with
      | Error (msg, at) -> Alcotest.failf "metrics JSON bad at %d: %s" at msg
      | Ok v -> (
          check_true "schema tag"
            (Obs.Json.member "schema" v = Some (Obs.Json.Str "statobs/1"));
          match Obs.Json.member "counters" v with
          | Some (Obs.Json.Obj kvs) ->
              check_true "test counter exported"
                (List.assoc_opt "test.obs.bump" kvs = Some (Obs.Json.Num 1.0))
          | _ -> Alcotest.fail "no counters object"));
      match Obs.Json.parse_result trace with
      | Error (msg, at) -> Alcotest.failf "trace JSON bad at %d: %s" at msg
      | Ok v -> (
          match Obs.Json.member "traceEvents" v with
          | Some (Obs.Json.Arr evs) ->
              check_int "B and E" 2 (List.length evs);
              List.iter
                (fun e ->
                  check_true "has ph" (Obs.Json.member "ph" e <> None);
                  check_true "has ts" (Obs.Json.member "ts" e <> None))
                evs
          | _ -> Alcotest.fail "no traceEvents array"))

(* A span name that needs escaping comes back by that name from both
   exports: names go through Obs.Json's writer. *)
let test_exports_escape_names () =
  let name = "a\"b\nc" in
  scoped (fun () ->
      Obs.Span.with_ name (fun () -> ());
      (match
         Obs.Json.member "spans" (Obs.Json.parse_exn (Obs.Sink.metrics_json ()))
       with
      | Some (Obs.Json.Arr [ span ]) ->
          check_true "metrics span name"
            (Obs.Json.member "name" span = Some (Obs.Json.Str name))
      | _ -> Alcotest.fail "expected one span summary");
      match
        Obs.Json.member "traceEvents"
          (Obs.Json.parse_exn (Obs.Sink.trace_json ()))
      with
      | Some (Obs.Json.Arr evs) ->
          check_int "B and E" 2 (List.length evs);
          List.iter
            (fun e ->
              check_true "trace event name"
                (Obs.Json.member "name" e = Some (Obs.Json.Str name)))
            evs
      | _ -> Alcotest.fail "no traceEvents array")

(* ---- the JSON codec ---------------------------------------------------- *)

let test_to_string_golden () =
  let open Obs.Json in
  let bytes what expected v = Alcotest.(check string) what expected (to_string v) in
  bytes "quote" {|"\""|} (Str "\"");
  bytes "backslash" {|"\\"|} (Str "\\");
  bytes "newline" {|"\n"|} (Str "\n");
  bytes "carriage return" {|"\r"|} (Str "\r");
  bytes "tab" {|"\t"|} (Str "\t");
  bytes "other bytes below 0x20" {|"\u0000\u0001\u0008\u000c\u001f"|}
    (Str "\000\001\b\012\031");
  bytes "bytes at or above 0x80 raw" "\"\xc3\xa9\x7f\x80\xff/\"" (Str "\xc3\xa9\x7f\x80\xff/");
  bytes "keys escape too" {|{"a\"b":1}|} (Obj [ ("a\"b", Num 1.0) ]);
  bytes "integer-valued" "3" (Num 3.0);
  bytes "1e15" "1000000000000000" (Num 1e15);
  bytes "just below 1e15" "999999999999999" (Num 999999999999999.0);
  bytes "negative zero" "-0" (Num (-0.0));
  bytes "0.1" "0.10000000000000001" (Num 0.1);
  bytes "large" "1.0000000000000001e+300" (Num 1e300);
  bytes "NaN" "null" (Num Float.nan);
  bytes "infinity" "null" (Num Float.infinity);
  bytes "minus infinity" "null" (Num Float.neg_infinity);
  bytes "literals" "[null,true,false]" (Arr [ Null; Bool true; Bool false ]);
  bytes "empty array" "[]" (Arr []);
  bytes "empty object" "{}" (Obj []);
  bytes "nested" {|{"a":[1,[],{}],"b":{"c":[[-2.5]],"d":{}}}|}
    (Obj
       [
         ("a", Arr [ Num 1.0; Arr []; Obj [] ]);
         ("b", Obj [ ("c", Arr [ Arr [ Num (-2.5) ] ]); ("d", Obj []) ]);
       ])

(* Finite numbers from every branch of the writer: integer-valued ones on
   both sides of 1e15, signed zeros, subnormals and the extremes. *)
let gen_finite =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun f -> if Float.is_finite f then f else 0.5) float);
        (2, map float_of_int int);
        ( 1,
          oneofl
            [ 0.0; -0.0; 1e15; -1e15; 999999999999999.0; 1e16 +. 2.0;
              5e-324; Float.min_float; Float.max_float; -.Float.max_float;
              0.1 ] );
      ])

let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 6) in
  let leaf =
    frequency
      [
        (1, return Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        (3, map (fun f -> Obs.Json.Num f) gen_finite);
        (3, map (fun s -> Obs.Json.Str s) bytes);
      ]
  in
  sized_size (int_range 0 24)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 1,
                 map
                   (fun xs -> Obs.Json.Arr xs)
                   (list_size (int_range 0 4) (self (n / 3))) );
               ( 1,
                 map
                   (fun kvs -> Obs.Json.Obj kvs)
                   (list_size (int_range 0 4) (pair bytes (self (n / 3)))) );
             ])

(* Structural equality with numbers compared bit for bit. *)
let rec json_equal (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr xs, Arr ys -> List.equal json_equal xs ys
  | Obj xs, Obj ys ->
      List.equal
        (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
        xs ys
  | (Null | Bool _ | Str _), _ -> a = b
  | (Num _ | Arr _ | Obj _), _ -> false

let test_roundtrip =
  qcheck ~count:500 "parse_exn (to_string v) = v"
    (QCheck.make ~print:Obs.Json.to_string gen_json)
    (fun v -> json_equal (Obs.Json.parse_exn (Obs.Json.to_string v)) v)

(* ---- the reader against its old copy --------------------------------

   [Json_oracle] is the reader before strings were decoded by blitting the
   runs between escapes and [peek] stopped allocating, verbatim. On
   mutated documents, escape-heavy strings and random bytes, both give the
   same value or the same message at the same byte offset. *)

type parsed = Value of Obs.Json.t | Bad of string * int | Raised of string

let parsed_by parse text =
  match parse text with
  | v -> Value v
  | exception Obs.Json.Bad (m, at) -> Bad (m, at)
  | exception e -> Raised (Printexc.to_string e)

let show_parsed = function
  | Value v -> Obs.Json.to_string v
  | Bad (m, at) -> Printf.sprintf "Bad (%S, %d)" m at
  | Raised e -> "raised " ^ e

let agrees_with_oracle text =
  let old_p = parsed_by Json_oracle.parse_exn text in
  let new_p = parsed_by Obs.Json.parse_exn text in
  (match (old_p, new_p) with
  | Value a, Value b -> json_equal a b
  | Bad _, Bad _ -> old_p = new_p
  | _ -> false)
  || QCheck.Test.fail_reportf "old: %s\nnew: %s" (show_parsed old_p) (show_parsed new_p)

let json_bytes =
  [ '"'; '\\'; 'u'; '{'; '}'; '['; ']'; ','; ':'; '-'; '+'; '.'; 'e'; 'E'; '0';
    '7'; 'a'; 'F'; ' '; '\n'; '\001'; 't'; 'n'; 'f'; '\xe9' ]

(* A written document with bytes inserted, deleted or replaced, or cut. *)
let gen_mutated =
  let open QCheck.Gen in
  let edit =
    oneof
      [
        map2 (fun p c -> `Insert (p, c)) nat (oneofl json_bytes);
        map (fun p -> `Delete p) nat;
        map2 (fun p c -> `Replace (p, c)) nat (oneofl json_bytes);
        map (fun p -> `Cut p) nat;
      ]
  in
  map2
    (fun v edits ->
      List.fold_left
        (fun s e ->
          let n = String.length s in
          match e with
          | `Insert (p, c) ->
              let p = p mod (n + 1) in
              String.sub s 0 p ^ String.make 1 c ^ String.sub s p (n - p)
          | `Delete p when n > 0 ->
              let p = p mod n in
              String.sub s 0 p ^ String.sub s (p + 1) (n - p - 1)
          | `Replace (p, c) when n > 0 ->
              String.mapi (fun i x -> if i = p mod n then c else x) s
          | `Cut p -> String.sub s 0 (p mod (n + 1))
          | `Delete _ | `Replace _ -> s)
        (Obs.Json.to_string v) edits)
    gen_json
    (list_size (int_range 1 3) edit)

(* One string made of escapes, good and bad, and raw bytes. *)
let gen_escapes =
  QCheck.Gen.(
    map2
      (fun parts close -> "\"" ^ String.concat "" parts ^ if close then "\"" else "")
      (list_size (int_bound 12)
         (oneofl
            [ "ab"; "\\n"; "\\t"; "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\r";
              "\\u0041"; "\\u00e9"; "\\u20AC"; "\\ud83d"; "\\u12"; "\\uZZ00";
              "\\x"; "\\"; "\001"; "\xc3\xa9"; " " ]))
      bool)

let test_oracle_mutated =
  qcheck ~count:1000 "mutated documents: same value or error"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    agrees_with_oracle

let test_oracle_escapes =
  qcheck ~count:1000 "escaped strings: same value or error"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_escapes)
    agrees_with_oracle

let test_oracle_bytes =
  qcheck ~count:1000 "random bytes: same value or error"
    QCheck.(string_gen_of_size Gen.(int_bound 64) Gen.char)
    agrees_with_oracle

(* Multi-domain exactness. On a 1-core box the scheduler gives no real
   parallelism, so the race these tests pin down cannot be exercised —
   note it and pass rather than fail. *)
let multicore () = Domain.recommended_domain_count () > 1

let test_counters_domain_safe () =
  if not (multicore ()) then
    prerr_endline "test_obs: single core, domain hammer not exercised"
  else
    scoped (fun () ->
        let per_domain = 100_000 in
        let hammer () =
          for _ = 1 to per_domain do
            Obs.Counters.bump c_domains
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn hammer) in
        List.iter Domain.join domains;
        check_int "4 x 100k bumps, exact" (4 * per_domain)
          (Obs.Counters.read c_domains))

let test_lut_oob_domain_safe () =
  (* Sequential exactness always runs... *)
  let lut =
    Numerics.Lut.create ~rows:[| 0.0; 1.0 |] ~cols:[| 0.0; 1.0 |]
      ~values:[| [| 0.0; 1.0 |]; [| 1.0; 2.0 |] |]
  in
  for _ = 1 to 10 do
    ignore (Numerics.Lut.query lut ~row:5.0 ~col:5.0)
  done;
  check_int "sequential oob count exact" 10 (Numerics.Lut.oob_count lut);
  Numerics.Lut.reset_oob lut;
  check_int "reset" 0 (Numerics.Lut.oob_count lut);
  (* ...the concurrent hammer only where there is real parallelism. *)
  if not (multicore ()) then
    prerr_endline "test_obs: single core, LUT oob hammer not exercised"
  else begin
    let per_domain = 50_000 in
    let hammer () =
      for _ = 1 to per_domain do
        ignore (Numerics.Lut.query lut ~row:9.0 ~col:9.0)
      done
    in
    let domains = List.init 4 (fun _ -> Domain.spawn hammer) in
    List.iter Domain.join domains;
    check_int "4 domains x 50k oob queries, exact" (4 * per_domain)
      (Numerics.Lut.oob_count lut)
  end

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "deterministic across runs" `Slow
            test_counters_deterministic;
          Alcotest.test_case "disabled counters stay zero" `Quick
            test_disabled_counters_stay_zero;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_allocates_nothing;
          Alcotest.test_case "domain-safe totals" `Quick
            test_counters_domain_safe;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and balance" `Quick
            test_span_nesting_and_balance;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "exports parse" `Quick test_exports_parse;
          Alcotest.test_case "exports escape names" `Quick
            test_exports_escape_names;
        ] );
      ( "json",
        [
          Alcotest.test_case "to_string golden bytes" `Quick
            test_to_string_golden;
          test_roundtrip;
          test_oracle_mutated;
          test_oracle_escapes;
          test_oracle_bytes;
        ] );
      ( "lut",
        [
          Alcotest.test_case "oob counter domain-safe" `Quick
            test_lut_oob_domain_safe;
        ] );
    ]
