(* The one JSON module: escaping, number rendering, the two layouts, and
   the STATS [certified] probe that relies on its member rendering. *)

module Json = Ooser_sim.Json
module Stats = Ooser_sim.Stats
module Metrics = Ooser_server.Metrics
module Server = Ooser_server.Server
module Loadgen = Ooser_server.Loadgen

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* -- a small reader, enough to read back what the printer emits ------------ *)

exception Bad of int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail () = raise (Bad !pos) in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail () in
  let word w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then (
      pos := !pos + String.length w;
      v)
    else fail ()
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          let c = peek () in
          incr pos;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              if code > 0xff then fail ();
              Buffer.add_char b (Char.chr code);
              pos := !pos + 4
          | _ -> fail ());
          go ()
      | c when Char.code c < 0x20 -> fail ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while peek () >= '0' && peek () <= '9' do incr pos done;
      if !pos = d then fail ()
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    let frac = peek () = '.' in
    if frac then (incr pos; digits ());
    let exp = peek () = 'e' || peek () = 'E' in
    if exp then (
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ());
    let text = String.sub s start (!pos - start) in
    if frac || exp then Json.Float (float_of_string text)
    else Json.Int (int_of_string text)
  in
  let rec value () =
    ws ();
    let v =
      match peek () with
      | 'n' -> word "null" Json.Null
      | 't' -> word "true" (Json.Bool true)
      | 'f' -> word "false" (Json.Bool false)
      | '"' -> Json.String (string ())
      | '[' ->
          incr pos;
          Json.List (items ']' value)
      | '{' ->
          incr pos;
          Json.Obj
            (items '}' (fun () ->
                 ws ();
                 let k = string () in
                 ws ();
                 expect ':';
                 (k, value ())))
      | _ -> number ()
    in
    ws ();
    v
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if peek () = close then (
      incr pos;
      [])
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' ->
            incr pos;
            go acc
        | c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail ()
      in
      go []
  in
  let v = value () in
  if !pos <> n then fail ();
  v

(* -- tests ----------------------------------------------------------------- *)

let test_escaping () =
  check_string "quote, backslash, short and \\u escapes"
    {|"a\"b\\c\nd\re\tf\u0001\u001f"|}
    (Json.quote "a\"b\\c\nd\re\tf\001\031");
  check_string "bytes >= 0x80 pass through" "\"caf\xc3\xa9 \xff\""
    (Json.quote "caf\xc3\xa9 \xff");
  check_string "keys escaped too" {|{"k\"": "\\"}|}
    (Json.compact (Json.Obj [ ("k\"", Json.String "\\") ]))

let test_numbers () =
  let show f = Json.compact (Json.Float f) in
  List.iter
    (fun f -> check_string (Printf.sprintf "%h is null" f) "null" (show f))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_string "1.0 keeps a fraction" "1.0" (show 1.0);
  check_string "negative zero" "-0.0" (show (-0.0));
  check_string "shortest digits" "0.1" (show 0.1);
  List.iter
    (fun f ->
      let s = show f in
      check_bool (s ^ " does not end in '.'") false
        (s.[String.length s - 1] = '.');
      check_bool (s ^ " reads back as the same float") true
        (parse s = Json.Float f))
    [ 1.0; 1e-9; 1e21; 0.1; 123.456; -2.5e-300; 1.7976931348623157e308; 1e15 ];
  check_string "ints print bare" "-42" (Json.compact (Json.Int (-42)))

let sample =
  Json.(
    Obj
      [ "s", String "x\n\"y\""; "n", Null; "b", Bool false; "i", Int 7;
        "f", Float 0.25; "empty", List []; "none", Obj [];
        "flat", Obj [ "p50", Float 1e-9; "count", Int 3 ];
        ( "nested",
          List
            [ Obj [ "kind", String "unsafe"; "witness", List [ Int 1; Int 2 ] ];
              Int 3 ] ) ])

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at p = p + k <= n && (String.sub s p k = sub || at (p + 1)) in
  at 0

let test_layouts () =
  let c = Json.compact sample and i = Json.indented sample in
  check_bool "compact is one line" false (String.contains c '\n');
  check_bool "indented breaks nested containers" true (String.contains i '\n');
  check_bool "compact reads back" true (parse c = sample);
  check_bool "indented reads back to the same value" true (parse i = sample);
  check_bool "a flat object stays on one line" true
    (List.mem {|  "flat": {"p50": 1e-09, "count": 3},|}
       (String.split_on_char '\n' i));
  check_string "a flat top level still breaks" "{\n  \"a\": 1\n}"
    (Json.indented (Json.Obj [ ("a", Json.Int 1) ]));
  check_string "empty containers" "[]" (Json.indented (Json.List []));
  let m = Json.member "i" (Json.Int 7) in
  check_string "member text" {|"i": 7|} m;
  check_bool "member in compact" true (contains c m);
  check_bool "member in indented" true (contains i m)

let test_histogram_shape () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 0.001; 0.002; 0.004 ];
  match Stats.Histogram.to_json h with
  | Json.Obj kvs ->
      Alcotest.(check (list string)) "histogram keys"
        [ "count"; "mean"; "p50"; "p95"; "p99"; "max" ]
        (List.map fst kvs);
      check_bool "count" true (List.assoc "count" kvs = Json.Int 3)
  | _ -> Alcotest.fail "histogram is not an object"

let test_certified_probe () =
  let m = Metrics.create ~now:0.0 () in
  let probe label expect certified =
    Alcotest.(check (option bool)) label expect
      (Loadgen.certified_of_stats
         (Json.indented
            (Metrics.to_json m ~now:1.0 ~engine:[ ("commits", 1) ] ~certified)))
  in
  probe "Metrics true" (Some true) (Some true);
  probe "Metrics false" (Some false) (Some false);
  probe "Metrics null" None None;
  let sock = Filename.temp_file "oosdb_json" ".sock" in
  Sys.remove sock;
  let srv = Server.create (Server.default_config (Server.Unix_sock sock)) in
  Fun.protect
    ~finally:(fun () -> Server.close srv)
    (fun () ->
      let verdict ?certified () =
        Loadgen.certified_of_stats (Server.stats_json ?certified srv)
      in
      Alcotest.(check (option bool))
        "stats_json of an empty history" (Some true) (verdict ());
      Alcotest.(check (option bool))
        "stats_json with a passed-in verdict" (Some false)
        (verdict ~certified:(Some false) ()))

let suites =
  [
    ( "json",
      [
        Alcotest.test_case "string escaping" `Quick test_escaping;
        Alcotest.test_case "number rendering" `Quick test_numbers;
        Alcotest.test_case "compact and indented layouts" `Quick test_layouts;
        Alcotest.test_case "histogram shape" `Quick test_histogram_shape;
        Alcotest.test_case "loadgen certified probe" `Quick
          test_certified_probe;
      ] );
  ]
