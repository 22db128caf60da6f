(* Unit tests for the Json module's trust-boundary guarantees (PR 8).

   Since pdbd, Json.parse consumes bytes straight off a Unix socket, so
   the strictness fixes get direct coverage here: exactly-4-hex-digit
   \uXXXX escapes, surrogate-pair combination, lone-surrogate rejection,
   accurate offsets for raw control characters, the nesting-depth guard,
   and the canonical printer the wire replies and goldens depend on. *)

module J = Pdt_util.Json

let ok (s : string) : J.t =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%S should parse, got: %s" s e

let str_of (s : string) : string =
  match ok s with J.Str v -> v | j -> Alcotest.failf "%S gave %s" s (J.to_string j)

let err (s : string) : string =
  match J.parse s with
  | Ok _ -> Alcotest.failf "%S should NOT parse" s
  | Error e -> e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------------- \uXXXX strictness ---------------- *)

let test_unicode_escape_basic () =
  Alcotest.(check string) "ASCII escape" "A" (str_of {|"\u0041"|});
  Alcotest.(check string) "two-byte UTF-8" "\xc3\xa9" (str_of {|"\u00e9"|});
  Alcotest.(check string) "three-byte UTF-8" "\xe2\x82\xac" (str_of {|"\u20ac"|});
  Alcotest.(check string) "NUL escape" "\x00" (str_of {|"\u0000"|});
  Alcotest.(check string) "uppercase hex" "\xe2\x82\xac" (str_of {|"\u20AC"|})

let test_unicode_escape_exactly_four_digits () =
  ignore (err {|"\u12"|});
  ignore (err {|"\u123"|});
  ignore (err {|"\u123g"|});
  (* int_of_string would happily take OCaml literal syntax; JSON must not *)
  ignore (err {|"\u1_23"|});
  ignore (err {|"\u+123"|});
  ignore (err {|"\u0x12"|});
  (* 4 good digits followed by another digit is fine — the extra is text *)
  Alcotest.(check string) "no greedy digits" "A5" (str_of {|"\u00415"|})

let test_surrogate_pairs () =
  (* U+1F600, the canonical astral example *)
  Alcotest.(check string) "astral pair combines" "\xf0\x9f\x98\x80"
    (str_of {|"\uD83D\uDE00"|});
  (* U+10000, the lowest astral code point *)
  Alcotest.(check string) "lowest astral" "\xf0\x90\x80\x80"
    (str_of {|"\uD800\uDC00"|});
  (* U+10FFFF, the highest *)
  Alcotest.(check string) "highest astral" "\xf4\x8f\xbf\xbf"
    (str_of {|"\uDBFF\uDFFF"|})

let test_lone_surrogates_rejected () =
  Alcotest.(check bool) "lone high at end" true
    (contains (err {|"\uD83D"|}) "surrogate");
  Alcotest.(check bool) "high + ordinary text" true
    (contains (err {|"\uD83Dxyz"|}) "surrogate");
  Alcotest.(check bool) "high + non-surrogate escape" true
    (contains (err {|"\uD83D\n"|}) "surrogate");
  Alcotest.(check bool) "high + high" true
    (contains (err {|"\uD83D\uD83D"|}) "surrogate");
  Alcotest.(check bool) "lone low" true
    (contains (err {|"\uDE00"|}) "surrogate")

(* ---------------- control characters ---------------- *)

let test_raw_control_char_rejected_with_offset () =
  (* "ab<TAB>c" — the tab sits at offset 3 (after the opening quote) *)
  let e = err "\"ab\tc\"" in
  Alcotest.(check bool) "names the problem" true (contains e "control char");
  Alcotest.(check bool) "points at the char, not past it" true
    (contains e "offset 3");
  let e2 = err "\"\x01\"" in
  Alcotest.(check bool) "offset 1 for first char" true (contains e2 "offset 1")

let test_escaped_control_chars_ok () =
  Alcotest.(check string) "backslash escapes" "a\n\t\r\b\012\\\"/z"
    (str_of {|"a\n\t\r\b\f\\\"\/z"|})

(* ---------------- depth guard ---------------- *)

let test_depth_guard () =
  (* well under the bound: fine *)
  let nest n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match J.parse (nest 100) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "depth 100 should parse: %s" e);
  (* past the bound: a structured error, not a stack overflow *)
  Alcotest.(check bool) "600 deep fails" true
    (contains (err (nest 600)) "nesting too deep");
  (* the classic bracket bomb: 100k opens, no closes *)
  Alcotest.(check bool) "bracket bomb fails fast" true
    (contains (err (String.make 100_000 '[')) "nesting too deep");
  (* objects count too *)
  let obombs = String.concat "" (List.init 600 (fun _ -> {|{"k":|})) in
  Alcotest.(check bool) "object bomb fails" true
    (contains (err (obombs ^ "1")) "nesting too deep");
  (* the bound is a parameter *)
  (match J.parse ~max_depth:8 (nest 20) with
   | Ok _ -> Alcotest.fail "max_depth:8 should reject depth 20"
   | Error _ -> ());
  match J.parse ~max_depth:32 (nest 20) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "max_depth:32 should accept depth 20: %s" e

(* ---------------- printer ---------------- *)

let test_printer_canonical () =
  let v =
    J.Obj
      [ ("id", J.Num 7.); ("ok", J.Bool true); ("who", J.Str "a\"b\nc");
        ("xs", J.List [ J.Num 1.; J.Num 2.5; J.Null ]) ]
  in
  Alcotest.(check string) "one canonical line"
    {|{"id":7,"ok":true,"who":"a\"b\nc","xs":[1,2.5,null]}|}
    (J.to_string v)

let test_printer_numbers () =
  Alcotest.(check string) "integral, no fraction" "42" (J.to_string (J.Num 42.));
  Alcotest.(check string) "negative integral" "-3" (J.to_string (J.Num (-3.)));
  Alcotest.(check string) "zero" "0" (J.to_string (J.Num 0.));
  Alcotest.(check string) "simple fraction" "2.5" (J.to_string (J.Num 2.5));
  (* 0.1 is not exactly representable; the printer must still round-trip *)
  List.iter
    (fun f ->
      match J.parse (J.to_string (J.Num f)) with
      | Ok (J.Num g) when g = f -> ()
      | Ok j -> Alcotest.failf "%h printed as %s" f (J.to_string j)
      | Error e -> Alcotest.failf "%h print->parse failed: %s" f e)
    [ 0.1; 1.0 /. 3.0; 1e-9; 6.02e23; -0.25; 123456789.125 ]

let test_print_parse_roundtrip () =
  let values =
    [ J.Null; J.Bool false; J.Num 3.25; J.Str "plain";
      J.Str "esc\"\\\n\t\x01\x1f";
      J.List []; J.Obj [];
      J.Obj [ ("nested", J.List [ J.Obj [ ("deep", J.Str "ok") ] ]) ] ]
  in
  List.iter
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' when v' = v -> ()
      | Ok v' ->
          Alcotest.failf "round-trip changed %s into %s" (J.to_string v)
            (J.to_string v')
      | Error e ->
          Alcotest.failf "round-trip of %s failed: %s" (J.to_string v) e)
    values

let test_escaped_output_reparses () =
  (* every byte 0..255 as a single-char string: print, reparse, compare *)
  for code = 0 to 255 do
    let s = String.make 1 (Char.chr code) in
    match J.parse (J.to_string (J.Str s)) with
    | Ok (J.Str s') when s' = s -> ()
    | Ok j -> Alcotest.failf "byte %d reparsed as %s" code (J.to_string j)
    | Error e -> Alcotest.failf "byte %d failed: %s" code e
  done

(* ---------------- printer vs. reference ---------------- *)

(* The printer before its integer path and run-blitting escaper
   ([Printf] per number, one closure call per character), kept as the
   reference the current one must match byte for byte. *)
module Ref = struct
  let escape_to (b : Buffer.t) (s : string) : unit =
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

  let num_to_string (f : float) : string =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write_to (b : Buffer.t) (j : J.t) : unit =
    match j with
    | J.Null -> Buffer.add_string b "null"
    | J.Bool true -> Buffer.add_string b "true"
    | J.Bool false -> Buffer.add_string b "false"
    | J.Num f -> Buffer.add_string b (num_to_string f)
    | J.Str s -> escape_to b s
    | J.List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            write_to b v)
          l;
        Buffer.add_char b ']'
    | J.Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_to b k;
            Buffer.add_char b ':';
            write_to b v)
          kvs;
        Buffer.add_char b '}'

  let to_string j =
    let b = Buffer.create 256 in
    write_to b j;
    Buffer.contents b
end

(* the same number, sign of zero included *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec same_json a b =
  match (a, b) with
  | J.Num x, J.Num y -> same_float x y
  | J.List xs, J.List ys -> List.equal same_json xs ys
  | J.Obj xs, J.Obj ys ->
      List.equal (fun (k, x) (l, y) -> k = l && same_json x y) xs ys
  | a, b -> a = b

let check_against_ref ~what (v : J.t) =
  let fast = J.to_string v in
  let slow = Ref.to_string v in
  if fast <> slow then Alcotest.failf "%s: printed %S, reference %S" what fast slow;
  match J.parse fast with
  | Ok v' when same_json v v' -> ()
  | Ok v' -> Alcotest.failf "%s: %S reparsed as %S" what fast (Ref.to_string v')
  | Error e -> Alcotest.failf "%s: %S does not parse: %s" what fast e

let test_numbers_match_reference () =
  let st = Random.State.make [| 20 |] in
  let edges =
    [ 0.; -0.; 1.; -1.; 9.; 10.; -10.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.);
      1e15 -. 0.125; 1e15 +. 2.; 999999999999999.; 4503599627370496.;
      2.5; -2.5; 0.1; 1e-300; 5e-324; 1e300; Float.max_float; -0.5;
      123456789.125; 1e14 +. 0.5 ]
  in
  let integral () =
    let f = Float.round (Random.State.float st 1e15) in
    let f = Float.min f (1e15 -. 1.) in
    (* spread the magnitudes: most wire numbers are small *)
    let f = Float.round (f /. (10. ** float_of_int (Random.State.int st 15))) in
    if Random.State.bool st then -.f else f
  in
  let fractional () =
    let f = Random.State.float st 2e6 -. 1e6 in
    if Float.is_integer f then f +. 0.5 else f
  in
  let floats =
    edges @ List.init 4000 (fun _ -> integral ()) @ List.init 1000 (fun _ -> fractional ())
  in
  List.iter (fun f -> check_against_ref ~what:(Printf.sprintf "%h" f) (J.Num f)) floats;
  (* non-finite numbers are not JSON, but still print as before *)
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (Ref.to_string (J.Num f))
        (J.to_string (J.Num f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_strings_match_reference () =
  let st = Random.State.make [| 21 |] in
  let byte () =
    match Random.State.int st 6 with
    | 0 -> '"'
    | 1 -> '\\'
    | 2 -> Char.chr (Random.State.int st 0x20)
    | 3 -> Char.chr (0x80 + Random.State.int st 0x80)
    | _ -> Char.chr (0x20 + Random.State.int st 0x60)
  in
  let random_string () = String.init (Random.State.int st 48) (fun _ -> byte ()) in
  for i = 0 to 2999 do
    let s = random_string () in
    check_against_ref ~what:(Printf.sprintf "string %d" i) (J.Str s);
    check_against_ref ~what:(Printf.sprintf "key %d" i)
      (J.Obj [ (s, J.List [ J.Str s; J.Num (float_of_int i) ]); ("k", J.Null) ])
  done;
  check_against_ref ~what:"empty" (J.Str "");
  check_against_ref ~what:"every byte" (J.Str (String.init 256 Char.chr))

let suite =
  [ Alcotest.test_case "unicode escape basics" `Quick test_unicode_escape_basic;
    Alcotest.test_case "\\u needs exactly 4 hex digits" `Quick
      test_unicode_escape_exactly_four_digits;
    Alcotest.test_case "surrogate pairs combine" `Quick test_surrogate_pairs;
    Alcotest.test_case "lone surrogates rejected" `Quick
      test_lone_surrogates_rejected;
    Alcotest.test_case "raw control chars: offset" `Quick
      test_raw_control_char_rejected_with_offset;
    Alcotest.test_case "escaped control chars ok" `Quick
      test_escaped_control_chars_ok;
    Alcotest.test_case "nesting depth guard" `Quick test_depth_guard;
    Alcotest.test_case "canonical printer" `Quick test_printer_canonical;
    Alcotest.test_case "number printing" `Quick test_printer_numbers;
    Alcotest.test_case "print/parse round-trip" `Quick
      test_print_parse_roundtrip;
    Alcotest.test_case "all bytes escape+reparse" `Quick
      test_escaped_output_reparses;
    Alcotest.test_case "numbers print as the reference printer" `Quick
      test_numbers_match_reference;
    Alcotest.test_case "strings print as the reference printer" `Quick
      test_strings_match_reference ]
