(* PDB-B (binary container) regression tests.

   The ASCII PDB stays the golden interchange format: every binary-side
   check below is phrased as "canonical ASCII in, canonical ASCII out",
   so a container bug can never hide behind a lossy decode.  The binary
   goldens under test/golden/*.pdbb are derived mechanically from the
   ASCII goldens (parse the .pdb, encode with Pdb_bin) — they pin the
   byte layout of format v2, so an accidental encoding change fails here
   even when the round trip still closes.  The format-v1 files under
   test/golden/v1/ (with their 1.0 ASCII twins) are fixed fixtures for
   the version-1 reader and are never regenerated.

   Regenerating after an intentional format change:

     PDT_GOLDEN_REGEN=1 dune exec test/main.exe -- test pdb-bin

   (same convention as the ASCII goldens: regeneration fails the test so
   a stale PDT_GOLDEN_REGEN cannot greenlight CI). *)

module P = Pdt_pdb.Pdb
module W = Pdt_pdb.Pdb_write
module B = Pdt_pdb.Pdb_bin
module V = Pdt_pdb.Pdb_bin.View
module IO = Pdt_pdb.Pdb_io
module D = Pdt_ductape.Ductape
module G = Pdt_workloads.Generator

let golden_names = List.map fst Test_golden.corpus

let golden_ascii name : string =
  let path = Test_golden.golden_read_path name in
  if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf
         "missing ASCII golden %s — run PDT_GOLDEN_REGEN=1 dune exec test/main.exe -- test golden"
         path);
  Test_golden.read_file path

let golden_bin_path name =
  Filename.concat (Test_golden.golden_dir ()) (name ^ ".pdbb")

(* the .pdbb golden is a pure function of the .pdb golden *)
let produce_bin name : string = B.to_string (Pdt_pdb.Pdb_parse.of_string (golden_ascii name))

let with_tmp_file contents f =
  let path = Filename.temp_file "pdt_bin_test" ".pdbb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Test_golden.write_file path contents;
      f path)

(* ------------------------------------------------------------------ *)
(* Golden fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let check_bin_golden name () =
  let actual = produce_bin name in
  if Sys.getenv_opt "PDT_GOLDEN_REGEN" = Some "1" then begin
    let dir = Test_golden.golden_dir () in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".pdbb") in
    Test_golden.write_file path actual;
    Alcotest.fail
      (Printf.sprintf "regenerated %s (%d bytes) — unset PDT_GOLDEN_REGEN and rerun"
         path (String.length actual))
  end
  else begin
    let path = golden_bin_path name in
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf
           "missing binary golden %s — run PDT_GOLDEN_REGEN=1 dune exec test/main.exe -- test pdb-bin"
           path);
    let expected = Test_golden.read_file path in
    if expected <> actual then
      Alcotest.fail
        (Printf.sprintf
           "%s: PDB-B encoding changed (golden %d bytes, actual %d bytes)" name
           (String.length expected) (String.length actual))
  end

(* ------------------------------------------------------------------ *)
(* Lossless conversion: ASCII -> binary -> ASCII is byte-identical     *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_goldens () =
  List.iter
    (fun name ->
      let ascii = golden_ascii name in
      let bin = B.to_string (Pdt_pdb.Pdb_parse.of_string ascii) in
      Alcotest.(check string)
        (name ^ ": ascii -> binary -> ascii") ascii
        (W.to_string (B.of_string bin));
      (* and through the format-sniffing front door *)
      Alcotest.(check string)
        (name ^ ": via Pdb_io sniffing") ascii
        (W.to_string (IO.of_string bin)))
    golden_names

let test_sniffing () =
  let ascii = golden_ascii "stack" in
  let bin = B.to_string (Pdt_pdb.Pdb_parse.of_string ascii) in
  Alcotest.(check string) "ascii sniffed" "ascii" (IO.format_name (IO.sniff_string ascii));
  Alcotest.(check string) "binary sniffed" "binary" (IO.format_name (IO.sniff_string bin));
  Alcotest.(check bool) "is_binary_string" true (B.is_binary_string bin);
  Alcotest.(check bool) "ascii is not binary" false (B.is_binary_string ascii)

let test_mmap_of_file () =
  List.iter
    (fun name ->
      let ascii = golden_ascii name in
      let bin = B.to_string (Pdt_pdb.Pdb_parse.of_string ascii) in
      with_tmp_file bin (fun path ->
          Alcotest.(check string) (name ^ ": mmap load") ascii
            (W.to_string (B.of_file path));
          Alcotest.(check bool) (name ^ ": is_binary_file") true
            (B.is_binary_file path);
          Alcotest.(check string) (name ^ ": Pdb_io.of_file") ascii
            (W.to_string (IO.of_file path))))
    golden_names

(* ------------------------------------------------------------------ *)
(* Ductape sees the same program through either container              *)
(* ------------------------------------------------------------------ *)

let test_ductape_index_equality () =
  List.iter
    (fun name ->
      let ascii = golden_ascii name in
      let bin = B.to_string (Pdt_pdb.Pdb_parse.of_string ascii) in
      let da = D.of_string ascii and db = D.of_string bin in
      Alcotest.(check string) (name ^ ": indexed PDBs agree")
        (D.to_string da) (D.to_string db);
      Alcotest.(check int) (name ^ ": item counts agree")
        (List.length (D.items da)) (List.length (D.items db));
      (* the derived index structure (caller edges) must agree too *)
      let caller_names d =
        List.map
          (fun (r : P.routine_item) ->
            ( r.P.ro_name,
              List.sort compare
                (List.map (fun (c : P.routine_item) -> c.P.ro_id) (D.callers d r)) ))
          (D.routines d)
      in
      Alcotest.(check bool) (name ^ ": caller edges agree") true
        (caller_names da = caller_names db))
    golden_names

(* ------------------------------------------------------------------ *)
(* The two-step View decodes what the one-step reader decodes          *)
(* ------------------------------------------------------------------ *)

let test_view_to_pdb () =
  List.iter
    (fun name ->
      let ascii = golden_ascii name in
      let bin = B.to_string (Pdt_pdb.Pdb_parse.of_string ascii) in
      with_tmp_file bin (fun path ->
          Alcotest.(check string) (name ^ ": view to_pdb is lossless") ascii
            (W.to_string (V.to_pdb (V.of_file path)))))
    golden_names

(* ------------------------------------------------------------------ *)
(* Format v1: files written before the semantic attributes             *)
(* ------------------------------------------------------------------ *)

let v1_names = [ "fortran_demo"; "ministl"; "parallel_stencil"; "pooma_like"; "stack" ]

let test_v1_fixtures () =
  let dir = Filename.concat (Test_golden.golden_dir ()) "v1" in
  List.iter
    (fun name ->
      let fixture ext = Test_golden.read_file (Filename.concat dir (name ^ ext)) in
      let bin = fixture ".pdbb" in
      Alcotest.(check int) (name ^ ": fixture is format v1") 1 (Char.code bin.[4]);
      Alcotest.(check string) (name ^ ": v1 decode re-serializes to its 1.0 twin")
        (fixture ".pdb") (W.to_string (B.of_string bin)))
    v1_names

(* ------------------------------------------------------------------ *)
(* The writer refuses values it cannot store                            *)
(* ------------------------------------------------------------------ *)

let test_out_of_range_refused () =
  List.iter
    (fun (what, ascii) ->
      let pdb = Pdt_pdb.Pdb_parse.of_string ascii in
      match B.to_string pdb with
      | exception B.Format_error _ -> ()
      | bin ->
          Alcotest.fail
            (Printf.sprintf "%s: written without error, reads back as:\n%s" what
               (W.to_string (B.of_string bin))))
    [ ("line number above 2^31", "<PDB 1.1>\n\nro#1 f\nrloc so#1 3000000000 1\n");
      ("template id equal to the none sentinel", "<PDB 1.1>\n\nro#1 f\nrtempl te#-1\n") ]

(* ------------------------------------------------------------------ *)
(* Malformed input: Format_error or a clean decode, never a crash      *)
(* ------------------------------------------------------------------ *)

let attempt what bytes =
  (* both the in-memory and the mapped reader must contain the damage *)
  let outcomes =
    [ (fun () -> ignore (B.of_string bytes));
      (fun () -> with_tmp_file bytes (fun path -> ignore (V.to_pdb (V.of_file path)))) ]
  in
  List.iter
    (fun f ->
      match f () with
      | () -> ()
      | exception B.Format_error _ -> ()
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "%s: escaped with %s instead of Format_error" what
               (Printexc.to_string e)))
    outcomes

let test_truncation_sweep () =
  let base = produce_bin "ministl" in
  let n = String.length base in
  (* every cut inside the header/section-table region, then samples *)
  let cuts = ref [] in
  for len = 0 to min n 160 do cuts := len :: !cuts done;
  let step = max 1 (n / 97) in
  let len = ref 160 in
  while !len < n do
    cuts := !len :: !cuts;
    len := !len + step
  done;
  cuts := (n - 1) :: !cuts;
  List.iter
    (fun len ->
      if len >= 0 && len < n then
        attempt (Printf.sprintf "truncated to %d/%d bytes" len n)
          (String.sub base 0 len))
    !cuts

let test_bitflip_sweep () =
  let base = produce_bin "ministl" in
  let n = String.length base in
  let step = max 1 (n / 64) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string base in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0xFF));
    attempt (Printf.sprintf "byte %d/%d flipped" !pos n) (Bytes.to_string b);
    pos := !pos + step
  done

let test_garbage () =
  attempt "empty input" "";
  attempt "bare magic" "PDBB";
  attempt "magic + zeros" ("PDBB" ^ String.make 32 '\000');
  attempt "magic + 0xFF" ("PDBB" ^ String.make 64 '\255');
  (* wrong version must be rejected, not misdecoded *)
  let base = produce_bin "stack" in
  let b = Bytes.of_string base in
  Bytes.set b 4 '\099';
  (match B.of_string (Bytes.to_string b) with
  | exception B.Format_error _ -> ()
  | _ -> Alcotest.fail "future format version must raise Format_error")

(* ------------------------------------------------------------------ *)
(* Property: generated projects round-trip through the container       *)
(* ------------------------------------------------------------------ *)

let prop_bin_roundtrip =
  QCheck.Test.make ~count:8
    ~name:"pdb-b: merged generated projects round-trip byte-identically"
    QCheck.(int_range 0 300)
    (fun seed ->
      let cfg =
        { G.default_config with seed; n_class_templates = 3; methods_per_class = 2 }
      in
      let vfs, sources = G.project_vfs ~cfg ~n_tus:2 () in
      let pdbs =
        List.map
          (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
          sources
      in
      let merged = D.merge pdbs in
      let ascii = W.to_string merged in
      let bin = B.to_string merged in
      W.to_string (B.of_string bin) = ascii)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case ("binary golden: " ^ name) `Quick (check_bin_golden name))
    golden_names
  @ [ Alcotest.test_case "ascii -> binary -> ascii byte-identical" `Quick
        test_roundtrip_goldens;
      Alcotest.test_case "format sniffing" `Quick test_sniffing;
      Alcotest.test_case "mmap of_file" `Quick test_mmap_of_file;
      Alcotest.test_case "ductape index equality across containers" `Quick
        test_ductape_index_equality;
      Alcotest.test_case "view: to_pdb is lossless" `Quick test_view_to_pdb;
      Alcotest.test_case "format v1 fixtures decode to their 1.0 twins" `Quick
        test_v1_fixtures;
      Alcotest.test_case "writer refuses out-of-range values" `Quick
        test_out_of_range_refused;
      Alcotest.test_case "truncation sweep never crashes" `Quick
        test_truncation_sweep;
      Alcotest.test_case "bit-flip sweep never crashes" `Quick test_bitflip_sweep;
      Alcotest.test_case "garbage and wrong-version input" `Quick test_garbage;
      QCheck_alcotest.to_alcotest prop_bin_roundtrip ]
