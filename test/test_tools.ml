(* Tests for the Table 2 utilities: pdbconv, pdbhtml, pdbmerge, pdbtree. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let stack_d () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Stack.main_file in
  D.index (Pdt_analyzer.Analyzer.run c.Pdt.program)

(* ---------------- pdbconv ---------------- *)

let test_pdbconv_sections () =
  let d = stack_d () in
  let out = Pdt_tools.Pdbconv.convert d in
  List.iter
    (fun sec -> Alcotest.(check bool) (sec ^ " section") true (contains out sec))
    [ "=== Source files"; "=== Namespaces"; "=== Templates"; "=== Classes";
      "=== Routines"; "=== Types"; "=== Macros" ];
  Alcotest.(check bool) "resolves names" true (contains out "Stack<int>");
  Alcotest.(check bool) "template provenance" true
    (contains out "instantiated from template");
  Alcotest.(check bool) "signatures printed" true (contains out "void (const int &)")

let test_pdbconv_check_clean () =
  let d = stack_d () in
  Alcotest.(check (list string)) "no problems" [] (Pdt_tools.Pdbconv.check d)

let test_pdbconv_check_detects_dangling () =
  let pdb = P.create () in
  pdb.P.routines <-
    [ { P.ro_id = 1; ro_name = "f"; ro_loc = P.null_loc; ro_parent = P.Pnone;
        ro_acs = "NA"; ro_sig = P.Tyref 99; ro_link = "C++"; ro_store = "NA";
        ro_virt = "no"; ro_kind = "NA"; ro_static = false; ro_inline = false;
        ro_templ = Some 7;
        ro_calls = [ { P.c_callee = 42; c_virt = false; c_loc = P.null_loc } ];
        ro_spawns = []; ro_du = []; ro_pos = P.null_extent; ro_defined = false } ];
  let d = D.index pdb in
  let problems = Pdt_tools.Pdbconv.check d in
  Alcotest.(check int) "three dangling refs" 3 (List.length problems)

(* ---------------- pdbtree ---------------- *)

let test_pdbtree_call_graph_figure5 () =
  let d = stack_d () in
  let out = Pdt_tools.Pdbtree.call_graph d in
  Alcotest.(check bool) "rooted at main" true
    (String.length out > 4 && String.sub out 0 4 = "main");
  Alcotest.(check bool) "arrow formatting" true (contains out "`--> Stack<int>::push");
  Alcotest.(check bool) "nested callee" true (contains out "`--> Stack<int>::isFull")

let test_pdbtree_virtual_and_recursion () =
  let src =
    "class B {\npublic:\n  virtual int v() { return 0; }\n};\n\
     int rec(int n) { if (n == 0) return 0; return rec(n - 1); }\n\
     int main() { B b; rec(3); return b.v(); }"
  in
  let c = Pdt.compile_string src in
  let d = D.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let out = Pdt_tools.Pdbtree.call_graph d in
  Alcotest.(check bool) "VIRTUAL tag" true (contains out "(VIRTUAL)");
  Alcotest.(check bool) "recursion cut with ..." true (contains out "rec ...")

let test_pdbtree_include_and_class () =
  let d = stack_d () in
  let inc = Pdt_tools.Pdbtree.include_tree d in
  Alcotest.(check bool) "include tree has nesting" true
    (contains inc "`--> StackAr.h");
  let ch = Pdt_tools.Pdbtree.class_hierarchy d in
  Alcotest.(check bool) "classes listed" true (contains ch "Stack<int>")

(* ---------------- pdbmerge ---------------- *)

let test_pdbmerge_stats () =
  let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus:3 () in
  let pdbs =
    List.map
      (fun f ->
        let c = Pdt.compile_exn ~vfs f in
        Pdt_analyzer.Analyzer.run c.Pdt.program)
      files
  in
  let _, stats = Pdt_tools.Pdbmerge.merge pdbs in
  Alcotest.(check int) "inputs" 4 stats.Pdt_tools.Pdbmerge.inputs;
  Alcotest.(check bool) "shrunk" true
    (stats.Pdt_tools.Pdbmerge.items_after < stats.Pdt_tools.Pdbmerge.items_before);
  Alcotest.(check bool) "duplicates eliminated" true
    (stats.Pdt_tools.Pdbmerge.duplicate_instantiations > 0);
  Alcotest.(check bool) "report string" true
    (contains (Pdt_tools.Pdbmerge.stats_to_string stats) "duplicate template instantiations")

(* ---------------- pdbhtml ---------------- *)

let test_pdbhtml_pages () =
  let d = stack_d () in
  let pages = Pdt_tools.Pdbhtml.generate d in
  let names = List.map fst pages in
  Alcotest.(check bool) "index page" true (List.mem "index.html" names);
  Alcotest.(check bool) "routines page" true (List.mem "routines.html" names);
  let n_classes = List.length (D.classes d) in
  let class_pages = List.filter (fun n -> String.length n > 6 && String.sub n 0 6 = "class_") names in
  Alcotest.(check int) "one page per class" n_classes (List.length class_pages);
  let index = List.assoc "index.html" pages in
  Alcotest.(check bool) "index links classes" true (contains index "Stack&lt;int&gt;");
  Alcotest.(check bool) "escaped angle brackets" true
    (not (contains index "<int>"));
  (* class page content *)
  let stack_cl =
    List.find (fun (c : P.class_item) -> c.cl_name = "Stack<int>") (D.classes d)
  in
  let page = List.assoc (Printf.sprintf "class_%d.html" stack_cl.P.cl_id) pages in
  Alcotest.(check bool) "members table" true (contains page "theArray");
  Alcotest.(check bool) "template provenance" true (contains page "instantiated from template")

let test_pdbhtml_links_resolve () =
  let d = stack_d () in
  let pages = Pdt_tools.Pdbhtml.generate d in
  let names = List.map fst pages in
  (* every href="..." in every page points to a generated page or anchor *)
  let re = Str.regexp "href=\"\\([^\"#]*\\)" in
  List.iter
    (fun (_, body) ->
      let rec scan pos =
        match Str.search_forward re body pos with
        | exception Not_found -> ()
        | i ->
            let target = Str.matched_group 1 body in
            if target <> "" then
              Alcotest.(check bool) ("link target exists: " ^ target) true
                (List.mem target names);
            scan (i + 1)
      in
      scan 0)
    pages

(* ---------------- degraded (incomplete) PDBs ---------------- *)

(* a PDB written after recovered front-end errors: header says
   "incomplete <n>"; the tools must surface that instead of silently
   presenting a partial program as whole *)
let degraded_d ?(diags = 3) () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Stack.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  pdb.P.incomplete <- true;
  pdb.P.diag_count <- diags;
  pdb

let test_pdbstats_flags_incomplete () =
  let out = Pdt_tools.Pdbstats.report (D.index (degraded_d ())) in
  Alcotest.(check bool) "warning present" true
    (contains out "WARNING: incomplete PDB (3 diagnostics recorded during compilation)");
  Alcotest.(check bool) "scope caveat" true
    (contains out "the statistics below describe the recovered portion only");
  Alcotest.(check bool) "numbers still reported" true (contains out "routines");
  let singular = Pdt_tools.Pdbstats.report (D.index (degraded_d ~diags:1 ())) in
  Alcotest.(check bool) "singular form" true
    (contains singular "(1 diagnostic recorded");
  let clean = Pdt_tools.Pdbstats.report (stack_d ()) in
  Alcotest.(check bool) "clean PDB has no warning" true
    (not (contains clean "WARNING"))

let test_pdbtree_incomplete_note () =
  (match Pdt_tools.Pdbtree.incomplete_note (D.index (degraded_d ())) with
   | None -> Alcotest.fail "no incomplete note for a degraded PDB"
   | Some note ->
       Alcotest.(check bool) "names the diag count" true
         (contains note "incomplete PDB (3 diagnostics");
       Alcotest.(check bool) "warns trees may be partial" true
         (contains note "trees may be partial"));
  Alcotest.(check bool) "clean PDB has no note" true
    (Pdt_tools.Pdbtree.incomplete_note (stack_d ()) = None)

let test_incomplete_flag_survives_disk () =
  (* the tools read the flag from the serialized header, which is how the
     pdbstats/pdbtree executables see a degraded artifact *)
  let text = Pdt_pdb.Pdb_write.to_string (degraded_d ~diags:2 ()) in
  let d = D.index (Pdt_pdb.Pdb_parse.of_string text) in
  let out = Pdt_tools.Pdbstats.report d in
  Alcotest.(check bool) "warning after round-trip" true
    (contains out "WARNING: incomplete PDB (2 diagnostics");
  Alcotest.(check bool) "tree note after round-trip" true
    (Pdt_tools.Pdbtree.incomplete_note d <> None)

(* ---------------- pdbstats pins ---------------- *)

(* none of the corpus PDBs derives one class from another *)
let inherit_pdb () =
  let src =
    "class A { public: int a; };\n\
     class B : public A { public: A *peer; };\n\
     class C : public B { public: virtual int f() { return 1; } };\n\
     class E : public C, public A { public: int f() { return 2; } };\n\
     int main() { E e; return e.f(); }"
  in
  Pdt_analyzer.Analyzer.run (Pdt.compile_string src).Pdt.program

(* Pdbstats.summary_fields over the served corpus (the seven goldens and
   the generated 32-TU project) and a small class hierarchy, in report
   order: routines, defined, classes, instantiations, call_edges,
   max_fan_out, max_fan_in, max_inheritance_depth, unreachable_from_main,
   spawn_sites, du_vars, du_uses, uninit_uses, mhp_pairs; then the MD5 of
   the full report text.  Recorded from the list-scanning summary, so a
   faster one must reproduce every number and every report byte. *)
let pinned_stats : (string * int list * string) list =
  [ ("stack", [ 35; 12; 8; 2; 15; 7; 2; 0; 0; 0; 6; 8; 3; 0 ], "58234388e7bab756235153d5d5ea0065");
    ("ministl", [ 28; 15; 4; 4; 20; 10; 3; 0; 0; 0; 13; 22; 6; 0 ], "8e562785400fb9f19c43f72ac5eaa2a0");
    ("pooma_like", [ 46; 21; 6; 4; 67; 15; 6; 0; 0; 0; 53; 136; 0; 0 ], "771abbfa8287f570734b06a70640c7f3");
    ("parallel_stencil", [ 33; 9; 4; 2; 30; 10; 3; 0; 0; 0; 20; 47; 0; 0 ], "2aca345b2535f93511111f5d2d5c3845");
    ("fortran_demo", [ 7; 7; 2; 0; 5; 3; 2; 0; 7; 0; 0; 0; 0; 0 ], "30f22939c37201aacb33c7bc8ccb19c7");
    ("duchain_demo", [ 3; 3; 0; 0; 2; 2; 1; 0; 0; 0; 8; 14; 1; 0 ], "f63910359f4c9609f9e319bc9a9ca334");
    ("parallel_spawn", [ 5; 5; 0; 0; 6; 4; 2; 0; 0; 3; 7; 9; 0; 5 ], "60c000f7f12e35c7ac1c1329d1574db4");
    ("project32", [ 269; 207; 28; 24; 848; 32; 16; 0; 0; 0; 354; 951; 376; 0 ], "62d297983c91a8de6dfbdcb1594cbe91");
    ("inherit", [ 5; 5; 4; 0; 3; 3; 1; 3; 1; 0; 1; 1; 1; 0 ], "c8ba1a477ecb32962d98b649bb522607") ]

let test_pdbstats_pinned () =
  let actual =
    List.map
      (fun (name, pdb) ->
        let d = D.index pdb in
        ( name,
          List.map snd (Pdt_tools.Pdbstats.summary_fields (Pdt_tools.Pdbstats.summary d)),
          Digest.to_hex (Digest.string (Pdt_tools.Pdbstats.report d)) ))
      (Test_golden.served_corpus () @ [ ("inherit", inherit_pdb ()) ])
  in
  let show (name, fields, md5) =
    Printf.sprintf "(%S, [ %s ], %S)" name
      (String.concat "; " (List.map string_of_int fields)) md5
  in
  if actual <> pinned_stats then
    Alcotest.failf "pdbstats output changed; now:\n  [ %s ]"
      (String.concat ";\n    " (List.map show actual))

let suite =
  [ Alcotest.test_case "pdbconv sections" `Quick test_pdbconv_sections;
    Alcotest.test_case "pdbconv check clean" `Quick test_pdbconv_check_clean;
    Alcotest.test_case "pdbconv check dangling" `Quick test_pdbconv_check_detects_dangling;
    Alcotest.test_case "pdbtree call graph (Fig 5)" `Quick test_pdbtree_call_graph_figure5;
    Alcotest.test_case "pdbtree VIRTUAL and recursion" `Quick test_pdbtree_virtual_and_recursion;
    Alcotest.test_case "pdbtree include/class trees" `Quick test_pdbtree_include_and_class;
    Alcotest.test_case "pdbmerge statistics" `Quick test_pdbmerge_stats;
    Alcotest.test_case "pdbhtml pages" `Quick test_pdbhtml_pages;
    Alcotest.test_case "pdbhtml links resolve" `Quick test_pdbhtml_links_resolve;
    Alcotest.test_case "pdbstats flags incomplete PDBs" `Quick
      test_pdbstats_flags_incomplete;
    Alcotest.test_case "pdbtree incomplete note" `Quick test_pdbtree_incomplete_note;
    Alcotest.test_case "incomplete flag survives disk" `Quick
      test_incomplete_flag_survives_disk;
    Alcotest.test_case "pdbstats pinned over the corpus" `Quick test_pdbstats_pinned ]
