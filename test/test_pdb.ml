(* PDB format tests: writer/parser roundtrip, escaping, property tests,
   and cross-checks of the single-pass cursor parser against the seed
   reference parser (same structure on valid input, same Parse_error line
   numbers and messages on malformed input). *)

module P = Pdt_pdb.Pdb
module W = Pdt_pdb.Pdb_write
module R = Pdt_pdb.Pdb_parse
module Ref = Pdt_pdb.Pdb_parse_ref
module B = Pdt_pdb.Pdb_bin

let roundtrip pdb =
  let s = W.to_string pdb in
  let pdb' = R.of_string s in
  let s' = W.to_string pdb' in
  (s, s')

let test_empty () =
  let s, s' = roundtrip (P.create ()) in
  Alcotest.(check string) "empty roundtrip" s s'

let test_stack_roundtrip () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  let s, s' = roundtrip pdb in
  Alcotest.(check string) "stack roundtrip" s s'

let test_krylov_roundtrip () =
  let vfs = Pdt_workloads.Pooma_like.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Pooma_like.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  let s, s' = roundtrip pdb in
  Alcotest.(check string) "krylov roundtrip" s s'

let test_text_escaping () =
  Alcotest.(check string) "escape" "a\\nb\\\\c" (W.escape_text "a\nb\\c");
  Alcotest.(check string) "unescape" "a\nb\\c" (W.unescape_text "a\\nb\\\\c");
  let prop s = W.unescape_text (W.escape_text s) = s in
  Alcotest.(check bool) "multi-line template text" true
    (prop "template <class T>\nclass X {\n  int f();\n};")

let test_parse_error_reporting () =
  (match R.of_string "bogus line without item\n" with
   | exception R.Parse_error (1, _) -> ()
   | _ -> Alcotest.fail "expected parse error");
  match R.of_string "ro#1 f\nrsig banana\n" with
  | exception R.Parse_error (2, _) -> ()
  | _ -> Alcotest.fail "expected parse error on bad typeref"

let test_null_locations () =
  let pdb = P.create () in
  pdb.P.routines <-
    [ { P.ro_id = 1; ro_name = "f"; ro_loc = P.null_loc; ro_parent = P.Pnone;
        ro_acs = "NA"; ro_sig = P.Tyref 1; ro_link = "C++"; ro_store = "NA";
        ro_virt = "no"; ro_kind = "NA"; ro_static = false; ro_inline = false;
        ro_templ = None; ro_calls = []; ro_spawns = []; ro_du = []; ro_pos = P.null_extent; ro_defined = false } ];
  pdb.P.types <-
    [ { P.ty_id = 1; ty_name = "void ()"; ty_loc = P.null_loc; ty_parent = P.Pnone;
        ty_acs = "NA";
        ty_info = P.Yfunc { rett = P.Tyref 2; args = []; ellipsis = false;
                            cqual = false; exceptions = None };
        ty_names = [] };
      { P.ty_id = 2; ty_name = "void"; ty_loc = P.null_loc; ty_parent = P.Pnone;
        ty_acs = "NA"; ty_info = P.Ybuiltin { yikind = "NA" }; ty_names = [] } ];
  let s, s' = roundtrip pdb in
  Alcotest.(check string) "null locs roundtrip" s s'

let test_typeref_names () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  (* every type has a printable, non-empty name *)
  List.iter
    (fun (ty : P.type_item) ->
      let n = P.typeref_name pdb (P.Tyref ty.P.ty_id) in
      Alcotest.(check bool) ("type name nonempty: " ^ n) true (String.length n > 0))
    pdb.P.types

(* ------------------------------------------------------------------ *)
(* Property tests: random PDBs survive write/parse/write               *)
(* ------------------------------------------------------------------ *)

let gen_name =
  QCheck.Gen.(
    let id_char = oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; return '_' ] in
    map (fun cs -> String.concat "" (List.map (String.make 1) cs)) (list_size (int_range 1 12) id_char))

let gen_loc nfiles =
  QCheck.Gen.(
    oneof
      [ return P.null_loc;
        map3
          (fun f l c -> { P.lfile = f; lline = l; lcol = c })
          (int_range 1 (max 1 nfiles)) (int_range 1 500) (int_range 1 120) ])

(* The random PDB generator covers every item kind and every attribute,
   within what the ASCII format can hold.  Excluded, because the ASCII
   form cannot tell them apart from something else:
   - a builtin type named like a type kind (a builtin writes its name as
     its [ykind], so a builtin named [ptr] reads back as a pointer);
   - a null location (file 0) with a nonzero line or column, which the
     writer prints as [NULL 0 0];
   - a diagnostic count without the [incomplete] header, which is not
     written;
   - text ending in white space, or names and values with a newline or
     leading or trailing white space (lines are trimmed), and a base
     access or enum constant name containing a space (those values are
     split on spaces).
   Numbers stay inside PDB-B's signed 32-bit range, so the same PDBs
   also exercise the binary container. *)
let ty_kind_words = [ "ptr"; "ref"; "tref"; "array"; "func"; "enum"; "tparam"; "error" ]

let gen_pdb : P.t QCheck.Gen.t =
  QCheck.Gen.(
    let* nfiles = int_range 1 4 in
    let* ntypes = int_range 1 9 in
    let* nclasses = int_range 0 4 in
    let* nroutines = int_range 0 5 in
    let* nnamespaces = int_range 0 3 in
    let* ntemplates = int_range 0 3 in
    let* nmacros = int_range 0 3 in
    let loc = gen_loc nfiles in
    let extent =
      map (fun (a, b, c, d) -> { P.hstart = a; hstop = b; bstart = c; bstop = d })
        (quad loc loc loc loc)
    in
    let id n = int_range 1 (max 1 n) in
    let typeref =
      oneof [ map (fun i -> P.Tyref i) (id ntypes); map (fun i -> P.Clref i) (id nclasses) ]
    in
    let parent =
      oneof
        [ return P.Pnone; map (fun i -> P.Pcl i) (id nclasses);
          map (fun i -> P.Pna i) (id nnamespaces) ]
    in
    let acs = oneofl [ "NA"; "pub"; "prot"; "priv" ] in
    let text =
      map
        (fun lines -> String.concat "\n" lines)
        (list_size (int_range 0 4)
           (map (String.concat " ") (list_size (int_range 1 3) gen_name)))
    in
    let small g = list_size (int_range 0 3) g in
    let* files =
      list_repeat nfiles
        (map2 (fun n incs -> (n, incs)) gen_name (small (id nfiles)))
    in
    let files =
      List.mapi
        (fun i (n, incs) -> { P.so_id = i + 1; so_name = n ^ ".h"; so_includes = incs })
        files
    in
    let itemref =
      oneof
        [ map (fun i -> P.Rso i) (id nfiles); map (fun i -> P.Rro i) (id nroutines);
          map (fun i -> P.Rcl i) (id nclasses); map (fun i -> P.Rty i) (id ntypes);
          map (fun i -> P.Rte i) (id ntemplates); map (fun i -> P.Rna i) (id nnamespaces);
          map (fun i -> P.Rma i) (id nmacros) ]
    in
    let* namespaces =
      list_repeat nnamespaces
        (quad gen_name (pair loc parent) (small itemref) (opt gen_name))
    in
    let namespaces =
      List.mapi
        (fun i (n, (l, p), mems, alias) ->
          { P.na_id = i + 1; na_name = n; na_loc = l; na_parent = p;
            na_members = mems; na_alias = alias })
        namespaces
    in
    let* templates =
      list_repeat ntemplates
        (quad (pair gen_name loc) (pair parent acs)
           (oneofl [ "class"; "func"; "memfunc"; "statmem"; "memclass" ])
           (pair text extent))
    in
    let templates =
      List.mapi
        (fun i ((n, l), (p, a), k, (tx, pos)) ->
          { P.te_id = i + 1; te_name = n; te_loc = l; te_parent = p; te_acs = a;
            te_kind = k; te_text = tx; te_pos = pos })
        templates
    in
    let ty_info =
      oneof
        [ map (fun k -> P.Ybuiltin { yikind = k }) (oneofl [ "int"; "char"; "NA" ]);
          map (fun r -> P.Yptr r) typeref;
          map (fun r -> P.Yref r) typeref;
          map3 (fun target yconst yvolatile -> P.Ytref { target; yconst; yvolatile })
            typeref bool bool;
          map2 (fun elem size -> P.Yarray { elem; size }) typeref
            (opt (int_range (-5) 100000));
          map
            (fun (rett, args, (ellipsis, cqual), exceptions) ->
              P.Yfunc { rett; args; ellipsis; cqual; exceptions })
            (quad typeref (small (pair typeref bool)) (pair bool bool)
               (opt (small typeref)));
          map (fun constants -> P.Yenum { constants })
            (small
               (pair gen_name
                  (map2 (fun neg v -> if neg then Int64.neg v else v) bool ui64)));
          return P.Ytparam;
          return P.Yerror ]
    in
    let* types =
      list_repeat ntypes
        (quad gen_name (pair loc parent) (pair acs ty_info) (small gen_name))
    in
    let types =
      List.mapi
        (fun i (n, (l, p), (a, info), names) ->
          let n =
            match info with
            | P.Ybuiltin _ when List.mem n ty_kind_words -> n ^ "_"
            | _ -> n
          in
          { P.ty_id = i + 1; ty_name = n; ty_loc = l; ty_parent = p; ty_acs = a;
            ty_info = info; ty_names = names })
        types
    in
    let member =
      map
        (fun ((n, l), (a, k), t, (st, mu)) ->
          { P.m_name = n; m_loc = l; m_acs = a; m_kind = k; m_type = t;
            m_static = st; m_mutable = mu })
        (quad (pair gen_name loc) (pair acs (oneofl [ "var"; "statvar" ])) typeref
           (pair bool bool))
    in
    let* classes =
      list_repeat nclasses
        (quad
           (triple gen_name loc (oneofl [ "class"; "struct"; "union" ]))
           (quad parent acs (opt (id ntemplates)) (opt (id ntemplates)))
           (triple
              (small (triple acs bool (id nclasses)))
              (small
                 (oneof
                    [ map (fun i -> `Cl i) (id nclasses);
                      map (fun i -> `Ro i) (id nroutines) ]))
              (small (pair (id nroutines) loc)))
           (pair (small member) extent))
    in
    let classes =
      List.mapi
        (fun i ((n, l, k), (p, a, templ, stempl), (bases, friends, funcs), (ms, pos)) ->
          { P.cl_id = i + 1; cl_name = n; cl_loc = l; cl_kind = k; cl_parent = p;
            cl_acs = a; cl_templ = templ; cl_stempl = stempl; cl_bases = bases;
            cl_friends = friends; cl_funcs = funcs; cl_members = ms; cl_pos = pos })
        classes
    in
    let call =
      map3 (fun c v l -> { P.c_callee = c; c_virt = v; c_loc = l }) (id nroutines) bool loc
    in
    let spawn =
      map3 (fun c l j -> { P.sp_callee = c; sp_loc = l; sp_join = j })
        (id nroutines) loc (opt loc)
    in
    let du_var =
      map3
        (fun n defs uses -> { P.v_name = n; v_defs = defs; v_uses = uses })
        gen_name (small loc)
        (small
           (map3 (fun l r u -> { P.u_loc = l; u_reach = r; u_uninit = u })
              loc (small (int_range 0 5)) bool))
    in
    let* routines =
      list_repeat nroutines
        (quad
           (quad gen_name loc parent acs)
           (quad typeref (oneofl [ "C++"; "C"; "fortran" ])
              (oneofl [ "NA"; "ext"; "stat" ]) (oneofl [ "no"; "virt"; "pure" ]))
           (quad (oneofl [ "NA"; "ctor"; "dtor"; "conv"; "op" ]) (triple bool bool bool)
              (opt (id ntemplates)) extent)
           (triple (small call) (small spawn) (small du_var)))
    in
    let routines =
      List.mapi
        (fun i ((n, l, p, a), (sg, link, store, virt), (k, (st, inl, def), templ, pos),
                (calls, spawns, du)) ->
          { P.ro_id = i + 1; ro_name = n; ro_loc = l; ro_parent = p; ro_acs = a;
            ro_sig = sg; ro_link = link; ro_store = store; ro_virt = virt; ro_kind = k;
            ro_static = st; ro_inline = inl; ro_templ = templ; ro_calls = calls;
            ro_spawns = spawns; ro_du = du; ro_pos = pos; ro_defined = def })
        routines
    in
    let* macros =
      list_repeat nmacros (quad gen_name (oneofl [ "def"; "undef" ]) text loc)
    in
    let macros =
      List.mapi
        (fun i (n, k, tx, l) ->
          { P.ma_id = i + 1; ma_name = n; ma_kind = k; ma_text = tx; ma_loc = l })
        macros
    in
    let* version = oneofl [ P.current_version; "1.0" ] in
    let* diag = opt (int_range 0 50) in
    let pdb = P.create () in
    pdb.P.version <- version;
    (match diag with
     | Some n -> pdb.P.incomplete <- true; pdb.P.diag_count <- n
     | None -> ());
    pdb.P.files <- files;
    pdb.P.namespaces <- namespaces;
    pdb.P.templates <- templates;
    pdb.P.types <- types;
    pdb.P.classes <- classes;
    pdb.P.routines <- routines;
    pdb.P.pdb_macros <- macros;
    return pdb)

(* ------------------------------------------------------------------ *)
(* Cursor parser vs the seed reference parser                          *)
(* ------------------------------------------------------------------ *)

(* Each parser raises its own [Parse_error]; fold both (plus the raw
   [Failure] that ycon's Int64.of_string produces) into one comparable,
   printable outcome. *)
let outcome (parse : string -> P.t) (src : string) : string =
  match parse src with
  | _ -> "parsed"
  | exception R.Parse_error (l, m) -> Printf.sprintf "Parse_error line %d: %s" l m
  | exception Ref.Parse_error (l, m) -> Printf.sprintf "Parse_error line %d: %s" l m
  | exception Failure m -> "Failure: " ^ m

(* Malformed (and deliberately odd but accepted) inputs.  The interesting
   rows pin the reference parser's two-pass error ordering: structural
   errors (bad header ids, attributes outside a block) win over semantic
   errors on earlier lines. *)
let malformed_cases =
  [ "rloc so#1 1 1\n";                      (* attribute before any block *)
    "xx#zz name\n";                         (* unparseable header id *)
    "qq#1 x\n";                             (* unknown item prefix *)
    "ro#1 f\nrloc so#1 2\n";                (* truncated location *)
    "ro#1 f\nrloc NULL 0\n";                (* truncated NULL location *)
    "ro#1 f\nrloc so#1 x 3\n";              (* non-numeric line number *)
    "ro#1 f\nrloc na#1 2 3\n";              (* location on a non-file *)
    "ro#1 f\nrsig banana\n";                (* typeref without an id *)
    "ro#1 f\nrcall ro#2\n";                 (* rcall missing virt + loc *)
    "ro#1 f\nrcall xx#2 virt so#1 1 1\n";   (* rcall on a non-routine *)
    "ro#1 f\nbogus value\n";                (* unknown ro attribute *)
    "so#1 a.h\nbogus attr\n";               (* unknown so attribute *)
    "so#1 a.h\nsinc ty#2\n";                (* include of a non-file *)
    "cl#1 C\ncbase pub  no cl#2\n";         (* empty field: 4 cbase fields *)
    "cl#1 C\ncmloc so#1 1 1\n";             (* member attr without cmem *)
    "te#1 T\ntpos so#1 1 1 so#1 1 1 so#1 1\n"; (* truncated extent *)
    "ty#1 E\nykind enum\nycon a xyz\n";     (* Int64.of_string failure *)
    "ro#1 f\nrsig banana\nxx#zz nm\n";      (* late structural error wins *)
    "ro#1 f\nrsig banana\n\nrloc so#1 1 1\n"; (* ...so does late placement *)
    "ro#1 f\nrloc so#1 -2 0x10\n";          (* exotic ints: accepted *)
    "ty#1 X\nyqual weird\n";                (* unknown qualifier: ignored *)
    "ro#1 f\nrloc so#1 1 1 trailing junk\n" (* extra loc fields: ignored *)
  ]

let test_malformed_matches_reference () =
  List.iter
    (fun src ->
      Alcotest.(check string)
        (String.concat "; " (String.split_on_char '\n' src))
        (outcome Ref.of_string src) (outcome R.of_string src))
    malformed_cases

let test_cursor_matches_reference_stack () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let s = W.to_string (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  Alcotest.(check bool) "structurally equal parse" true
    (R.of_string s = Ref.of_string s)

let test_interning_shares_names () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let s = W.to_string (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let p1 = R.of_string s and p2 = R.of_string s in
  match (p1.P.routines, p2.P.routines) with
  | r1 :: _, r2 :: _ ->
      Alcotest.(check bool) "equal names" true (r1.P.ro_name = r2.P.ro_name);
      Alcotest.(check bool) "physically shared names" true
        (r1.P.ro_name == r2.P.ro_name)
  | _ -> Alcotest.fail "stack PDB has routines"

let prop_matches_reference =
  QCheck.Test.make ~count:100 ~name:"cursor parser = reference parser"
    (QCheck.make gen_pdb) (fun pdb ->
      let s = W.to_string pdb in
      R.of_string s = Ref.of_string s)

let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random PDB write/parse/write stable"
    (QCheck.make gen_pdb) (fun pdb ->
      let s, s' = roundtrip pdb in
      s = s')

let prop_item_count =
  QCheck.Test.make ~count:100 ~name:"item count preserved by parse"
    (QCheck.make gen_pdb) (fun pdb ->
      let s = W.to_string pdb in
      P.item_count (R.of_string s) = P.item_count pdb)

(* The two containers agree on every generated PDB: the ASCII text
   survives a trip through PDB-B byte for byte, and PDB-B decoding undoes
   encoding exactly. *)
let prop_binary_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random PDB ascii -> PDB-B -> ascii identical"
    (QCheck.make gen_pdb) (fun pdb ->
      let s = W.to_string pdb in
      W.to_string (B.of_string (B.to_string (R.of_string s))) = s)

let prop_binary_identity =
  QCheck.Test.make ~count:100 ~name:"random PDB PDB-B decode . encode = id"
    (QCheck.make gen_pdb) (fun pdb -> B.of_string (B.to_string pdb) = pdb)

let suite =
  [ Alcotest.test_case "empty roundtrip" `Quick test_empty;
    Alcotest.test_case "stack roundtrip" `Quick test_stack_roundtrip;
    Alcotest.test_case "krylov roundtrip" `Quick test_krylov_roundtrip;
    Alcotest.test_case "text escaping" `Quick test_text_escaping;
    Alcotest.test_case "parse error reporting" `Quick test_parse_error_reporting;
    Alcotest.test_case "null locations" `Quick test_null_locations;
    Alcotest.test_case "typeref names" `Quick test_typeref_names;
    Alcotest.test_case "malformed input matches reference parser" `Quick
      test_malformed_matches_reference;
    Alcotest.test_case "cursor parser matches reference on stack" `Quick
      test_cursor_matches_reference_stack;
    Alcotest.test_case "interning shares parsed names" `Quick
      test_interning_shares_names;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_item_count;
    QCheck_alcotest.to_alcotest prop_binary_roundtrip;
    QCheck_alcotest.to_alcotest prop_binary_identity ]
