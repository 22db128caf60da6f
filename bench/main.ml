(* The PDT benchmark & reproduction harness.

   Part 1 regenerates every table and figure of the paper as a deterministic
   artifact (the paper's evaluation is qualitative: worked tool outputs).
   Part 2 adds quantitative benchmarks (bechamel micro-benchmarks and
   deterministic sweeps) for the performance claims made in prose:

     B1  used-mode vs automatic (prelinker) instantiation      (paper §2)
     B2  pdbmerge duplicate-instantiation elimination          (Table 2)
     B3  front-end / analyzer throughput                       (infrastructure)
     B4  TAU instrumentation overhead                          (§4.1)
     B5  DUCTAPE query costs                                   (§3.3)
     B6  parallel incremental project builds                   (pdbbuild)
     B7  PDB I/O throughput: parse / write / merge             (machine-
         readable record in BENCH_pdb_io.json)
     B10 container scaling, ASCII vs PDB-B binary mmap         (machine-
         readable record in BENCH_pdb_scale.json)
     B13 semantic analyses: define-use chains and MHP          (machine-
         readable record in BENCH_pdb_semantic.json)

   The merge benchmarks honor a --domains 1,2,4,8 request (comma list);
   counts the host cannot really parallelize are recorded as skipped.

   See EXPERIMENTS.md for the paper-vs-measured record. *)

module D = Pdt_ductape.Ductape
module P = Pdt_pdb.Pdb

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub title = Printf.printf "\n--- %s ---\n" title

(* ------------------------------------------------------------------ *)
(* Shared compilations                                                 *)
(* ------------------------------------------------------------------ *)

let stack_compiled =
  lazy
    (let vfs = Pdt_workloads.Stack.vfs () in
     (vfs, Pdt.compile_exn ~vfs Pdt_workloads.Stack.main_file))

let stack_pdb = lazy (Pdt_analyzer.Analyzer.run (snd (Lazy.force stack_compiled)).Pdt.program)
let stack_d = lazy (D.index (Lazy.force stack_pdb))

(* ------------------------------------------------------------------ *)
(* Figure / table artifacts                                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1: the templated Stack program (input corpus)";
  let lines = String.split_on_char '\n' Pdt_workloads.Stack.stackar_h in
  List.iteri (fun i l -> if i < 24 then print_endline l) lines;
  Printf.printf "... (%d source files, see lib/workloads/stack.ml)\n"
    (List.length Pdt_workloads.Stack.files)

let fig3 () =
  section "Figure 3: PDB excerpts for the Stack code";
  let pdb = Lazy.force stack_pdb in
  let s = Pdt_pdb.Pdb_write.to_string pdb in
  (* print the header, the Stack template, the push routine and Stack<int> —
     the items Figure 3 shows *)
  let blocks = String.split_on_char '\n' s in
  let want prefixes line =
    List.exists
      (fun p -> String.length line >= String.length p && String.sub line 0 (String.length p) = p)
      prefixes
  in
  let printing = ref false in
  List.iter
    (fun line ->
      if line = "" then printing := false
      else if want [ "<PDB"; "so#"; "te#2 "; "cl#" ] line then printing := true
      else if want [ "ro#" ] line then begin
        (* routines named push / isFull, as in the figure *)
        printing :=
          want [ "ro#" ] line
          && (let has sub =
                let n = String.length line and m = String.length sub in
                let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
                go 0
              in
              has " push" || has " isFull" || has " main")
      end;
      if !printing then print_endline line)
    blocks;
  sub "summary";
  Printf.printf
    "items: %d files, %d namespaces, %d templates, %d routines, %d classes, %d types, %d macros\n"
    (List.length pdb.P.files) (List.length pdb.P.namespaces)
    (List.length pdb.P.templates) (List.length pdb.P.routines)
    (List.length pdb.P.classes) (List.length pdb.P.types)
    (List.length pdb.P.pdb_macros)

let table1 () =
  section "Table 1: PDB item types, attributes and prefixes";
  let pdb = Lazy.force stack_pdb in
  let s = Pdt_pdb.Pdb_write.to_string pdb in
  let count_attr a =
    List.length
      (List.filter
         (fun line ->
           String.length line > String.length a
           && String.sub line 0 (String.length a) = a)
         (String.split_on_char '\n' s))
  in
  Printf.printf "%-12s %-8s %s\n" "Item type" "Prefix" "attribute lines emitted";
  Printf.printf "%-12s %-8s sinc=%d\n" "SOURCE FILES" "so" (count_attr "sinc ");
  Printf.printf "%-12s %-8s rloc=%d rclass=%d rsig=%d rcall=%d rtempl=%d rpos=%d\n"
    "ROUTINES" "ro" (count_attr "rloc ") (count_attr "rclass ") (count_attr "rsig ")
    (count_attr "rcall ") (count_attr "rtempl ") (count_attr "rpos ");
  Printf.printf "%-12s %-8s ckind=%d ctempl=%d cfunc=%d cmem=%d cpos=%d\n" "CLASSES" "cl"
    (count_attr "ckind ") (count_attr "ctempl ") (count_attr "cfunc ")
    (count_attr "cmem ") (count_attr "cpos ");
  Printf.printf "%-12s %-8s ykind=%d yrett=%d yargt=%d\n" "TYPES" "ty"
    (count_attr "ykind ") (count_attr "yrett ") (count_attr "yargt ");
  Printf.printf "%-12s %-8s tkind=%d ttext=%d\n" "TEMPLATES" "te" (count_attr "tkind ")
    (count_attr "ttext ");
  Printf.printf "%-12s %-8s nmem=%d\n" "NAMESPACES" "na" (count_attr "nmem ");
  Printf.printf "%-12s %-8s makind=%d matext=%d\n" "MACROS" "ma" (count_attr "makind ")
    (count_attr "matext ")

let fig4 () =
  section "Figure 4: the DUCTAPE item hierarchy";
  let d = Lazy.force stack_d in
  let items = D.items d in
  let count p = List.length (List.filter p items) in
  Printf.printf "pdbSimpleItem (all items)        : %d\n" (List.length items);
  Printf.printf "  pdbFile                        : %d\n"
    (count (function D.File _ -> true | _ -> false));
  Printf.printf "  pdbItem                        : %d\n" (count D.is_item);
  Printf.printf "    pdbMacro                     : %d\n"
    (count (function D.Macro _ -> true | _ -> false));
  Printf.printf "    pdbType                      : %d\n"
    (count (function D.Type _ -> true | _ -> false));
  Printf.printf "    pdbFatItem                   : %d\n" (count D.is_fat_item);
  Printf.printf "      pdbTemplate                : %d\n"
    (count (function D.Template _ -> true | _ -> false));
  Printf.printf "      pdbNamespace               : %d\n"
    (count (function D.Namespace _ -> true | _ -> false));
  Printf.printf "      pdbTemplateItem            : %d\n" (count D.is_template_item);
  Printf.printf "        pdbClass                 : %d\n"
    (count (function D.Class _ -> true | _ -> false));
  Printf.printf "        pdbRoutine               : %d\n"
    (count (function D.Routine _ -> true | _ -> false));
  Printf.printf "template instantiations (list<pdbTemplateItem>): %d\n"
    (List.length (D.template_items d))

let table2_fig5 () =
  section "Table 2 / Figure 5: the DUCTAPE utilities on the Stack PDB";
  let d = Lazy.force stack_d in
  sub "pdbtree: file inclusion";
  print_string (Pdt_tools.Pdbtree.include_tree d);
  sub "pdbtree: class hierarchy";
  print_string (Pdt_tools.Pdbtree.class_hierarchy d);
  sub "pdbtree: static call graph (the Figure 5 routine)";
  print_string (Pdt_tools.Pdbtree.call_graph d);
  sub "pdbconv (first lines)";
  let conv = Pdt_tools.Pdbconv.convert d in
  String.split_on_char '\n' conv |> List.filteri (fun i _ -> i < 8) |> List.iter print_endline;
  sub "pdbhtml";
  Printf.printf "%d HTML pages generated\n" (List.length (Pdt_tools.Pdbhtml.generate d));
  sub "pdbmerge (3 TUs sharing instantiations)";
  let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus:3 () in
  let pdbs =
    List.map (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program) files
  in
  let _, stats = Pdt_tools.Pdbmerge.merge pdbs in
  print_endline (Pdt_tools.Pdbmerge.stats_to_string stats)

let fig6_fig7 () =
  section "Figures 6 & 7: TAU instrumentation and the Krylov-solver profile";
  let vfs = Pdt_workloads.Pooma_like.vfs ~n:24 () in
  let main = Pdt_workloads.Pooma_like.main_file in
  let c = Pdt.compile_exn ~vfs main in
  let d = D.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let plan = Pdt_tau.Instrument.plan d in
  sub "instrumentation plan (the Figure 6 filter)";
  List.iter
    (fun (ir : Pdt_tau.Instrument.item_ref) ->
      Printf.printf "  %-12s %-18s line %-4d %s\n" ir.ir_name ir.ir_file ir.ir_line
        (if ir.ir_use_ct_this then "CT(*this)" else "\"" ^ ir.ir_signature ^ "\""))
    plan;
  let vfs', _ = Pdt_tau.Instrument.instrument_vfs vfs plan in
  let c' = Pdt.compile_exn ~vfs:vfs' main in
  let r = Pdt_tau.Interp.run c'.Pdt.program in
  sub "program output";
  print_string r.output;
  sub "profile (the Figure 7 display)";
  print_string (Pdt_tau.Pprof.format ~title:"TAU profile: Krylov solver (CG, n=24)" r.profile)

let fig8 () =
  section "Figure 8: SILOON bridging-code generation for the Stack library";
  let d = Lazy.force stack_d in
  let plan = Pdt_siloon.Siloon.plan d in
  Printf.printf "exported classes   : %d\n" (List.length plan.Pdt_siloon.Siloon.classes);
  Printf.printf "exported functions : %d\n" (List.length plan.Pdt_siloon.Siloon.functions);
  let bridge = Pdt_siloon.Siloon.generate_bridge d plan in
  let perl = Pdt_siloon.Siloon.generate_perl d plan ~module_name:"StackLib" in
  let py = Pdt_siloon.Siloon.generate_python d plan ~module_name:"StackLib" in
  Printf.printf "bridge code        : %d lines\n"
    (List.length (String.split_on_char '\n' bridge));
  Printf.printf "perl wrapper       : %d lines\n"
    (List.length (String.split_on_char '\n' perl));
  Printf.printf "python wrapper     : %d lines\n"
    (List.length (String.split_on_char '\n' py));
  sub "bridge excerpt: the Stack<int>::push binding";
  String.split_on_char '\n' bridge
  |> List.filter (fun l ->
         let has sub =
           let n = String.length l and m = String.length sub in
           let rec go i = i + m <= n && (String.sub l i m = sub || go (i + 1)) in
           go 0
         in
         has "Stack_Lint_G__push")
  |> List.iter print_endline

let parallel_profile () =
  section "Parallel profiling: SPMD stencil over 4 simulated ranks (pprof -s)";
  let vfs = Pdt_workloads.Parallel_stencil.vfs () in
  let main = Pdt_workloads.Parallel_stencil.main_file in
  let c = Pdt.compile_exn ~vfs main in
  let d = D.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let plan = Pdt_tau.Instrument.plan d in
  let vfs2, _ = Pdt_tau.Instrument.instrument_vfs vfs plan in
  let prog = (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program in
  let rs = Pdt_tau.Parallel.run_ranks ~nranks:4 prog in
  List.iter
    (fun (rr : Pdt_tau.Parallel.rank_result) -> print_string rr.result.output)
    rs;
  print_newline ();
  print_string (Pdt_tau.Parallel.format_summary rs)

(* ------------------------------------------------------------------ *)
(* B1: used-mode vs automatic instantiation (paper §2)                 *)
(* ------------------------------------------------------------------ *)

let b1_instantiation_modes () =
  section "B1: used-mode vs automatic (prelinker) template instantiation (§2)";
  Printf.printf "%-14s %-14s %-18s %-20s %-18s\n" "chain length" "used: passes"
    "used: IL entities" "auto: prelink rounds" "auto: IL entities";
  List.iter
    (fun n_templates ->
      let cfg =
        { Pdt_workloads.Generator.default_config with
          n_class_templates = n_templates; chain_depth = 2 }
      in
      let src = Pdt_workloads.Generator.single_file_program ~cfg () in
      let c = Pdt.compile_string src in
      let rep = Pdt_prelink.Prelink.simulate c.Pdt.program in
      Printf.printf "%-14d %-14d %-18d %-20d %-18d\n" n_templates 1
        rep.Pdt_prelink.Prelink.used_mode_il_entities
        rep.Pdt_prelink.Prelink.rounds
        rep.Pdt_prelink.Prelink.automatic_mode_il_entities)
    [ 2; 4; 6; 8; 10; 12 ];
  print_endline
    "(used mode: one compilation pass, every instantiation visible in the IL;\n\
     \ automatic: instantiations live in object files only — invisible to tools —\n\
     \ and deeper template chains force more prelink/recompile rounds)"

(* ------------------------------------------------------------------ *)
(* B2: pdbmerge duplicate elimination                                  *)
(* ------------------------------------------------------------------ *)

let b2_pdbmerge_scaling () =
  section "B2: pdbmerge duplicate-instantiation elimination (Table 2)";
  Printf.printf "%-6s %-14s %-14s %-22s %-10s\n" "TUs" "items before" "items after"
    "dup instantiations" "ratio";
  List.iter
    (fun n_tus ->
      let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus () in
      let pdbs =
        List.map
          (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
          files
      in
      let _, stats = Pdt_tools.Pdbmerge.merge pdbs in
      Printf.printf "%-6d %-14d %-14d %-22d %.2f\n" n_tus
        stats.Pdt_tools.Pdbmerge.items_before stats.Pdt_tools.Pdbmerge.items_after
        stats.Pdt_tools.Pdbmerge.duplicate_instantiations
        (float_of_int stats.Pdt_tools.Pdbmerge.items_before
         /. float_of_int (max 1 stats.Pdt_tools.Pdbmerge.items_after)))
    [ 2; 4; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* B3-B5: bechamel micro-benchmarks                                    *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  section "B3/B4/B5: timing micro-benchmarks (bechamel, OLS ns/run)";
  let open Bechamel in
  let open Toolkit in
  (* workloads prepared outside the timed region *)
  let small_src =
    Pdt_workloads.Generator.single_file_program
      ~cfg:{ Pdt_workloads.Generator.default_config with n_class_templates = 4 } ()
  in
  let large_src =
    Pdt_workloads.Generator.single_file_program
      ~cfg:{ Pdt_workloads.Generator.default_config with
             n_class_templates = 16; methods_per_class = 6 } ()
  in
  let stack_vfs, stack_c = Lazy.force stack_compiled in
  let stack_pdb_text = Pdt_pdb.Pdb_write.to_string (Lazy.force stack_pdb) in
  let merge_pdbs =
    let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus:4 () in
    List.map (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program) files
  in
  let instr_prog =
    let d = Lazy.force stack_d in
    let plan = Pdt_tau.Instrument.plan d in
    let vfs2, _ = Pdt_tau.Instrument.instrument_vfs stack_vfs plan in
    (Pdt.compile_exn ~vfs:vfs2 Pdt_workloads.Stack.main_file).Pdt.program
  in
  let lex_only src () =
    let diags = Pdt_util.Diag.create () in
    ignore (Pdt_lex.Lexer.tokenize ~diags ~file:"bench.cpp" src)
  in
  let full_compile src () = ignore (Pdt.compile_string src) in
  let tests =
    [ Test.make ~name:"b3/lex-small" (Staged.stage (lex_only small_src));
      Test.make ~name:"b3/lex-large" (Staged.stage (lex_only large_src));
      Test.make ~name:"b3/compile-small" (Staged.stage (full_compile small_src));
      Test.make ~name:"b3/compile-large" (Staged.stage (full_compile large_src));
      Test.make ~name:"b3/analyze-stack"
        (Staged.stage (fun () ->
             ignore (Pdt_analyzer.Analyzer.run stack_c.Pdt.program)));
      Test.make ~name:"b3/pdb-parse"
        (Staged.stage (fun () -> ignore (Pdt_pdb.Pdb_parse.of_string stack_pdb_text)));
      Test.make ~name:"b2/merge-4tu"
        (Staged.stage (fun () -> ignore (D.merge merge_pdbs)));
      Test.make ~name:"b4/run-plain"
        (Staged.stage (fun () -> ignore (Pdt_tau.Interp.run stack_c.Pdt.program)));
      Test.make ~name:"b4/run-instrumented"
        (Staged.stage (fun () -> ignore (Pdt_tau.Interp.run instr_prog)));
      Test.make ~name:"b5/index+calltree"
        (Staged.stage (fun () ->
             let d = D.index (Lazy.force stack_pdb) in
             ignore (D.call_tree d)));
      Test.make ~name:"b5/class-hierarchy"
        (Staged.stage (fun () ->
             ignore (D.class_hierarchy (Lazy.force stack_d))));
      Test.make ~name:"b5/include-tree"
        (Staged.stage (fun () -> ignore (D.include_tree (Lazy.force stack_d)))) ]
  in
  let grouped = Test.make_grouped ~name:"pdt" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run (OLS)";
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ e ] -> Printf.printf "%-28s %16.0f\n" name e
      | Some es ->
          Printf.printf "%-28s %16s\n" name
            (String.concat "," (List.map (Printf.sprintf "%.0f") es))
      | None -> Printf.printf "%-28s %16s\n" name "n/a")
    rows;
  (* headline overhead figure for B4 *)
  let find n =
    List.fold_left
      (fun acc (name, est) ->
        if name = n then
          match Analyze.OLS.estimates est with Some [ e ] -> Some e | _ -> acc
        else acc)
      None rows
  in
  (match (find "pdt b4/run-plain", find "pdt b4/run-instrumented") with
   | Some p, Some i when p > 0.0 ->
       Printf.printf "\nB4: instrumentation overhead (wall): %.2fx\n" (i /. p)
   | _ -> ());
  (* deterministic virtual-cycle view of the same overhead *)
  let plain = Pdt_tau.Interp.run stack_c.Pdt.program in
  let instr = Pdt_tau.Interp.run instr_prog in
  Printf.printf "B4: instrumentation overhead (virtual cycles): %Ld -> %Ld (%.2fx)\n"
    plain.cycles instr.cycles
    (Int64.to_float instr.cycles /. Int64.to_float plain.cycles)

(* ------------------------------------------------------------------ *)
(* B6: parallel incremental project builds                             *)
(* ------------------------------------------------------------------ *)

let b6_parallel_build () =
  section "B6: parallel incremental project builds (pdbbuild driver)";
  let n_tus = 12 in
  (* heavier per-TU compiles than the default config, so cache and pool
     effects dominate the fixed costs *)
  let cfg =
    { Pdt_workloads.Generator.default_config with
      n_class_templates = 16; methods_per_class = 6; chain_depth = 4;
      n_instantiation_types = 5 }
  in
  let project () = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus () in
  let run ?cache_dir ~domains label =
    let vfs, sources = project () in
    let r =
      Pdt_build.Build.build
        ~options:{ Pdt_build.Build.default_options with domains; cache_dir }
        ~vfs sources
    in
    Printf.printf "%-24s %s\n" label (Pdt_build.Build.summary r);
    r
  in
  Printf.printf "project: %d TUs + main, shared template header\n\n" n_tus;
  let seq = run ~domains:1 "sequential (1 domain)" in
  let par = run ~domains:4 "parallel (4 domains)" in
  let cache_dir =
    let f = Filename.temp_file "pdt-bench-b6" ".cache" in
    Sys.remove f; f
  in
  let cold = run ~cache_dir ~domains:4 "cold cache (4 domains)" in
  let warm = run ~cache_dir ~domains:1 "warm cache (1 domain)" in
  let digest (r : Pdt_build.Build.result) = Pdt_pdb.Pdb_digest.of_pdb r.merged in
  Printf.printf "\nparallel speedup over sequential : %.2fx (%.3fs -> %.3fs wall)\n"
    (seq.wall_seconds /. par.wall_seconds) seq.wall_seconds par.wall_seconds;
  Printf.printf "warm-cache speedup over sequential: %.2fx (%.3fs -> %.3fs wall)\n"
    (seq.wall_seconds /. warm.wall_seconds) seq.wall_seconds warm.wall_seconds;
  Printf.printf "merged PDB digest %s, identical across all four builds: %b\n"
    (digest seq)
    (List.for_all (fun r -> digest r = digest seq) [ par; cold; warm ])

(* ------------------------------------------------------------------ *)
(* B7: PDB I/O throughput                                              *)
(* ------------------------------------------------------------------ *)

(* The domain curve the merge benchmarks honor.  A requested count the
   host cannot actually parallelize (more domains than cores) is never
   silently clamped or run oversubscribed — it is recorded as skipped,
   with the host's core count, so a curve produced on a small container
   is explicit about what it could not measure rather than reporting a
   fake 1.0x speedup from a degraded run. *)
let requested_domains () =
  let default = [ 1; 2; 4; 8 ] in
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = "--domains" then
      let l =
        String.split_on_char ',' Sys.argv.(i + 1)
        |> List.filter_map int_of_string_opt
        |> List.filter (fun d -> d >= 1)
        |> List.sort_uniq compare
      in
      if l = [] then default else l
    else find (i + 1)
  in
  find 1

let b7_pdb_io ~quick ~domains () =
  section "B7: PDB I/O throughput (single-pass parser, parallel tree merge)";
  (* corpus: the PDBs of a template-heavy generated project — the same
     shape the cache and the merge chew on in a real build *)
  let n_tus = if quick then 6 else 16 in
  let cfg =
    { Pdt_workloads.Generator.default_config with
      n_class_templates = (if quick then 12 else 24);
      methods_per_class = 6; chain_depth = 4;
      n_instantiation_types = (if quick then 4 else 6) }
  in
  let vfs, files = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus () in
  let pdbs =
    List.map
      (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
      files
  in
  let texts = List.map Pdt_pdb.Pdb_write.to_string pdbs in
  let total_bytes = List.fold_left (fun a s -> a + String.length s) 0 texts in
  let mb = float_of_int total_bytes /. 1048576.0 in
  let reps = if quick then 3 else 7 in
  (* Single-threaded ops (parse, write) are timed in process CPU time
     ([Sys.time] = CLOCK_PROCESS_CPUTIME_ID, µs resolution): on a shared
     container, wall time includes whatever the neighbors are doing, and
     that additive noise compresses the parse-speedup ratio toward 1.
     CPU time equals wall time on quiet hardware and excludes only the
     stolen slices.  The merges are timed in wall time — process CPU time
     sums over domains, which would hide parallelism by construction.
     Every timed run starts from a normalized heap (dead major garbage
     collected), so one op's leftovers don't inflate the next op's GC. *)
  let cpu_once f =
    Gc.full_major ();
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let wall_once f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best time_once f =
    let best = ref infinity in
    for _ = 1 to reps do
      let dt = time_once f in
      if dt < !best then best := dt
    done;
    !best
  in
  let parse_all () =
    List.iter (fun s -> ignore (Pdt_pdb.Pdb_parse.of_string s)) texts
  in
  let parse_all_seed () =
    List.iter (fun s -> ignore (Pdt_pdb.Pdb_parse_ref.of_string s)) texts
  in
  Pdt_util.Intern.clear ();
  parse_all ();  (* warm-up populates the pool; steady state is all hits *)
  (* the two parsers are compared as a ratio, so interleave their reps:
     a load spike hits both, not whichever one owned that time slice *)
  let parse_reps = if quick then 5 else 15 in
  let t_parse = ref infinity and t_parse_seed = ref infinity in
  for _ = 1 to parse_reps do
    t_parse := min !t_parse (cpu_once parse_all);
    t_parse_seed := min !t_parse_seed (cpu_once parse_all_seed)
  done;
  let t_parse = !t_parse and t_parse_seed = !t_parse_seed in
  let istats = Pdt_util.Intern.stats () in
  let ihit = Pdt_util.Intern.hit_rate () in
  let t_write =
    best cpu_once (fun () ->
        List.iter (fun p -> ignore (Pdt_pdb.Pdb_write.to_string p)) pdbs)
  in
  let t_merge_seq = best wall_once (fun () -> ignore (D.merge pdbs)) in
  (* time the parallel merge at every requested domain count the host can
     actually provide; the rest of the curve is recorded as skipped.  The
     byte-identity check below always forces the multi-domain chunked
     path, since correctness must not depend on the host *)
  let cores = Domain.recommended_domain_count () in
  let merge_curve =
    List.map
      (fun d ->
        if d <= cores then
          ( d,
            Some
              (best wall_once (fun () ->
                   ignore (Pdt_build.Merge_par.merge ~domains:d pdbs))) )
        else (d, None))
      domains
  in
  let best_par =
    List.fold_left
      (fun acc (d, t) ->
        match (t, acc) with
        | Some t, Some (_, bt) when d > 1 && t < bt -> Some (d, t)
        | Some t, None when d > 1 -> Some (d, t)
        | _ -> acc)
      None merge_curve
  in
  let merged_seq = Pdt_pdb.Pdb_write.to_string (D.merge pdbs) in
  let merged_par =
    Pdt_pdb.Pdb_write.to_string (Pdt_build.Merge_par.merge ~domains:4 pdbs)
  in
  let identical = String.equal merged_seq merged_par in
  let ns t = t *. 1e9 in
  let mbs t = if t > 0.0 then mb /. t else 0.0 in
  Printf.printf "corpus: %d PDBs, %d bytes (%.2f MiB); best of %d\n\n"
    (List.length texts) total_bytes mb reps;
  Printf.printf "%-28s %14s %10s\n" "operation (whole corpus)" "ns/op" "MB/s";
  let row name t with_tp =
    Printf.printf "%-28s %14.0f %10s\n" name (ns t)
      (if with_tp then Printf.sprintf "%.1f" (mbs t) else "-")
  in
  row "parse (single-pass)" t_parse true;
  row "parse (seed reference)" t_parse_seed true;
  row "write" t_write true;
  row "merge sequential" t_merge_seq false;
  List.iter
    (fun (d, t) ->
      match t with
      | Some t -> row (Printf.sprintf "merge parallel (%d dom)" d) t false
      | None ->
          Printf.printf "%-28s %14s %10s  (host has %d core%s)\n"
            (Printf.sprintf "merge parallel (%d dom)" d) "skipped" "-" cores
            (if cores = 1 then "" else "s"))
    merge_curve;
  Printf.printf "\nparse speedup vs seed parser    : %.2fx\n" (t_parse_seed /. t_parse);
  (match best_par with
   | Some (d, t) ->
       Printf.printf
         "merge speedup parallel vs flat  : %.2fx at %d domains (byte-identical: %b)\n"
         (t_merge_seq /. t) d identical
   | None ->
       Printf.printf
         "merge speedup parallel vs flat  : skipped — host has %d core%s, no \
          multi-domain point measurable (byte-identical: %b)\n"
         cores (if cores = 1 then "" else "s") identical);
  Printf.printf "intern: %d entries, %d hits, %d misses (%.1f%% hit rate)\n"
    istats.Pdt_util.Intern.entries istats.Pdt_util.Intern.hits
    istats.Pdt_util.Intern.misses (100.0 *. ihit);
  let oc = open_out "BENCH_pdb_io.json" in
  let curve_json =
    String.concat ",\n"
      (List.map
         (fun (d, t) ->
           match t with
           | Some t ->
               Printf.sprintf
                 "    { \"domains\": %d, \"ns_per_op\": %.0f, \"skipped\": false }"
                 d (ns t)
           | None ->
               Printf.sprintf
                 "    { \"domains\": %d, \"skipped\": true, \"host_cores\": %d }"
                 d cores)
         merge_curve)
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"pdb_io\",\n\
    \  \"quick\": %b,\n\
    \  \"pdb_bytes\": %d,\n\
    \  \"inputs\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"parse\": { \"ns_per_op\": %.0f, \"mb_per_s\": %.2f },\n\
    \  \"parse_seed\": { \"ns_per_op\": %.0f, \"mb_per_s\": %.2f },\n\
    \  \"parse_speedup\": %.2f,\n\
    \  \"write\": { \"ns_per_op\": %.0f, \"mb_per_s\": %.2f },\n\
    \  \"merge_sequential\": { \"ns_per_op\": %.0f },\n\
    \  \"merge_parallel\": [\n%s\n  ],\n\
    \  \"merge_speedup\": %s,\n\
    \  \"merge_identical\": %b,\n\
    \  \"intern\": { \"entries\": %d, \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f }\n\
     }\n"
    quick total_bytes (List.length texts) cores
    (ns t_parse) (mbs t_parse)
    (ns t_parse_seed) (mbs t_parse_seed)
    (t_parse_seed /. t_parse)
    (ns t_write) (mbs t_write)
    (ns t_merge_seq)
    curve_json
    (match best_par with
     | Some (_, t) -> Printf.sprintf "%.2f" (t_merge_seq /. t)
     | None -> "null")
    identical
    istats.Pdt_util.Intern.entries istats.Pdt_util.Intern.hits
    istats.Pdt_util.Intern.misses ihit;
  close_out oc;
  print_endline "wrote BENCH_pdb_io.json"

(* ------------------------------------------------------------------ *)
(* B8: tracing overhead                                                *)
(* ------------------------------------------------------------------ *)

let b8_trace_overhead ~quick () =
  section "B8: tracing overhead (span layer; disabled spans are one flag load)";
  let module T = Pdt_util.Trace in
  let n_tus = if quick then 6 else 12 in
  let build ~traced () =
    let vfs, sources = Pdt_workloads.Generator.project_vfs ~n_tus () in
    if traced then T.start ();
    let t0 = Unix.gettimeofday () in
    let r =
      Pdt_build.Build.build
        ~options:{ Pdt_build.Build.default_options with domains = 4; cache_dir = None }
        ~vfs sources
    in
    let dt = Unix.gettimeofday () -. t0 in
    if traced then T.stop ();
    assert (r.Pdt_build.Build.failed = 0);
    dt
  in
  ignore (build ~traced:false ());  (* warm up allocators and code paths *)
  let reps = if quick then 3 else 5 in
  (* best-of-N: overhead is a difference of small numbers, so take the
     noise floor of each configuration rather than a mean *)
  let best f = List.fold_left min infinity (List.init reps (fun _ -> f ())) in
  let off = best (build ~traced:false) in
  let on = best (build ~traced:true) in
  let events =
    List.fold_left (fun acc (_, evs) -> acc + List.length evs) 0 (T.tracks ())
  in
  (* the disabled path itself: a span call with tracing off *)
  T.stop ();
  let n = 2_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    sink := !sink + T.span ~cat:"b8" "noop" (fun () -> i land 1)
  done;
  let disabled_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n in
  ignore (Sys.opaque_identity !sink);
  let overhead_pct = (on -. off) /. off *. 100.0 in
  Printf.printf "project: %d TUs + main, 4 domains, no cache, best of %d\n\n"
    n_tus reps;
  Printf.printf "build, tracing off        : %.3fs\n" off;
  Printf.printf "build, tracing on         : %.3fs  (%d events captured)\n" on events;
  Printf.printf "enabled overhead          : %+.1f%%\n" overhead_pct;
  Printf.printf "disabled span call        : %.1f ns  (acceptance: off-path <= 2%% of build)\n"
    disabled_ns;
  let oc = open_out "BENCH_trace.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"trace_overhead\",\n\
    \  \"quick\": %b,\n\
    \  \"n_tus\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"build_off_s\": %.4f,\n\
    \  \"build_on_s\": %.4f,\n\
    \  \"enabled_overhead_pct\": %.2f,\n\
    \  \"events\": %d,\n\
    \  \"dropped_events\": %d,\n\
    \  \"disabled_span_ns\": %.1f\n\
     }\n"
    quick n_tus reps off on overhead_pct events (T.dropped_events ()) disabled_ns;
  close_out oc;
  print_endline "wrote BENCH_trace.json"

(* ------------------------------------------------------------------ *)
(* B9: edit-rebuild latency, cold vs incremental                       *)
(* ------------------------------------------------------------------ *)

let b9_incremental ~quick () =
  section "B9: edit-rebuild latency (cold build vs --incremental)";
  let module I = Pdt_build.Incremental in
  let module B = Pdt_build.Build in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let n_tus = if quick then 8 else 24 in
  let vfs, sources = Pdt_workloads.Generator.project_vfs ~n_tus () in
  let cache_dir = Filename.temp_file "pdt-bench-b9" ".cache" in
  Sys.remove cache_dir;
  let domains = 4 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let rebuild () =
    I.build
      ~options:
        { I.default_options with
          build = { B.default_options with domains; cache_dir = Some cache_dir } }
      ~vfs sources
  in
  let cold () =
    B.build
      ~options:{ B.default_options with domains; cache_dir = None }
      ~vfs sources
  in
  let append path extra =
    match Pdt_util.Vfs.read_raw vfs path with
    | Some c -> Pdt_util.Vfs.add_file vfs path (c ^ extra)
    | None -> failwith ("b9: missing " ^ path)
  in
  let reps = if quick then 3 else 5 in
  let best f = List.fold_left min infinity (List.init reps (fun _ -> f ())) in
  ignore (cold ());                      (* warm up code paths *)
  let cold_s = best (fun () -> fst (time cold)) in
  let seed_s, seed = time rebuild in        (* populates cache + state *)
  assert (List.length seed.I.units = n_tus + 1);
  (* each rep appends a fresh declaration so the edit is never a no-op *)
  let n = ref 0 in
  let stats = ref (0, 0) in
  let timed_edit mk =
    best (fun () ->
        n := !n + 1;
        mk !n;
        let dt, r = time rebuild in
        assert (not r.I.fallback);
        stats := (r.I.reanalyzed, r.I.reused);
        dt)
  in
  let header_s =
    timed_edit (fun i ->
        append "generated.h" (Printf.sprintf "int b9_h_%d(int);\n" i))
  in
  let h_rean, h_reused = !stats in
  let tu_s =
    timed_edit (fun i ->
        append "tu0.cpp" (Printf.sprintf "int b9_tu_%d() { return %d; }\n" i i))
  in
  let t_rean, t_reused = !stats in
  (* trailing whitespace only: key-invariant, everything must be reused *)
  let noop_s = timed_edit (fun _ -> append "tu1.cpp" "   \n") in
  let n_rean, n_reused = !stats in
  rm_rf cache_dir;
  let speedup a = cold_s /. a in
  Printf.printf "project: %d TUs + main, %d domains, best of %d\n\n" n_tus
    domains reps;
  Printf.printf "cold build (no cache)     : %.3fs\n" cold_s;
  Printf.printf "incremental seed          : %.3fs\n" seed_s;
  Printf.printf
    "header edit rebuild       : %.3fs  (%.1fx, reanalyzed=%d reused=%d)\n"
    header_s (speedup header_s) h_rean h_reused;
  Printf.printf
    "TU-body edit rebuild      : %.3fs  (%.1fx, reanalyzed=%d reused=%d)\n"
    tu_s (speedup tu_s) t_rean t_reused;
  Printf.printf
    "whitespace no-op rebuild  : %.3fs  (%.1fx, reanalyzed=%d reused=%d)\n"
    noop_s (speedup noop_s) n_rean n_reused;
  let oc = open_out "BENCH_incremental.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"incremental_rebuild\",\n\
    \  \"quick\": %b,\n\
    \  \"n_tus\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"cold_s\": %.4f,\n\
    \  \"seed_s\": %.4f,\n\
    \  \"header_edit_s\": %.4f,\n\
    \  \"header_reanalyzed\": %d,\n\
    \  \"header_reused\": %d,\n\
    \  \"tu_edit_s\": %.4f,\n\
    \  \"tu_reanalyzed\": %d,\n\
    \  \"tu_reused\": %d,\n\
    \  \"noop_edit_s\": %.4f,\n\
    \  \"noop_reanalyzed\": %d,\n\
    \  \"noop_reused\": %d,\n\
    \  \"speedup_tu_edit\": %.2f,\n\
    \  \"speedup_noop\": %.2f\n\
     }\n"
    quick n_tus domains reps cold_s seed_s header_s h_rean h_reused tu_s t_rean
    t_reused noop_s n_rean n_reused (speedup tu_s) (speedup noop_s);
  close_out oc;
  print_endline "wrote BENCH_incremental.json"

(* ------------------------------------------------------------------ *)
(* B10: container scaling, ASCII vs PDB-B binary                       *)
(* ------------------------------------------------------------------ *)

let b10_pdb_scale ~quick ~domains () =
  section "B10: PDB container scaling — ASCII vs PDB-B binary (mmap)";
  (* Corpus: a compiled template-heavy project, replicated with renamed
     items (Generator.replicate_corpus) so the merge cannot deduplicate
     the clones — the merged PDB grows linearly with the replica count,
     synthesizing a production-size database without paying thousands of
     front-end compiles. *)
  let n_tus = if quick then 4 else 8 in
  let replicas = if quick then 5 else 40 in
  let cfg =
    { Pdt_workloads.Generator.default_config with
      n_class_templates = (if quick then 12 else 24);
      methods_per_class = 6; chain_depth = 4;
      n_instantiation_types = (if quick then 4 else 6) }
  in
  let vfs, files = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus () in
  let base =
    List.map
      (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
      files
  in
  let units = Pdt_workloads.Generator.replicate_corpus ~replicas base in
  let merged = D.merge units in
  let ascii = Pdt_pdb.Pdb_write.to_string merged in
  let bin = Pdt_pdb.Pdb_bin.to_string merged in
  let reps = if quick then 5 else 3 in
  let cpu_once f =
    Gc.full_major ();
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let wall_once f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best time_once f =
    let best = ref infinity in
    for _ = 1 to reps do
      let dt = time_once f in
      if dt < !best then best := dt
    done;
    !best
  in
  (* on-disk corpus: the merged PDB and every unit PDB, in both containers *)
  let dir = Filename.temp_file "pdt-bench-b10" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let apath = Filename.concat dir "merged.pdb"
  and bpath = Filename.concat dir "merged.pdbb" in
  write apath ascii;
  write bpath bin;
  let unit_paths =
    List.mapi
      (fun i p ->
        let a = Filename.concat dir (Printf.sprintf "unit_%03d.pdb" i) in
        let b = Filename.concat dir (Printf.sprintf "unit_%03d.pdbb" i) in
        write a (Pdt_pdb.Pdb_write.to_string p);
        write b (Pdt_pdb.Pdb_bin.to_string p);
        (a, b))
      units
  in
  (* warm-up: populate the intern pool and touch every code path once, so
     the two containers compete from the same steady state *)
  Pdt_util.Intern.clear ();
  ignore (Pdt_pdb.Pdb_parse.of_string ascii);
  ignore (Pdt_pdb.Pdb_bin.of_string bin);
  (* in-memory parse: full Pdb.t materialization from bytes *)
  let t_parse_a = best cpu_once (fun () -> ignore (Pdt_pdb.Pdb_parse.of_string ascii)) in
  let t_parse_b = best cpu_once (fun () -> ignore (Pdt_pdb.Pdb_bin.of_string bin)) in
  (* cold index load: file on disk -> fully indexed Ductape value *)
  let t_index_a = best wall_once (fun () -> ignore (D.of_file apath)) in
  let t_index_b = best wall_once (fun () -> ignore (D.of_file bpath)) in
  (* the mmap view's first step: file on disk -> mapped and validated *)
  let t_view = best wall_once (fun () -> ignore (Pdt_pdb.Pdb_bin.View.of_file bpath)) in
  (* merge-from-disk curve: load every unit PDB of one container and merge
     at each requested domain count; counts beyond the host's cores are
     recorded as skipped, never run oversubscribed *)
  let cores = Domain.recommended_domain_count () in
  let merge_from paths d =
    let pdbs = List.map Pdt_pdb.Pdb_io.of_file paths in
    if d = 1 then ignore (D.merge pdbs)
    else ignore (Pdt_build.Merge_par.merge ~domains:d pdbs)
  in
  let merge_curve =
    List.map
      (fun d ->
        if d <= cores then
          let ta = best wall_once (fun () -> merge_from (List.map fst unit_paths) d) in
          let tb = best wall_once (fun () -> merge_from (List.map snd unit_paths) d) in
          (d, Some (ta, tb))
        else (d, None))
      domains
  in
  List.iter (fun (a, b) -> Sys.remove a; Sys.remove b) unit_paths;
  Sys.remove apath;
  Sys.remove bpath;
  Unix.rmdir dir;
  let ns t = t *. 1e9 in
  Printf.printf
    "corpus: %d unit PDBs (%d TUs x %d replicas), merged %d items, \
     %d bytes ASCII, %d bytes binary; best of %d\n\n"
    (List.length units) (List.length files) replicas
    (Pdt_pdb.Pdb.item_count merged) (String.length ascii) (String.length bin)
    reps;
  Printf.printf "%-34s %14s %14s %8s\n" "operation (merged PDB)" "ASCII ns"
    "binary ns" "speedup";
  let row name ta tb =
    Printf.printf "%-34s %14.0f %14.0f %7.1fx\n" name (ns ta) (ns tb) (ta /. tb)
  in
  row "parse (bytes -> Pdb.t)" t_parse_a t_parse_b;
  row "cold index load (file -> Ductape)" t_index_a t_index_b;
  Printf.printf "%-34s %14s %14.0f\n" "mmap + validate (file -> View.t)" "-"
    (ns t_view);
  Printf.printf "\nmerge from disk (%d unit PDBs):\n" (List.length units);
  List.iter
    (fun (d, t) ->
      match t with
      | Some (ta, tb) ->
          Printf.printf
            "  %d domain%s: ASCII %.0f ns, binary %.0f ns (%.1fx)\n" d
            (if d = 1 then " " else "s") (ns ta) (ns tb) (ta /. tb)
      | None ->
          Printf.printf "  %d domains: skipped (host has %d core%s)\n" d cores
            (if cores = 1 then "" else "s"))
    merge_curve;
  let oc = open_out "BENCH_pdb_scale.json" in
  let curve_json =
    String.concat ",\n"
      (List.map
         (fun (d, t) ->
           match t with
           | Some (ta, tb) ->
               Printf.sprintf
                 "    { \"domains\": %d, \"ascii_ns\": %.0f, \"binary_ns\": \
                  %.0f, \"speedup\": %.2f, \"skipped\": false }"
                 d (ns ta) (ns tb) (ta /. tb)
           | None ->
               Printf.sprintf
                 "    { \"domains\": %d, \"skipped\": true, \"host_cores\": %d }"
                 d cores)
         merge_curve)
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"pdb_scale\",\n\
    \  \"quick\": %b,\n\
    \  \"host_cores\": %d,\n\
    \  \"corpus\": { \"tus\": %d, \"replicas\": %d, \"unit_pdbs\": %d,\n\
    \              \"merged_items\": %d, \"ascii_bytes\": %d, \"binary_bytes\": %d },\n\
    \  \"parse\": { \"ascii_ns\": %.0f, \"binary_ns\": %.0f, \"speedup\": %.2f },\n\
    \  \"cold_index\": { \"ascii_ns\": %.0f, \"binary_ns\": %.0f, \"speedup\": %.2f },\n\
    \  \"mmap_view\": { \"open_ns\": %.0f },\n\
    \  \"merge\": [\n%s\n  ]\n\
     }\n"
    quick cores (List.length files) replicas (List.length units)
    (Pdt_pdb.Pdb.item_count merged) (String.length ascii) (String.length bin)
    (ns t_parse_a) (ns t_parse_b) (t_parse_a /. t_parse_b)
    (ns t_index_a) (ns t_index_b) (t_index_a /. t_index_b)
    (ns t_view)
    curve_json;
  close_out oc;
  print_endline "wrote BENCH_pdb_scale.json"

(* ------------------------------------------------------------------ *)
(* Specialization-mapping ablation                                     *)
(* ------------------------------------------------------------------ *)

let specialization_mapping () =
  section "Ablation: specialization back-mapping (§3.1 limitation and remedy)";
  let src =
    "template <class T> class Traits { public: int size() { return 1; } };\n\
     template <> class Traits<char> { public: int size() { return 99; } };\n\
     template <class T> class Traits<T *> { public: int size() { return 8; } };\n\
     int main() { Traits<int> a; Traits<char> b; Traits<double *> c;\n\
     \  return a.size() + b.size() + c.size(); }"
  in
  let opts = { Pdt_sema.Sema.default_options with map_specializations = true } in
  let c = Pdt.compile_string ~opts src in
  let count mapping =
    let pdb =
      Pdt_analyzer.Analyzer.run
        ~opts:{ Pdt_analyzer.Analyzer.default_options with mapping }
        c.Pdt.program
    in
    let mapped =
      List.length
        (List.filter
           (fun (cl : P.class_item) -> cl.cl_templ <> None || cl.cl_stempl <> None)
           pdb.P.classes)
    in
    let total =
      List.length
        (List.filter (fun (cl : P.class_item) -> String.contains cl.P.cl_name '<') pdb.P.classes)
    in
    (mapped, total)
  in
  let m_loc, total = count Pdt_analyzer.Analyzer.Location_based in
  let m_ids, _ = count Pdt_analyzer.Analyzer.Il_ids in
  Printf.printf "instantiations+specializations : %d\n" total;
  Printf.printf "mapped, location-based (paper) : %d  (specializations unmapped)\n" m_loc;
  Printf.printf "mapped, IL ids (proposed fix)  : %d\n" m_ids

(* ------------------------------------------------------------------ *)
(* B12: the process farm vs the Domain pool, and crash-recovery cost   *)
(* ------------------------------------------------------------------ *)

(* Two questions: what does process isolation cost over in-process
   Domains on the same project (spawn + Config shipping + frame I/O),
   and what does a mid-unit worker kill cost end-to-end (death detection
   + respawn + requeued unit)?  Skipped-but-recorded when the worker
   binary is not built, like the oversubscribed points of B7/B10. *)
let b12_farm ~quick () =
  section "B12: build farm (process workers) vs Domain pool";
  let module Farm = Pdt_build.Farm in
  let module F = Pdt_util.Fault in
  match Farm.find_worker () with
  | None ->
      print_endline "pdbworker.exe not found next to the bench: skipped";
      let oc = open_out "BENCH_farm.json" in
      Printf.fprintf oc "{\n  \"bench\": \"farm\",\n  \"skipped\": true\n}\n";
      close_out oc;
      print_endline "wrote BENCH_farm.json"
  | Some exe ->
      Unix.putenv "PDT_PDBWORKER" exe;
      let n_tus = if quick then 8 else 20 in
      let workers = 4 in
      let reps = if quick then 2 else 3 in
      let best f = List.fold_left min infinity (List.init reps (fun _ -> f ())) in
      let options =
        { Pdt_build.Build.default_options with
          domains = workers; cache_dir = None; retries = 4 }
      in
      let farm_config =
        { Farm.default_config with
          workers; heartbeat_ms = 10; liveness_timeout = 1.0;
          backoff_initial = 0.01; backoff_max = 0.05 }
      in
      let pool_build () =
        let vfs, sources = Pdt_workloads.Generator.project_vfs ~n_tus () in
        let t0 = Unix.gettimeofday () in
        let r = Pdt_build.Build.build ~options ~vfs sources in
        assert (r.Pdt_build.Build.failed = 0);
        Unix.gettimeofday () -. t0
      in
      let farm_build () =
        let vfs, sources = Pdt_workloads.Generator.project_vfs ~n_tus () in
        let t0 = Unix.gettimeofday () in
        let r = Farm.build ~config:farm_config ~options ~vfs sources in
        assert (r.Pdt_build.Build.failed = 0);
        Unix.gettimeofday () -. t0
      in
      ignore (pool_build ());  (* warm up allocators and code paths *)
      let pool_s = best pool_build in
      let farm_s = best farm_build in
      (* recovery latency: the same farm build under a seeded mid-unit
         kill schedule (PDT_FAULT_SPEC reaches the workers through the
         environment); the delta over the fault-free farm run prices
         death detection + respawn + the requeued unit *)
      let respawns_before =
        match
          List.find_opt (fun (n, _, _) -> n = "farm.respawn")
            (Pdt_util.Perf.snapshot ())
        with
        | Some (_, calls, _) -> calls
        | None -> 0
      in
      let kill_rate = 0.1 and kill_seed = 11 in
      Unix.putenv F.env_var
        (F.spec_string ~sites:[ "farm.worker.kill" ] ~seed:kill_seed
           ~rate:kill_rate ());
      let kill_clean, kill_s =
        Fun.protect
          ~finally:(fun () -> Unix.putenv F.env_var "")
          (fun () ->
            let vfs, sources = Pdt_workloads.Generator.project_vfs ~n_tus () in
            let t0 = Unix.gettimeofday () in
            let r = Farm.build ~config:farm_config ~options ~vfs sources in
            (r.Pdt_build.Build.failed = 0, Unix.gettimeofday () -. t0))
      in
      let respawns =
        (match
           List.find_opt (fun (n, _, _) -> n = "farm.respawn")
             (Pdt_util.Perf.snapshot ())
         with
         | Some (_, calls, _) -> calls
         | None -> 0)
        - respawns_before
      in
      let overhead_pct = (farm_s -. pool_s) /. pool_s *. 100.0 in
      let recovery_pct = (kill_s -. farm_s) /. farm_s *. 100.0 in
      Printf.printf "project: %d TUs + main, %d workers, no cache, best of %d\n\n"
        n_tus workers reps;
      Printf.printf "Domain pool               : %.3fs\n" pool_s;
      Printf.printf "process farm              : %.3fs  (%+.1f%% vs pool)\n"
        farm_s overhead_pct;
      Printf.printf
        "farm under kill schedule  : %.3fs  (%+.1f%% vs clean farm, rate %.2f, %d respawn%s, %s)\n"
        kill_s recovery_pct kill_rate respawns
        (if respawns = 1 then "" else "s")
        (if kill_clean then "recovered clean" else "degraded");
      let oc = open_out "BENCH_farm.json" in
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"farm\",\n\
        \  \"skipped\": false,\n\
        \  \"quick\": %b,\n\
        \  \"n_tus\": %d,\n\
        \  \"workers\": %d,\n\
        \  \"reps\": %d,\n\
        \  \"pool_s\": %.4f,\n\
        \  \"farm_s\": %.4f,\n\
        \  \"farm_overhead_pct\": %.2f,\n\
        \  \"kill\": {\n\
        \    \"rate\": %.2f,\n\
        \    \"seed\": %d,\n\
        \    \"wall_s\": %.4f,\n\
        \    \"recovery_overhead_pct\": %.2f,\n\
        \    \"respawns\": %d,\n\
        \    \"clean\": %b\n\
        \  }\n\
         }\n"
        quick n_tus workers reps pool_s farm_s overhead_pct kill_rate kill_seed
        kill_s recovery_pct respawns kill_clean;
      close_out oc;
      print_endline "wrote BENCH_farm.json"

(* ------------------------------------------------------------------ *)
(* B13: semantic analyses — define-use chains and MHP                  *)
(* ------------------------------------------------------------------ *)

(* Two costs.  The define-use pass runs inside the analyzer (there is no
   off switch), so the build side reports attribute volume and the query
   side reports chain-rendering throughput over every (routine, variable)
   pair of a generated project.  The MHP relation is never stored — it is
   derived per query by Mhp.compute — so we sweep spawn-ladder programs
   of growing width and price the derivation against the size of the
   pair set it produces. *)
let b13_semantic ~quick () =
  section "B13: semantic analyses (define-use chains, MHP)";
  let module M = Pdt_analyzer.Mhp in
  let module Duct = Pdt_tools.Duct in
  let reps = if quick then 2 else 3 in
  let best f = List.fold_left min infinity (List.init reps (fun _ -> f ())) in
  (* define-use: one single-Domain build of a generated project; the
     attribute totals make regressions in pass coverage visible *)
  let n_tus = if quick then 6 else 16 in
  let options =
    { Pdt_build.Build.default_options with domains = 1; cache_dir = None }
  in
  let vfs, sources = Pdt_workloads.Generator.project_vfs ~n_tus () in
  let build_once () =
    let t0 = Unix.gettimeofday () in
    let r = Pdt_build.Build.build ~options ~vfs sources in
    assert (r.Pdt_build.Build.failed = 0);
    (r.Pdt_build.Build.merged, Unix.gettimeofday () -. t0)
  in
  let merged, _ = build_once () in
  let build_s = best (fun () -> snd (build_once ())) in
  let du_vars, du_uses, du_uninit =
    List.fold_left
      (fun acc (r : P.routine_item) ->
        List.fold_left
          (fun (v, u, un) (dv : P.du_var) ->
            ( v + 1,
              u + List.length dv.P.v_uses,
              un
              + List.length
                  (List.filter (fun (x : P.du_use) -> x.P.u_uninit) dv.P.v_uses)
            ))
          acc r.P.ro_du)
      (0, 0, 0) merged.P.routines
  in
  let d = D.index merged in
  let chain_queries = ref 0 in
  let chain_pass () =
    let t0 = Unix.gettimeofday () in
    chain_queries := 0;
    List.iter
      (fun (r : P.routine_item) ->
        List.iter
          (fun (dv : P.du_var) ->
            ignore (Duct.chain_text d r dv);
            incr chain_queries)
          r.P.ro_du)
      merged.P.routines;
    Unix.gettimeofday () -. t0
  in
  let chain_s = best chain_pass in
  let chain_us =
    if !chain_queries = 0 then 0.0
    else chain_s *. 1e6 /. float_of_int !chain_queries
  in
  Printf.printf
    "define-use: %d TUs + main, single Domain, best of %d\n\n" n_tus reps;
  Printf.printf "build (front end + analyzer + DU) : %.3fs\n" build_s;
  Printf.printf "attribute volume                  : %d vars, %d uses (%d possibly uninitialized)\n"
    du_vars du_uses du_uninit;
  Printf.printf "chain queries (all routine/var)   : %d in %.4fs  (%.1f us/query)\n"
    !chain_queries chain_s chain_us;
  (* MHP: spawn ladders — main spawns k routines, all windows overlap,
     then joins them all; pairs grow ~k^2/2, so the sweep prices the
     query-time derivation against its own output size *)
  let spawn_program ~k =
    let b = Buffer.create 1024 in
    let pr fmt =
      Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n')
        fmt
    in
    for i = 0 to k - 1 do pr "int f%d() { return %d; }" i i done;
    pr "int main() {";
    for i = 0 to k - 1 do pr "  spawn f%d();" i done;
    for i = 0 to k - 1 do pr "  join f%d;" i done;
    pr "  return 0;";
    pr "}";
    Buffer.contents b
  in
  let ks = if quick then [ 4; 16 ] else [ 4; 16; 64; 128 ] in
  let mhp_points =
    List.map
      (fun k ->
        let c = Pdt.compile_string (spawn_program ~k) in
        assert (not (Pdt_util.Diag.has_errors c.Pdt.diags));
        let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
        let compute_s = best (fun () ->
          let t0 = Unix.gettimeofday () in
          ignore (M.compute pdb);
          Unix.gettimeofday () -. t0)
        in
        let m = M.compute pdb in
        let sites =
          List.fold_left
            (fun acc (r : P.routine_item) -> acc + List.length r.P.ro_spawns)
            0 pdb.P.routines
        in
        (k, List.length pdb.P.routines, sites, List.length (M.pairs m),
         compute_s))
      ks
  in
  sub "Mhp.compute over spawn ladders";
  List.iter
    (fun (k, routines, sites, pairs, s) ->
      Printf.printf "k=%3d : %3d routines, %3d sites -> %5d pairs in %.5fs\n"
        k routines sites pairs s)
    mhp_points;
  let oc = open_out "BENCH_pdb_semantic.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"pdb_semantic\",\n\
    \  \"quick\": %b,\n\
    \  \"du\": {\n\
    \    \"n_tus\": %d,\n\
    \    \"build_s\": %.4f,\n\
    \    \"vars\": %d,\n\
    \    \"uses\": %d,\n\
    \    \"uninit\": %d,\n\
    \    \"chain_queries\": %d,\n\
    \    \"chain_wall_s\": %.5f,\n\
    \    \"chain_us_per_query\": %.2f\n\
    \  },\n\
    \  \"mhp\": [\n"
    quick n_tus build_s du_vars du_uses du_uninit !chain_queries chain_s
    chain_us;
  List.iteri
    (fun i (k, routines, sites, pairs, s) ->
      Printf.fprintf oc
        "    { \"k\": %d, \"routines\": %d, \"spawn_sites\": %d, \"pairs\": %d, \"compute_s\": %.6f }%s\n"
        k routines sites pairs s
        (if i = List.length mhp_points - 1 then "" else ","))
    mhp_points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_pdb_semantic.json"

(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let domains = requested_domains () in
  fig1 ();
  fig3 ();
  table1 ();
  fig4 ();
  table2_fig5 ();
  fig6_fig7 ();
  fig8 ();
  parallel_profile ();
  b1_instantiation_modes ();
  b2_pdbmerge_scaling ();
  b6_parallel_build ();
  b7_pdb_io ~quick ~domains ();
  b8_trace_overhead ~quick ();
  b9_incremental ~quick ();
  b10_pdb_scale ~quick ~domains ();
  b12_farm ~quick ();
  b13_semantic ~quick ();
  specialization_mapping ();
  if not quick then bechamel_benches ();
  print_newline ()
