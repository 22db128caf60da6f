(* The traced run: per-layer metrics from spans this benchmark records
   around its own calls into each library's public functions.  The probe
   is the same for every workload, so each traced run prints every
   per-layer metric; only [trace_overhead_pct] times the workload's own
   operation with the libraries' built-in tracing on and off. *)

open Common
module B = Pdt_build.Build
module I = Pdt_build.Incremental
module D = Pdt_ductape.Ductape
module P = Pdt_pdb.Pdb
module S = Pdt_serve
module Trace = Pdt_util.Trace

(* ---- the catalogue ------------------------------------------------------ *)

(* Every per-layer metric with its unit and the end-to-end metric (and
   workload) a change to that layer should move.  Which way is better is
   recorded in BENCHMARK.json. *)
let build_moves = "op_p50_ms (build_s), peak_rss_mb on build_cold"
let edit_moves = "op_p50_ms (edit_tu_ms), aux_p50_ms (edit_noop_ms) on build_edit"
let work_moves = "none: a change here changes the work, not the speed (build_edit)"

let catalogue : (string * string * string) list =
  [ ("pp.run_ms", "ms", build_moves);
    ("pp.tokens", "count", build_moves);
    ("lex.tokenize_ms", "ms", build_moves);
    ("lex.mb_per_s", "MB/s", build_moves);
    ("lex.alloc_words_per_byte", "words/B", build_moves);
    ("parse.tu_ms", "ms", build_moves);
    ("sema.analyze_ms", "ms", build_moves);
    ("sema.instantiations", "count", build_moves);
    ("analyzer.run_ms", "ms", build_moves);
    ("pdb.digest_ms", "ms", build_moves);
    ("ductape.merge_ms", "ms", build_moves);
    ("ductape.dedup_ratio", "ratio", build_moves);
    ("pdb.bin_encode_ms", "ms", build_moves);
    ("pdb.bin_bytes", "bytes", build_moves);
    ("build.parallel_speedup", "ratio", build_moves);
    ("gc.major_collections", "count", build_moves);
    ("gc.minor_mwords", "Mwords", build_moves);
    ("incremental.reanalyzed", "count", work_moves);
    ("incremental.reused", "count", work_moves);
    ("incremental.groups_reused", "count", work_moves);
    ("incremental.groups_remerged", "count", work_moves);
    ("incremental.fallback", "count", work_moves);
    ("build.cache_key_ms", "ms", edit_moves);
    ("pdb.ascii_write_ms", "ms", edit_moves);
    ("pdb.ascii_parse_ms", "ms", edit_moves);
    ("pdb.partial_digest_ms", "ms", edit_moves);
    ("ductape.partial_merge_ms", "ms", edit_moves);
    ("build.cache_store_ms", "ms", edit_moves);
    ("build.cache_load_ms", "ms", edit_moves);
    ("build.cache_bytes", "bytes", edit_moves) ]
  @ List.concat_map
      (fun v ->
        let client = "op_p50_ms (serve_p50_us) and the serve_p99_us report line on serve_mix" in
        let server = "ops_per_s (serve_qps) on serve_mix" in
        [ (Printf.sprintf "serve.%s.p50_us" v, "us", client);
          (Printf.sprintf "serve.%s.p90_us" v, "us", client);
          (Printf.sprintf "query.%s.handle_us" v, "us", server);
          (Printf.sprintf "json.%s.encode_us" v, "us", server);
          (Printf.sprintf "query.%s.reply_bytes" v, "bytes", server) ])
      Serve.verbs
  @ [ ("json.decode_us", "us", "ops_per_s (serve_qps) on serve_mix");
      ("snapshot.view_open_ms", "ms", "aux_p50_ms (reload_ms) on serve_mix");
      ("snapshot.decode_ms", "ms", "aux_p50_ms (reload_ms) on serve_mix");
      ("snapshot.index_ms", "ms", "aux_p50_ms (reload_ms) on serve_mix");
      ("serve.loadgen_cpu_s", "s",
       "none: client-side cost, so work cannot move onto the generator unseen");
      ("trace_overhead_pct", "%", "none: cost of tracing the workload's operation") ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) catalogue with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("no per-layer metric " ^ name)

let ms name = span_total name *. 1e3
let med_us name = median (span_samples name) *. 1e6
let med_ms name = median (span_samples name) *. 1e3

(* ---- build phase: every unit driven sequentially ------------------------- *)

type drive = {
  unit_pdbs : P.t list;
  merged : P.t;
  bin : string;
  vals : (string * float) list;
}

let drive_units t ~vfs ~sources =
  let gc0 = Gc.quick_stat () in
  let tokens = ref 0 and lex_bytes = ref 0 and lex_words = ref 0.0 in
  let inst = ref 0 in
  let unit_pdbs =
    List.map
      (fun source ->
        (* the same private copy and predefined macro as Build.compile_unit *)
        let vfs = Pdt_util.Vfs.copy vfs in
        let diags = Pdt_util.Diag.create () in
        let limits = Pdt_util.Limits.create () in
        let pp =
          span "pp.run" (fun () ->
              Pdt_pp.Preproc.run ~predefined:[ ("__PDT__", "1") ] ~limits ~vfs
                ~diags source)
        in
        tokens := !tokens + List.length pp.Pdt_pp.Preproc.tokens;
        List.iter
          (fun (f : Pdt_pp.Preproc.file_record) ->
            match Pdt_util.Vfs.read_raw vfs f.Pdt_pp.Preproc.f_path with
            | None -> ()
            | Some src ->
                let w0 = Gc.minor_words () in
                ignore
                  (span "lex.tokenize" (fun () ->
                       Pdt_lex.Lexer.tokenize ~diags:(Pdt_util.Diag.create ())
                         ~file:f.Pdt_pp.Preproc.f_path src));
                lex_words := !lex_words +. (Gc.minor_words () -. w0);
                lex_bytes := !lex_bytes + String.length src)
          pp.Pdt_pp.Preproc.source_files;
        let tu =
          span "parse.tu" (fun () ->
              Pdt_parse.Parser.parse_translation_unit ~limits ~diags ~file:source
                pp.Pdt_pp.Preproc.tokens)
        in
        let prog =
          span "sema.analyze" (fun () ->
              Pdt_sema.Sema.analyze ~limits ~diags pp tu)
        in
        let st = Pdt_il.Il.stats prog in
        inst := !inst + st.Pdt_il.Il.n_instantiated_classes
                + st.Pdt_il.Il.n_instantiated_routines;
        let pdb = span "analyzer.run" (fun () -> Pdt_analyzer.Analyzer.run prog) in
        op t (not (Pdt_util.Diag.has_errors diags)) (source ^ ": front-end errors");
        ignore (span "pdb.digest" (fun () -> digest pdb));
        pdb)
      sources
  in
  let merged = span "ductape.merge" (fun () -> D.merge unit_pdbs) in
  let bin = span "pdb.bin_encode" (fun () -> Pdt_pdb.Pdb_bin.to_string merged) in
  let gc1 = Gc.quick_stat () in
  let items = List.fold_left (fun a p -> a + P.item_count p) 0 unit_pdbs in
  { unit_pdbs; merged; bin;
    vals =
      [ ("pp.run_ms", ms "pp.run");
        ("pp.tokens", float_of_int !tokens);
        ("lex.tokenize_ms", ms "lex.tokenize");
        ("lex.mb_per_s", float_of_int !lex_bytes /. 1e6 /. span_total "lex.tokenize");
        ("lex.alloc_words_per_byte", !lex_words /. float_of_int !lex_bytes);
        ("parse.tu_ms", ms "parse.tu");
        ("sema.analyze_ms", ms "sema.analyze");
        ("sema.instantiations", float_of_int !inst);
        ("analyzer.run_ms", ms "analyzer.run");
        ("pdb.digest_ms", ms "pdb.digest");
        ("ductape.merge_ms", ms "ductape.merge");
        ("ductape.dedup_ratio",
         float_of_int items /. float_of_int (P.item_count merged));
        ("pdb.bin_encode_ms", ms "pdb.bin_encode");
        ("pdb.bin_bytes", float_of_int (String.length bin));
        ("gc.major_collections",
         float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6) ] }

(* ---- edit phase: group partials, the cache, incremental counts ----------- *)

let partial_phase t ~vfs ~sources ~(dr : drive) ~workdir =
  let o = { B.default_options with domains = nproc } in
  let keys =
    List.map
      (fun s ->
        span "build.cache_key" (fun () ->
            Pdt_build.Cache.key ~vfs ~options:(B.options_fingerprint o s) s))
      sources
  in
  (* the partials Incremental memoizes: merges of fixed-size unit groups *)
  let size = I.default_options.I.group_size in
  let groups = I.chunk size (List.combine keys dr.unit_pdbs) in
  let partials =
    List.map (fun g -> (I.group_key (List.map fst g), D.merge (List.map snd g))) groups
  in
  let texts =
    List.map
      (fun (k, p) -> (k, span "pdb.ascii_write" (fun () -> Pdt_pdb.Pdb_write.to_string p)))
      partials
  in
  List.iter
    (fun (_, s) -> ignore (span "pdb.ascii_parse" (fun () -> Pdt_pdb.Pdb_parse.of_string s)))
    texts;
  List.iter (fun (_, p) -> ignore (span "pdb.partial_digest" (fun () -> digest p))) partials;
  let top = span "ductape.partial_merge" (fun () -> D.merge (List.map snd partials)) in
  op t (digest top = digest dr.merged) "merge over group partials differs from the flat merge";
  let cache = Pdt_build.Cache.create ~dir:(Filename.concat workdir "probe-cache") () in
  List.iter
    (fun (k, s) -> span "build.cache_store" (fun () -> Pdt_build.Cache.store_serialized cache k s))
    texts;
  List.iter2
    (fun (k, _) (_, p) ->
      let back = span "build.cache_load" (fun () -> Pdt_build.Cache.load cache k) in
      op t (Option.map digest back = Some (digest p)) "cache load returned another partial")
    texts partials;
  let bytes =
    List.fold_left
      (fun a (k, _) -> a + (Unix.stat (Pdt_build.Cache.entry_path cache k)).Unix.st_size)
      0 texts
  in
  [ ("build.cache_key_ms", ms "build.cache_key");
    ("pdb.ascii_write_ms", ms "pdb.ascii_write");
    ("pdb.ascii_parse_ms", ms "pdb.ascii_parse");
    ("pdb.partial_digest_ms", ms "pdb.partial_digest");
    ("ductape.partial_merge_ms", ms "ductape.partial_merge");
    ("build.cache_store_ms", ms "build.cache_store");
    ("build.cache_load_ms", ms "build.cache_load");
    ("build.cache_bytes", float_of_int bytes) ]

let incremental_counts (r : I.result) =
  [ ("incremental.reanalyzed", float_of_int r.I.reanalyzed);
    ("incremental.reused", float_of_int r.I.reused);
    ("incremental.groups_reused", float_of_int r.I.groups_reused);
    ("incremental.groups_remerged", float_of_int r.I.groups_remerged);
    ("incremental.fallback", if r.I.fallback then 1.0 else 0.0) ]

(* ---- serve phase ----------------------------------------------------------- *)

let reps = 5

let snapshot_phase ~pdb_path =
  for _ = 1 to reps do
    let v = span "snapshot.view_open" (fun () -> Pdt_pdb.Pdb_bin.View.of_file pdb_path) in
    let p = span "snapshot.decode" (fun () -> Pdt_pdb.Pdb_bin.View.to_pdb v) in
    ignore (span "snapshot.index" (fun () -> D.index p))
  done;
  [ ("snapshot.view_open_ms", med_ms "snapshot.view_open");
    ("snapshot.decode_ms", med_ms "snapshot.decode");
    ("snapshot.index_ms", med_ms "snapshot.index") ]

(* [per_verb] requests of each verb from the seeded stream. *)
let verb_sample ~pool ~mix_seed ~per_verb =
  let stream = Serve.requests ~pool ~seed:mix_seed ~stream:7 (per_verb * 100) in
  List.concat_map
    (fun v ->
      List.filter (fun (verb, _) -> verb = v) stream
      |> List.filteri (fun i _ -> i < per_verb))
    Serve.verbs

let handler_phase t ~holder ~sample =
  let bytes = Hashtbl.create 16 in
  List.iter
    (fun (verb, line) ->
      match span "json.decode" (fun () -> J.parse line) with
      | Error e -> op t false ("request does not parse: " ^ e)
      | Ok req ->
          let reply, _ =
            span ("query." ^ verb) (fun () -> S.Query.handle_request holder req)
          in
          let s = span ("json." ^ verb) (fun () -> J.to_string reply) in
          op t (J.member "ok" reply = Some (J.Bool true)) (verb ^ " reply not ok");
          Hashtbl.add bytes verb (float_of_int (String.length s)))
    sample;
  ("json.decode_us", med_us "json.decode")
  :: List.concat_map
       (fun v ->
         [ (Printf.sprintf "query.%s.handle_us" v, med_us ("query." ^ v));
           (Printf.sprintf "json.%s.encode_us" v, med_us ("json." ^ v));
           (Printf.sprintf "query.%s.reply_bytes" v, median (Hashtbl.find_all bytes v)) ])
       Serve.verbs

let client_phase t ~pdb_path ~socket ~pool ~mix_seed ~seconds =
  let pid = Serve.start_daemon ~pdb:pdb_path ~socket in
  let results, _, cpu =
    Serve.load ~socket ~pool ~seed:mix_seed ~conns:nproc ~seconds ~corrupt:No_corruption
  in
  Serve.stop_daemon ~socket pid;
  List.iter (fun (r : Serve.conn_result) -> List.iter (fun e -> op t false e) r.Serve.errors) results;
  let lat = List.concat_map (fun (r : Serve.conn_result) -> r.Serve.lat) results in
  ("serve.loadgen_cpu_s", cpu)
  :: List.concat_map
       (fun v ->
         let xs = List.filter_map (fun (v', dt) -> if v' = v then Some dt else None) lat in
         [ (Printf.sprintf "serve.%s.p50_us" v, median xs *. 1e6);
           (Printf.sprintf "serve.%s.p90_us" v, quantile 0.9 xs *. 1e6) ])
       Serve.verbs

(* ---- the probe ------------------------------------------------------------- *)

(** Time [f] untraced and with the libraries' tracing recording, after
    one warm-up call, in two pairs of opposite order (off-on, on-off) so
    drift within the probe does not favour either side, and return the
    traced runs' extra time in percent. *)
let overhead f =
  f ();
  let plain = ref 0.0 and traced = ref 0.0 in
  let plain_run () = plain := !plain +. fst (timed f) in
  let traced_run () =
    Trace.start ();
    traced := !traced +. fst (timed f);
    Trace.stop ()
  in
  plain_run ();
  traced_run ();
  traced_run ();
  plain_run ();
  (!traced -. !plain) /. !plain *. 100.0

(** [f] repeated as often as one untimed call says it takes to fill
    [seconds], so a short operation is timed over enough work. *)
let at_least ~seconds f =
  let dt, () = timed f in
  let reps = max 1 (int_of_float (Float.ceil (seconds /. Float.max dt 1e-6))) in
  fun () ->
    for _ = 1 to reps do
      f ()
    done

let probe ~workload ~shape ~mix_seed ~seconds ~workdir =
  Hashtbl.reset spans;
  let t = tally () in
  let vfs, sources = project shape in
  let dr = drive_units t ~vfs ~sources in
  let par = B.build ~options:(build_options ~domains:nproc) ~vfs sources in
  Builds.check_units t par;
  op t (digest par.B.merged = digest dr.merged)
    "unit-by-unit drive differs from Build.build";
  let speedup = par.B.cpu_seconds /. par.B.wall_seconds in
  let partial = partial_phase t ~vfs ~sources ~dr ~workdir in
  (* incremental counts from one TU edit over a freshly seeded cache *)
  let cache_dir = Filename.concat workdir "probe-incr" in
  let ioptions = Builds.incr_options ~cache_dir in
  let ivfs, isources = project shape in
  let seeded = I.build ~options:ioptions ~vfs:ivfs isources in
  op t (Builds.incr_ok seeded) "seed build failed";
  let order = Builds.edit_order ~seed:shape.cfg.G.seed shape.tus in
  Builds.edit_tu ~vfs:ivfs ~order 0;
  let edited = I.build ~options:ioptions ~vfs:ivfs isources in
  op t (Builds.incr_ok edited) "incremental rebuild failed";
  let pdb_path = Filename.concat workdir "probe.pdbb" in
  Out_channel.with_open_bin pdb_path (fun oc -> output_string oc dr.bin);
  let snap = snapshot_phase ~pdb_path in
  let holder = S.Snapshot.load (S.Snapshot.Pdb_file pdb_path) in
  let pool = Serve.pool_of (S.Snapshot.current holder).S.Snapshot.dt in
  let sample = verb_sample ~pool ~mix_seed ~per_verb:15 in
  let handlers = handler_phase t ~holder ~sample in
  let client =
    client_phase t ~pdb_path ~socket:(Filename.concat workdir "probe.sock") ~pool
      ~mix_seed ~seconds
  in
  let overhead_pct =
    match workload with
    | "build_cold" ->
        overhead (fun () ->
            Builds.check_units t (B.build ~options:(build_options ~domains:nproc) ~vfs sources))
    | "build_edit" ->
        let k = ref 0 in
        overhead (fun () ->
            incr k;
            Builds.edit_tu ~vfs:ivfs ~order !k;
            op t (Builds.incr_ok (I.build ~options:ioptions ~vfs:ivfs isources))
              "incremental rebuild failed")
    | _ ->
        (* the query sample plus a reload: the serve path's spans are on
           snapshot loads, which a query alone never reaches *)
        let reload = {|{"id":0,"verb":"reload"}|} in
        overhead
          (at_least ~seconds:1.0 (fun () ->
               List.iter (fun (_, line) -> ignore (S.Query.handle_line holder line)) sample;
               let reply, _ = S.Query.handle_line holder reload in
               op t (Serve.ok_gen ~id:0 reply <> None) "in-process reload failed"))
  in
  let vals =
    dr.vals
    @ [ ("build.parallel_speedup", speedup) ]
    @ incremental_counts edited @ partial @ snap @ handlers @ client
    @ [ ("trace_overhead_pct", overhead_pct) ]
  in
  (t, vals)
