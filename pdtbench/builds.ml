(* The two build workloads, untraced: a cold project build to a merged
   PDB-B ([build_cold]) and edit-rebuild latency over a seeded cache
   ([build_edit]). *)

open Common
module B = Pdt_build.Build
module I = Pdt_build.Incremental

let unit_ok (u : B.unit_result) =
  match u.B.status with B.Compiled | B.Cached -> true | _ -> false

let status_text (u : B.unit_result) =
  match u.B.status with
  | B.Compiled -> "compiled"
  | B.Cached -> "cached"
  | B.Degraded m -> "degraded: " ^ m
  | B.Failed m -> "failed: " ^ m
  | B.Skipped -> "skipped"

let check_units t (r : B.result) =
  List.iter
    (fun u -> op t (unit_ok u) (u.B.source ^ " " ^ status_text u))
    r.B.units

(* Set-up is repeated and its median reported, so a single slow start
   does not move [setup_s]. *)
let setup_reps = 3

(** Run [f] until [seconds] have passed, at least [min_runs] times;
    returns the per-run results in order. *)
let repeat_for ~seconds ~min_runs f =
  let t0 = now () in
  let rec go acc n =
    if n >= min_runs && now () -. t0 >= seconds then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

(* ---- build_cold ------------------------------------------------------ *)

(** Child process of the set-up: generate the project and write how long
    that took to [out].  Timed inside a fresh process, so the heap of the
    process running the builds does not weigh on it. *)
let generate ~shape ~out =
  let dt, _ = timed (fun () -> project shape) in
  Out_channel.with_open_bin out (fun oc -> Printf.fprintf oc "%.9f\n" dt);
  true

let generation_s ~shape_arg ~seed ~workdir =
  let out = Filename.concat workdir "generate.s" in
  if run_child [ "generate"; shape_arg; string_of_int seed; out ] then
    float_of_string_opt (String.trim (In_channel.with_open_bin out In_channel.input_all))
  else None

let build_cold ~shape ~shape_arg ~seconds ~workdir ~corrupt =
  let t = tally () in
  (* set-up is generating the project, a few milliseconds that drifts of
     the host's speed move by a quarter from one second to the next: take
     a batch of samples before every build, so that they span the run as
     the builds do, and report their median *)
  let setups = ref [] in
  let sample_setup () =
    for _ = 1 to 25 do
      match generation_s ~shape_arg ~seed:shape.cfg.G.seed ~workdir with
      | Some dt -> setups := dt :: !setups
      | None -> op t false "project generation failed"
    done
  in
  sample_setup ();
  let vfs, sources = project shape in
  let out = Filename.concat workdir "project.pdbb" in
  (* one operation: the parallel build plus encoding and writing PDB-B *)
  let build () =
    let r = B.build ~options:(build_options ~domains:nproc) ~vfs sources in
    Pdt_pdb.Pdb_bin.to_file r.B.merged out;
    check_units t r;
    r
  in
  (* the first build grows the heap; it is the reference, not a sample *)
  let first = build () in
  let par_digest = digest first.B.merged in
  let items = Pdt_pdb.Pdb.item_count first.B.merged in
  let builds =
    repeat_for ~seconds ~min_runs:3 (fun _ ->
        sample_setup ();
        reset_peak_rss ();
        let dt, r = timed build in
        let peak = peak_rss_mb () in
        op t (digest r.B.merged = par_digest) "parallel builds disagree";
        (dt, peak, List.map (fun (u : B.unit_result) -> u.B.seconds) r.B.units))
  in
  let times = List.map (fun (dt, _, _) -> dt) builds in
  let peaks = List.map (fun (_, p, _) -> p) builds in
  let unit_times = List.concat_map (fun (_, _, us) -> us) builds in
  (* checks: the flat sequential merge and the PDB-B bytes on disk give
     the same digest as the parallel tree merge *)
  let seq_dt, seq = timed (fun () -> B.build ~options:(build_options ~domains:1) ~vfs sources) in
  check_units t seq;
  let seq_digest = digest seq.B.merged in
  let par_digest =
    if corrupt = Corrupt_digest then flip_first_char par_digest else par_digest
  in
  op t (par_digest = seq_digest)
    (Printf.sprintf "domains=%d digest %s <> domains=1 digest %s" nproc
       par_digest seq_digest);
  let disk_digest = digest (Pdt_pdb.Pdb_io.of_file out) in
  op t (disk_digest = seq_digest) "PDB-B bytes decode to another digest";
  let pdb_bytes = (Unix.stat out).Unix.st_size in
  let n_units = List.length sources in
  let build_s = median times in
  let unit_p50 = median unit_times and unit_p90 = quantile 0.9 unit_times in
  { attempted = t.ops;
    failed = t.bad;
    metrics =
      [ m "setup_s" "s" (median !setups);
        m "peak_rss_mb" "MB" (median peaks);
        m "op_p50_ms" "ms" (build_s *. 1e3);
        m "ops_per_s" "1/s"
          (float_of_int (n_units * List.length builds) /. sum times);
        m "aux_p50_ms" "ms" (unit_p50 *. 1e3) ];
    notes =
      [ ("builds", J.Num (float_of_int (List.length builds)));
        ("pdb_items", J.Num (float_of_int items));
        ("pdb_bytes", J.Num (float_of_int pdb_bytes));
        ("digest", J.Str seq_digest) ];
    report =
      [ Printf.sprintf "build_s        %.4f s   median of %d builds at %d domains (+ PDB-B write)"
          build_s (List.length builds) nproc;
        "build times   " ^ String.concat " " (List.map (Printf.sprintf "%.3f") times);
        Printf.sprintf "unit_ms        p50 %.3f  p90 %.3f over %d unit compiles"
          (unit_p50 *. 1e3) (unit_p90 *. 1e3) (List.length unit_times);
        Printf.sprintf "seq_build_s    %.4f s   one build at 1 domain (flat merge, check)" seq_dt;
        Printf.sprintf "peak_rss_mb    %.1f MB  median over builds" (median peaks) ]
      @ List.rev t.why }

(* ---- build_edit ------------------------------------------------------ *)

let incr_options ~cache_dir =
  { I.default_options with
    build = { B.default_options with domains = nproc; cache_dir = Some cache_dir } }

let incr_ok (r : I.result) =
  List.for_all
    (fun (u : I.unit_info) ->
      match u.I.disposition with I.Degraded _ | I.Failed _ -> false | _ -> true)
    r.I.units

(** Child process of the set-up: build the project once into a fresh
    cache, leaving the incremental state a developer would have. *)
let seed_cache ~shape ~cache_dir =
  rm_rf cache_dir;
  let vfs, sources = project shape in
  let r = I.build ~options:(incr_options ~cache_dir) ~vfs sources in
  incr_ok r

(* A one-TU edit: append a function to a TU, a different one each time,
   in a seeded order. *)
let edit_tu ~vfs ~order k =
  let i = order.(k mod Array.length order) in
  let path = Printf.sprintf "tu%d.cpp" i in
  let src = Option.get (Pdt_util.Vfs.read_raw vfs path) in
  Pdt_util.Vfs.add_file vfs path
    (src ^ Printf.sprintf "\nint bench_edit%d( ) { return %d; }\n" k k)

let edit_order ~seed n =
  let a = Array.init n Fun.id in
  let st = Random.State.make [| seed; 0x3d17 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(** One set-up: a child seeds the cache, then this process generates the
    same tree and runs one untimed no-op rebuild, so lazy start-up is paid
    before timing. *)
let edit_setup ~shape ~workdir ~shape_arg ~seed =
  let cache_dir = Filename.concat workdir "cache" in
  let dt, (ok, vfs, sources) =
    timed (fun () ->
        let ok = run_child [ "seed-cache"; shape_arg; string_of_int seed; cache_dir ] in
        let vfs, sources = project shape in
        let r = I.build ~options:(incr_options ~cache_dir) ~vfs sources in
        (ok && incr_ok r, vfs, sources))
  in
  (dt, ok, cache_dir, vfs, sources)

let build_edit ~shape ~shape_arg ~seed ~seconds ~workdir =
  let t = tally () in
  let setups =
    List.init setup_reps (fun _ ->
        let dt, ok, cache_dir, vfs, sources =
          edit_setup ~shape ~workdir ~shape_arg ~seed
        in
        op t ok "set-up build failed";
        (dt, (cache_dir, vfs, sources)))
  in
  let _, (cache_dir, vfs, sources) = List.hd (List.rev setups) in
  let options = incr_options ~cache_dir in
  let order = edit_order ~seed shape.tus in
  let peaks = ref [] in
  let rebuild () =
    reset_peak_rss ();
    let dt, r = timed (fun () -> I.build ~options ~vfs sources) in
    peaks := peak_rss_mb () :: !peaks;
    op t (incr_ok r) "incremental rebuild reported a failed unit";
    (dt, r)
  in
  let rounds =
    repeat_for ~seconds ~min_runs:3 (fun k ->
        edit_tu ~vfs ~order k;
        let edit = rebuild () in
        let noop = rebuild () in
        (edit, noop))
  in
  let peak = median !peaks in
  let edits = List.map (fun ((dt, _), _) -> dt) rounds in
  let noops = List.map (fun (_, (dt, _)) -> dt) rounds in
  let _, (_, last) = List.hd (List.rev rounds) in
  (* check: the last incremental result equals a from-scratch build of the
     final tree *)
  let scratch = B.build ~options:(build_options ~domains:nproc) ~vfs sources in
  check_units t scratch;
  op t (digest last.I.merged = digest scratch.B.merged)
    "incremental result differs from a from-scratch build";
  let all = edits @ noops in
  let (_, e), _ = List.hd rounds in
  { attempted = t.ops;
    failed = t.bad;
    metrics =
      [ m "setup_s" "s" (median (List.map fst setups));
        m "peak_rss_mb" "MB" peak;
        m "op_p50_ms" "ms" (median edits *. 1e3);
        m "ops_per_s" "1/s" (float_of_int (List.length all) /. sum all);
        m "aux_p50_ms" "ms" (median noops *. 1e3) ];
    notes =
      [ ("edits", J.Num (float_of_int (List.length edits)));
        ("pdb_items", J.Num (float_of_int (Pdt_pdb.Pdb.item_count last.I.merged)));
        ("first_edit", J.Str (I.stats_line e)) ];
    report =
      [ Printf.sprintf "edit_tu_ms     %.3f ms  median of %d one-TU edits (%s)"
          (median edits *. 1e3) (List.length edits) (I.stats_line e);
        Printf.sprintf "edit_noop_ms   %.3f ms  median of %d no-op rebuilds"
          (median noops *. 1e3) (List.length noops);
        Printf.sprintf "peak_rss_mb    %.1f MB  median over rebuilds" peak ]
      @ List.rev t.why }
