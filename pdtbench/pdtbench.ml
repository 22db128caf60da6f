(* The repository benchmark.

     pdtbench --workload build_cold|build_edit|serve_mix --seed N
              --seconds S --trace 0|1 [--mix-seed N]
     pdtbench --self-test

   Run from the root of a checkout (run.py builds and starts it).  The
   last line of standard output is the result object; the lines before
   it are the run's metadata and a readable report.  Exit status 0 means
   every output check passed. *)

open Common

let workloads = [ "build_cold"; "build_edit"; "serve_mix" ]

type args = {
  workload : string;
  seed : int;
  mix_seed : int option;
  seconds : float;
  trace : bool;
  corrupt : corrupt;
  toy : bool;
}

let usage () =
  prerr_endline
    "usage: pdtbench --workload build_cold|build_edit|serve_mix --seed N \
     --seconds S --trace 0|1 [--mix-seed N]\n\
    \       pdtbench --self-test";
  exit 2

let parse_args argv =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--mix-seed" :: n :: rest -> go { a with mix_seed = Some (int_of_string n) } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    try
      go { workload = ""; seed = 1; mix_seed = None; seconds = 10.0; trace = false;
           corrupt = No_corruption; toy = false } argv
    with Failure _ -> usage ()
  in
  if a.workload = "" || a.seconds <= 0.0 then usage ();
  a

let shape_of ~toy seed = if toy then toy_shape seed else full_shape seed
let shape_arg ~toy = if toy then "toy" else "full"

(* ---- one run ---------------------------------------------------------------- *)

let run (a : args) : outcome =
  let shape = shape_of ~toy:a.toy a.seed in
  let mix_seed = Option.value ~default:a.seed a.mix_seed in
  let workdir = Printf.sprintf ".pdtbench-work/%d" (Unix.getpid ()) in
  rm_rf workdir;
  mkdir_p workdir;
  Fun.protect ~finally:(fun () -> rm_rf workdir) @@ fun () ->
  let base =
    [ ("workload", J.Str a.workload);
      ("seed", J.Num (float_of_int a.seed));
      ("mix_seed", J.Num (float_of_int mix_seed));
      ("trace", J.Bool a.trace);
      ("nproc", J.Num (float_of_int nproc));
      ("ocaml", J.Str Sys.ocaml_version);
      ("build_domains", J.Num (float_of_int nproc));
      ("daemon_domains",
       J.Num (float_of_int Pdt_serve.Daemon.default_config.Pdt_serve.Daemon.domains));
      ("shape", shape_json shape) ]
  in
  let steal0, total0 = cpu_jiffies () in
  let steal_note () =
    (* a run the host starved of CPU reads slow: say so next to its figures *)
    let steal1, total1 = cpu_jiffies () in
    ( "host_steal_pct",
      J.Num (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))) )
  in
  if a.trace then begin
    let dt, (t, vals) =
      timed (fun () ->
          Layers.probe ~workload:a.workload ~shape ~mix_seed
            ~seconds:(Float.min a.seconds 3.0) ~workdir)
    in
    { attempted = t.ops;
      failed = t.bad;
      metrics = List.map (fun (n, v) -> m n (Layers.unit_of n) v) vals;
      notes = base @ [ ("probe_s", J.Num dt); steal_note () ];
      report =
        List.map
          (fun (n, v) ->
            let _, u, moves = List.find (fun (n', _, _) -> n' = n) Layers.catalogue
            in
            Printf.sprintf "%-32s %14.4f %-8s -> %s" n v u moves)
          vals
        @ List.rev t.why }
  end
  else
    let o =
      match a.workload with
      | "build_cold" ->
          Builds.build_cold ~shape ~shape_arg:(shape_arg ~toy:a.toy) ~seconds:a.seconds
            ~workdir ~corrupt:a.corrupt
      | "build_edit" ->
          Builds.build_edit ~shape ~shape_arg:(shape_arg ~toy:a.toy) ~seed:a.seed
            ~seconds:a.seconds ~workdir
      | _ ->
          Serve.serve_mix ~shape_arg:(shape_arg ~toy:a.toy) ~seed:a.seed ~mix_seed
            ~seconds:a.seconds ~workdir ~corrupt:a.corrupt
    in
    { o with notes = base @ o.notes @ [ steal_note () ] }

(* A metric without samples is a failed run, not a NaN in the output. *)
let finite (o : outcome) =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) o.metrics in
  { o with
    failed = o.failed + List.length bad;
    attempted = o.attempted + List.length bad;
    report = o.report @ List.map (fun x -> x.name ^ ": no value") bad;
    metrics =
      List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0.0 }) o.metrics }

let result_json (o : outcome) =
  J.Obj
    [ ("correct", J.Bool (o.failed = 0));
      ("attempted", J.Num (float_of_int o.attempted));
      ("failed", J.Num (float_of_int o.failed));
      ("metrics",
       J.Obj
         (List.map
            (fun x -> (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit_) ]))
            o.metrics)) ]

let print (o : outcome) =
  print_endline ("meta " ^ J.to_string (J.Obj o.notes));
  List.iter (fun l -> print_endline ("  " ^ l)) o.report;
  Printf.printf "  fail_rate      %.6f (%d failed of %d attempted)\n"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  print_endline (J.to_string (result_json o))

(* ---- self-test ---------------------------------------------------------------- *)

(* Declared metrics of BENCHMARK.json: (name, unit) for one section. *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match J.parse text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
      Option.bind (J.member section j) J.to_list_opt
      |> Option.value ~default:[]
      |> List.map (fun e ->
             let s k = Option.get (Option.bind (J.member k e) J.to_string_opt) in
             (s "name", s "unit"))

let self_test () =
  let failures = ref 0 in
  let check ok what =
    Printf.printf "%s %s\n%!" (if ok then "PASS" else "FAIL") what;
    if not ok then incr failures
  in
  let toy w ?(seed = 1) ?(trace = false) ?(corrupt = No_corruption) () =
    finite
      (run { workload = w; seed; mix_seed = None; seconds = 1.0; trace; corrupt; toy = true })
  in
  let has_all section (o : outcome) =
    List.for_all
      (fun (n, u) -> List.exists (fun x -> x.name = n && x.unit_ = u) o.metrics)
      (declared section)
  in
  List.iter
    (fun w ->
      let o = toy w () in
      check (o.failed = 0) (w ^ ": every output check passes");
      check (has_all "end_to_end" o) (w ^ ": every end_to_end metric printed with its unit");
      let o = toy w ~trace:true () in
      check (o.failed = 0) (w ^ " traced: every output check passes");
      check (has_all "per_layer" o) (w ^ " traced: every per_layer metric printed with its unit"))
    workloads;
  let files seed = G.project_files ~cfg:(toy_shape seed).cfg ~n_tus:(toy_shape seed).tus () in
  check (files 1 <> files 2) "seed 2 generates other inputs than seed 1";
  List.iter
    (fun w -> check ((toy w ~seed:2 ()).failed = 0) (w ^ ": seed 2 passes every check"))
    workloads;
  let o = toy "build_cold" ~corrupt:Corrupt_digest () in
  check (o.failed > 0 && o.attempted > 0) "a corrupted digest is counted as a failure";
  let o = toy "serve_mix" ~corrupt:Corrupt_reply () in
  check (o.failed > 0 && o.attempted > 0) "a corrupted reply is counted as a failure";
  if !failures = 0 then (print_endline "self-test passed"; 0)
  else (Printf.printf "self-test: %d failed\n" !failures; 1)

(* ---- child processes ------------------------------------------------------------- *)

let child = function
  | [ "seed-cache"; shape; seed; cache_dir ] ->
      Builds.seed_cache ~shape:(shape_of ~toy:(shape = "toy") (int_of_string seed)) ~cache_dir
  | [ "prepare-pdb"; shape; seed; out ] ->
      Serve.prepare_pdb ~shape:(shape_of ~toy:(shape = "toy") (int_of_string seed)) ~out
  | [ "generate"; shape; seed; out ] ->
      Builds.generate ~shape:(shape_of ~toy:(shape = "toy") (int_of_string seed)) ~out
  | [ "daemon"; pdb; socket ] ->
      Serve.daemon_main ~pdb ~socket;
      true
  | _ -> false

let () =
  (* a daemon that dies mid-reply must fail the run, not kill it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: rest -> exit (if child rest then 0 else 1)
  | [ "--self-test" ] -> exit (self_test ())
  | argv ->
      let o = finite (run (parse_args argv)) in
      print o;
      exit (if o.failed = 0 then 0 else 1)
