(* Shared plumbing for the benchmark: clocks, order statistics, the metric
   record every workload returns, peak-RSS probes, the span recorder the
   traced runs use, the generated project shape, and child processes. *)

module J = Pdt_util.Json
module G = Pdt_workloads.Generator

let now () = float_of_int (Pdt_util.Trace.now_ns ()) *. 1e-9

(** Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

let nproc = Domain.recommended_domain_count ()

(* ---- order statistics --------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Quantile [q] in [0,1] with linear interpolation between order
    statistics; [nan] on an empty sample. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---- results ------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(** What one run of a workload reports.  [attempted] counts operations
    (units compiled, rebuilds, queries, reloads) plus output checks;
    [failed] counts the ones that failed. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * J.t) list;  (** run metadata, printed before the result *)
  report : string list;         (** human-readable lines *)
}

(** Failure tally shared by a workload's operations and checks. *)
type tally = { mutable ops : int; mutable bad : int; mutable why : string list }

let tally () = { ops = 0; bad = 0; why = [] }

let op t ok what =
  t.ops <- t.ops + 1;
  if not ok then begin
    t.bad <- t.bad + 1;
    if List.length t.why < 20 then t.why <- what :: t.why
  end

let ops_ok t n = t.ops <- t.ops + n

(** Which output an injected corruption targets (self-test only). *)
type corrupt = No_corruption | Corrupt_digest | Corrupt_reply

let flip_first_char s =
  if s = "" then "x"
  else
    String.mapi
      (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c)
      s

(* ---- memory -------------------------------------------------------- *)

let status_kb ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            let prefix = field ^ ":" in
            let lp = String.length prefix in
            if String.length line > lp && String.sub line 0 lp = prefix then
              let rest = String.sub line lp (String.length line - lp) in
              match
                String.split_on_char ' ' (String.trim rest)
                |> List.filter (( <> ) "")
              with
              | v :: _ -> (try float_of_string v with _ -> Float.nan)
              | [] -> Float.nan
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(** Peak resident set of a process, in MB ([VmHWM]). *)
let peak_rss_mb ?(pid = "self") () = status_kb ~pid "VmHWM" /. 1024.0

(** Restart the peak-RSS watermark of this process at its current RSS, so
    set-up work does not count against the measured phase.  Best effort:
    kernels without [clear_refs] keep the old watermark. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(** Jiffies the host took from this VM's CPUs ([steal]) and all CPU
    jiffies, from the first line of [/proc/stat]; (0, 0) when absent. *)
let cpu_jiffies () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
          let v = List.map (fun f -> try int_of_string f with _ -> 0) fields in
          let steal = match List.nth_opt v 7 with Some x -> x | None -> 0 in
          (steal, List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v))
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

(* ---- span recorder (traced runs) ----------------------------------- *)

(* Spans the benchmark records around its own calls into the libraries:
   total wall time, call count and the individual durations per name. *)
let spans : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let span name f =
  let dt, x = timed f in
  (match Hashtbl.find_opt spans name with
   | Some r -> r := dt :: !r
   | None -> Hashtbl.replace spans name (ref [ dt ]));
  x

let span_samples name =
  match Hashtbl.find_opt spans name with Some r -> !r | None -> []

let span_total name = sum (span_samples name)

(* ---- the generated project ----------------------------------------- *)

type shape = { tus : int; cfg : G.config }

(** The measured shape: 256 TUs + main over 16 class templates of 6
    methods each, chain depth 4, 5 instantiation types. *)
let full_shape seed =
  { tus = 256;
    cfg =
      { G.default_config with
        seed; n_class_templates = 16; methods_per_class = 6; chain_depth = 4;
        n_instantiation_types = 5 } }

(** The self-test shape: small enough to run every workload in seconds. *)
let toy_shape seed = { tus = 8; cfg = { G.default_config with seed } }

let project (s : shape) = G.project_vfs ~cfg:s.cfg ~n_tus:s.tus ()

let source_bytes (s : shape) =
  List.fold_left
    (fun a (_, c) -> a + String.length c)
    0
    (G.project_files ~cfg:s.cfg ~n_tus:s.tus ())

let shape_json (s : shape) =
  J.Obj
    [ ("tus", J.Num (float_of_int (s.tus + 1)));
      ("class_templates", J.Num (float_of_int s.cfg.G.n_class_templates));
      ("methods_per_class", J.Num (float_of_int s.cfg.G.methods_per_class));
      ("chain_depth", J.Num (float_of_int s.cfg.G.chain_depth));
      ("instantiation_types", J.Num (float_of_int s.cfg.G.n_instantiation_types));
      ("source_bytes", J.Num (float_of_int (source_bytes s))) ]

(** Options of every cold build: all cores, no cache. *)
let build_options ~domains =
  { Pdt_build.Build.default_options with domains; cache_dir = None }

let digest pdb = Pdt_pdb.Pdb_digest.of_pdb pdb

(* ---- files and child processes ------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(** Children started by this process that are still running; killed at
    exit so a failed run never leaves a daemon behind. *)
let live_children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children)

(** Start this executable again in child mode [args]; its standard output
    goes to our standard error so the result line stays last. *)
let spawn_self args =
  let argv = Array.of_list (Sys.executable_name :: "--child" :: args) in
  let pid =
    Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr
      Unix.stderr
  in
  live_children := pid :: !live_children;
  pid

let reap pid =
  let _, st = Unix.waitpid [] pid in
  live_children := List.filter (( <> ) pid) !live_children;
  st

(** Run a child to completion; [false] unless it exited 0. *)
let run_child args = reap (spawn_self args) = Unix.WEXITED 0
