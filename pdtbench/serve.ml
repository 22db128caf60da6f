(* The serve_mix workload: a forked pdbd serving the merged PDB-B of the
   cold build, driven by a closed-loop load generator with a seeded verb
   mix.  Also the request generator the traced run reuses. *)

open Common
module D = Pdt_ductape.Ductape
module P = Pdt_pdb.Pdb
module S = Pdt_serve

(* Weights keep the median among the cheap lookups, so it does not fall
   between two latency classes from run to run. *)
let mix =
  [ ("item", 20); ("find", 12); ("callers", 12); ("callees", 10);
    ("list", 8); ("info", 8); ("defs", 6); ("duchain", 6);
    ("instantiations", 6); ("callgraph", 4); ("stats", 4); ("ping", 4) ]

let verbs = List.map fst mix

(** A reload every this many requests of connection 0, and at the latest
    [reload_gap_s] after the last one, so a slow daemon still gives reload
    samples. *)
let reload_every = 500

let reload_gap_s = 2.0

(* What the request generator draws from: ids and names of the loaded
   PDB. *)
type pool = {
  items : (string * int) array;            (* kind, id *)
  named : (string * string) array;         (* kind, name *)
  routines : int array;
  du : (int * string) array;               (* routine id, variable *)
  templates : int array;
  kinds : (string * int) array;            (* kind, item count *)
}

let pool_of (d : D.t) =
  let items =
    List.map (fun it -> (S.Query.kind_of_item it, D.item_id it)) (D.items d)
  in
  let routines = D.routines d in
  { items = Array.of_list items;
    named =
      Array.of_list
        (List.map (fun (r : P.routine_item) -> ("routine", r.P.ro_name)) routines
        @ List.map (fun (c : P.class_item) -> ("class", c.P.cl_name)) (D.classes d));
    routines = Array.of_list (List.map (fun (r : P.routine_item) -> r.P.ro_id) routines);
    du =
      Array.of_list
        (List.concat_map
           (fun (r : P.routine_item) ->
             List.map (fun (v : P.du_var) -> (r.P.ro_id, v.P.v_name)) r.P.ro_du)
           routines);
    templates =
      Array.of_list (List.map (fun (t : P.template_item) -> t.P.te_id) (D.templates d));
    kinds =
      Array.of_list
        (List.filter_map
           (fun k ->
             match S.Query.items_of_kind d k with
             | Some (_ :: _ as l) -> Some (k, List.length l)
             | _ -> None)
           S.Query.kinds) }

(* Verbs are dealt from shuffled decks of 50 holding each verb in its
   exact share, not drawn independently: the few expensive verbs set the
   throughput, and independent draws would let their count, and so qps,
   wander from run to run. *)
let deck_size = 50

let deck = Array.of_list (List.concat_map (fun (v, pct) -> List.init (pct / 2) (fun _ -> v)) mix)

let () = assert (Array.length deck = deck_size)

(** A verb source: each call deals the next verb of a shuffled deck. *)
let dealer st =
  let d = Array.copy deck and next = ref deck_size in
  fun () ->
    if !next = deck_size then begin
      for i = deck_size - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = d.(i) in
        d.(i) <- d.(j);
        d.(j) <- x
      done;
      next := 0
    end;
    incr next;
    d.(!next - 1)

let pick st a = a.(Random.State.int st (Array.length a))

let num n = J.Num (float_of_int n)

(** The arguments of one request of [verb], drawn from [pool]. *)
let request_fields st pool verb =
  match verb with
  | "item" ->
      let k, id = pick st pool.items in
      [ ("kind", J.Str k); ("id", num id) ]
  | "find" ->
      let k, n = pick st pool.named in
      [ ("kind", J.Str k); ("name", J.Str n) ]
  | "callers" | "callees" -> [ ("id", num (pick st pool.routines)) ]
  | "list" ->
      let k, n = pick st pool.kinds in
      [ ("kind", J.Str k); ("offset", num (Random.State.int st n)); ("limit", num 20) ]
  | "defs" | "duchain" ->
      let id, v = pick st pool.du in
      [ ("id", num id); ("var", J.Str v) ]
  | "instantiations" -> [ ("id", num (pick st pool.templates)) ]
  | _ -> []

(* The daemon reads an item id from the request's ["id"] member, the same
   member it echoes back, so a request naming an item carries that id as
   its request id; the others carry the sequence number [seq].  Returns
   the id the reply must echo, and the line. *)
let request_line ~seq verb fields =
  let id = Option.value ~default:(num seq) (List.assoc_opt "id" fields) in
  let rest = List.remove_assoc "id" fields in
  let echo = match id with J.Num f -> int_of_float f | _ -> seq in
  (echo, J.to_string (J.Obj ([ ("id", id); ("verb", J.Str verb) ] @ rest)))

(** A seeded stream of [(verb, line)] requests. *)
let requests ~pool ~seed ~stream n =
  let st = Random.State.make [| seed; stream |] in
  let deal = dealer st in
  List.init n (fun i ->
      let verb = deal () in
      (verb, snd (request_line ~seq:i verb (request_fields st pool verb))))

(* ---- replies ---------------------------------------------------------- *)

(* Every reply opens with [{"id":N,"ok":true,"gen":G,] (Query.ok_reply).
   Returns G and the offset just past it, without parsing the body. *)
let ok_gen ~id reply =
  let prefix = Printf.sprintf "{\"id\":%d,\"ok\":true,\"gen\":" id in
  let lp = String.length prefix in
  if String.length reply > lp && String.sub reply 0 lp = prefix then begin
    let j = ref lp in
    while !j < String.length reply && reply.[!j] >= '0' && reply.[!j] <= '9' do
      incr j
    done;
    Option.map (fun g -> (g, !j)) (int_of_string_opt (String.sub reply lp (!j - lp)))
  end
  else None

(* ---- the daemon -------------------------------------------------------- *)

(** Child process: serve [pdb] on [socket] with the default worker domains
    until a shutdown request. *)
let daemon_main ~pdb ~socket =
  let holder = S.Snapshot.load (S.Snapshot.Pdb_file pdb) in
  let config = { S.Daemon.default_config with socket_path = socket } in
  S.Daemon.serve_foreground (S.Daemon.create ~config holder)

let start_daemon ~pdb ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let pid = spawn_self [ "daemon"; pdb; socket ] in
  let deadline = now () +. 60.0 in
  let rec poll () =
    match S.Client.connect socket with
    | c -> S.Client.close c
    | exception e ->
        if now () > deadline then raise e
        else begin
          ignore (Unix.select [] [] [] 0.02);
          poll ()
        end
  in
  poll ();
  pid

let stop_daemon ~socket pid =
  (match S.Client.connect socket with
   | c ->
       ignore (S.Client.request c "{\"verb\":\"shutdown\"}");
       S.Client.close c
   | exception _ -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (reap pid)

(* ---- load generator ---------------------------------------------------- *)

type sample = { verb : string; line : string; reply : string }

type conn_result = {
  lat : (string * float) list;   (* verb, seconds; reloads excluded *)
  finished : float list;         (* completion times of [lat] *)
  reloads : float list;
  samples : sample list;         (* seeded sample of replies to re-check *)
  errors : string list;
}

(** One closed-loop connection: send, wait for the reply, repeat until
    [deadline].  Connection 0 also reloads every [reload_every] requests
    or [reload_gap_s] seconds, whichever comes first. *)
let run_conn ~socket ~pool ~seed ~conn ~deadline ~corrupt =
  let c = S.Client.connect socket in
  let st = Random.State.make [| seed; 1000 + conn |] in
  let deal = dealer st in
  let sample_st = Random.State.make [| seed; 2000 + conn |] in
  let lat = ref [] and reloads = ref [] and samples = ref [] and errors = ref [] in
  let finished = ref [] in
  let last_gen = ref 0 in
  let last_reload = ref (now ()) and since_reload = ref 0 in
  let rec loop i =
    if now () < deadline then begin
      let is_reload =
        conn = 0
        && (!since_reload >= reload_every || now () -. !last_reload >= reload_gap_s)
      in
      if is_reload then begin
        since_reload := 0;
        last_reload := now ()
      end
      else incr since_reload;
      let verb = if is_reload then "reload" else deal () in
      let fields = if is_reload then [] else request_fields st pool verb in
      let echo, line = request_line ~seq:i verb fields in
      let t0 = now () in
      let reply = S.Client.request c line in
      let dt = now () -. t0 in
      (match reply with
       | None -> errors := Printf.sprintf "%s: connection closed" verb :: !errors
       | Some reply -> (
           match ok_gen ~id:echo reply with
           | None -> errors := Printf.sprintf "%s: not ok: %s" verb
                       (String.sub reply 0 (min 200 (String.length reply))) :: !errors
           | Some (gen, _) ->
               if gen < !last_gen then
                 errors := Printf.sprintf "%s: gen went back %d -> %d" verb !last_gen gen :: !errors;
               last_gen := gen;
               if is_reload then reloads := dt :: !reloads
               else begin
                 lat := (verb, dt) :: !lat;
                 finished := now () :: !finished;
                 if i = 0 || Random.State.int sample_st 50 = 0 then begin
                   let reply =
                     if corrupt = Corrupt_reply && !samples = [] then
                       String.sub reply 0 (String.length reply - 1) ^ " "
                     else reply
                   in
                   samples := { verb; line; reply } :: !samples
                 end
               end));
      if reply <> None then loop (i + 1)
    end
  in
  loop 0;
  S.Client.close c;
  { lat = !lat; finished = !finished; reloads = !reloads; samples = !samples;
    errors = !errors }

(** [conns] connections on as many threads for [seconds]; the load
    generator's CPU time is returned alongside. *)
let load ~socket ~pool ~seed ~conns ~seconds ~corrupt =
  let deadline = now () +. seconds in
  let cpu0 = Unix.times () in
  let t0 = now () in
  let results = Array.make conns None in
  let threads =
    List.init conns (fun conn ->
        Thread.create
          (fun () ->
            results.(conn) <-
              Some
                (try Ok (run_conn ~socket ~pool ~seed ~conn ~deadline ~corrupt)
                 with e -> Error (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let cpu1 = Unix.times () in
  let cpu =
    cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime +. cpu1.Unix.tms_stime
    -. cpu0.Unix.tms_stime
  in
  let results =
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error e) ->
             { lat = []; finished = []; reloads = []; samples = []; errors = [ e ] }
         | None -> { lat = []; finished = []; reloads = []; samples = []; errors = [ "no result" ] })
  in
  (results, wall, cpu)

(** The re-check: each sampled reply equals, after its id/gen prefix, the
    reply [Query.handle_line] gives in-process for the same request. *)
let check_samples t holder samples =
  List.iter
    (fun s ->
      let id =
        match J.parse s.line with
        | Ok j -> (
            match Option.bind (J.member "id" j) J.to_num_opt with
            | Some f -> int_of_float f
            | None -> -1)
        | Error _ -> -1
      in
      let mine, _ = S.Query.handle_line holder s.line in
      let body r =
        Option.map (fun (_, j) -> String.sub r j (String.length r - j)) (ok_gen ~id r)
      in
      op t
        (body s.reply <> None && body s.reply = body mine)
        (Printf.sprintf "%s reply differs from in-process handle_line" s.verb))
    samples

(* ---- set-up -------------------------------------------------------------- *)

(** Child process of the set-up: generate and build the project, write the
    merged PDB-B. *)
let prepare_pdb ~shape ~out =
  let vfs, sources = project shape in
  let r = Pdt_build.Build.build ~options:(build_options ~domains:nproc) ~vfs sources in
  Pdt_pdb.Pdb_bin.to_file r.Pdt_build.Build.merged out;
  r.Pdt_build.Build.failed = 0 && r.Pdt_build.Build.degraded = 0

(** Generation, build and daemon start-up; returns the daemon's pid. *)
let setup ~shape_arg ~seed ~pdb ~socket =
  let ok = run_child [ "prepare-pdb"; shape_arg; string_of_int seed; pdb ] in
  let pid = start_daemon ~pdb ~socket in
  (ok, pid)

let serve_mix ~shape_arg ~seed ~mix_seed ~seconds ~workdir ~corrupt =
  let t = tally () in
  let pdb = Filename.concat workdir "serve.pdbb" in
  let socket = Filename.concat workdir "pdbd.sock" in
  let setups =
    List.init Builds.setup_reps (fun i ->
        let dt, (ok, pid) = timed (fun () -> setup ~shape_arg ~seed ~pdb ~socket) in
        op t ok "set-up build failed";
        if i < Builds.setup_reps - 1 then stop_daemon ~socket pid;
        (dt, pid))
  in
  let _, pid = List.hd (List.rev setups) in
  let holder = S.Snapshot.load (S.Snapshot.Pdb_file pdb) in
  let pool = pool_of (S.Snapshot.current holder).S.Snapshot.dt in
  let conns = nproc in
  let t_load = now () in
  let results, wall, cpu = load ~socket ~pool ~seed:mix_seed ~conns ~seconds ~corrupt in
  let windows =
    let fin = List.concat_map (fun r -> r.finished) results in
    List.init (int_of_float (seconds /. 4.0)) (fun w ->
        let lo = t_load +. (4.0 *. float_of_int w) in
        float_of_int (List.length (List.filter (fun x -> x >= lo && x < lo +. 4.0) fin)) /. 4.0)
  in
  let peak = peak_rss_mb ~pid:(string_of_int pid) () in
  stop_daemon ~socket pid;
  let lat = List.concat_map (fun r -> List.map snd r.lat) results in
  let reloads = List.concat_map (fun r -> r.reloads) results in
  let samples = List.concat_map (fun r -> r.samples) results in
  List.iter
    (fun r ->
      ops_ok t (List.length r.lat + List.length r.reloads);
      List.iter (fun e -> op t false e) r.errors)
    results;
  check_samples t holder samples;
  let qps = float_of_int (List.length lat) /. wall in
  let pdb_items = P.item_count (D.pdb (S.Snapshot.current holder).S.Snapshot.dt) in
  { attempted = t.ops;
    failed = t.bad;
    metrics =
      [ m "setup_s" "s" (median (List.map fst setups));
        m "peak_rss_mb" "MB" peak;
        m "op_p50_ms" "ms" (median lat *. 1e3);
        m "ops_per_s" "1/s" qps;
        m "aux_p50_ms" "ms" (median reloads *. 1e3) ];
    notes =
      [ ("connections", num conns);
        ("queries", num (List.length lat));
        ("reloads", num (List.length reloads));
        ("rechecked_replies", num (List.length samples));
        ("pdb_items", num pdb_items);
        ("pdb_bytes", num (Unix.stat pdb).Unix.st_size) ];
    report =
      [ Printf.sprintf "serve_qps      %.1f 1/s over %.2f s, %d connections" qps wall conns;
        "qps per 4 s   " ^ String.concat " " (List.map (Printf.sprintf "%.0f") windows);
        Printf.sprintf "serve_p50_us   %.1f us  (n=%d)" (median lat *. 1e6) (List.length lat);
        Printf.sprintf "serve_p99_us   %.1f us  (n=%d, %d beyond)" (quantile 0.99 lat *. 1e6)
          (List.length lat) (List.length lat / 100);
        Printf.sprintf "reload_ms      %.3f ms  (n=%d)" (median reloads *. 1e3) (List.length reloads);
        Printf.sprintf "loadgen_cpu_s  %.3f s" cpu;
        Printf.sprintf "daemon peak_rss_mb %.1f MB" peak ]
      @ List.rev t.why }
