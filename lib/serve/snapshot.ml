(** Immutable, atomically swappable program-database snapshots — the
    state model behind pdbd (ROADMAP item 1).

    A snapshot is a fully indexed {!Pdt_ductape.Ductape.t}: every hash
    table inside it is built at [index] time and never mutated afterwards,
    so any number of worker domains can read one snapshot concurrently
    without a lock.  The one slot filled later, the [stats] memo, is an
    [Atomic.t] set once by compare-and-set (see {!stats}).  The live
    snapshot sits in an [Atomic.t] cell; a reload builds the replacement
    off to the side and publishes it with a single [Atomic.set].
    Requests grab the cell {e once} at dispatch time, which is the whole
    snapshot-isolation story: an in-flight query keeps the generation it
    started with, no matter how many swaps land while it runs, and a
    reply can never mix data from two generations.

    Reloads are serialized by a mutex (concurrent [reload] requests
    queue; each still gets its own generation).  A reload that fails —
    injected fault, vanished file, malformed container — leaves the old
    snapshot in place and reports the error; the daemon keeps answering
    from the generation it already has. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape
module I = Pdt_build.Incremental

(** Where the PDB comes from, and what [reload] means for it. *)
type source =
  | Pdb_file of string
      (** A merged PDB on disk (either container).  Reload re-reads the
          file — the producer is some external [pdbbuild]. *)
  | Project of {
      vfs : Pdt_util.Vfs.t;
      sources : string list;
      options : I.options;
    }
      (** A project served from its sources.  Reload runs the
          [pdbbuild --incremental] machinery ({!Pdt_build.Incremental},
          which splices through [Ductape.Delta]): unchanged dependency
          fingerprints are reused, so an edit-free reload touches
          nothing and an edit rebuilds only its cone. *)
  | In_memory of { label : string; produce : int -> P.t }
      (** Test harness source: [produce gen] builds generation [gen]'s
          PDB.  Lets the stress suite serve two distinguishable versions
          and prove no reply ever straddles a swap. *)

type reload_stats = {
  reanalyzed : int;  (** units recompiled (project sources only) *)
  reused : int;      (** units served by fingerprint/cache *)
}

type snap = {
  gen : int;          (** 1 for the initial load, +1 per reload *)
  dt : D.t;
  label : string;     (** what to call the database in replies *)
  format : string;    (** "ascii" | "binary" | "project" | "memory" *)
  stats : Pdt_tools.Pdbstats.summary option Atomic.t;
      (** the [stats] summary, filled on first use (see {!stats}) *)
}

type t = {
  source : source;
  cell : snap Atomic.t;
  reload_mutex : Mutex.t;
}

let no_stats = { reanalyzed = 0; reused = 0 }

(* Load one generation from the source.  Any exception is the caller's
   problem: [load] propagates it (a daemon that cannot load its first
   snapshot should die loudly), [reload] turns it into [Error]. *)
let load_gen (source : source) (gen : int) : snap * reload_stats =
  Pdt_util.Trace.span ~cat:"serve" "serve.load"
    ~args:[ ("gen", Pdt_util.Trace.Int gen) ]
  @@ fun () ->
  let snap dt label format = { gen; dt; label; format; stats = Atomic.make None } in
  match source with
  | Pdb_file path ->
      let format = Pdt_pdb.Pdb_io.(format_name (sniff_file path)) in
      (snap (D.index (Pdt_pdb.Pdb_io.of_file path)) path format, no_stats)
  | Project { vfs; sources; options } ->
      let r = I.build ~options ~vfs sources in
      ( snap (D.index r.I.merged)
          (Printf.sprintf "project (%d units)" (List.length sources))
          "project",
        { reanalyzed = r.I.reanalyzed; reused = r.I.reused } )
  | In_memory { label; produce } ->
      (snap (D.index (produce gen)) label "memory", no_stats)

let load (source : source) : t =
  let snap, _ = load_gen source 1 in
  { source; cell = Atomic.make snap; reload_mutex = Mutex.create () }

(** The snapshot's [stats] summary.  It is derived data: a function of
    the immutable PDB, so it is computed on first use rather than at
    publish (which would lengthen every reload) and kept in the snap, so
    it dies with its generation.  The slot is filled by compare-and-set:
    two domains that race both compute it and get equal values, one of
    which is kept.  ([Lazy] would not do: forcing one lazy value from two
    domains at once raises.) *)
let stats (s : snap) : Pdt_tools.Pdbstats.summary =
  match Atomic.get s.stats with
  | Some sum -> sum
  | None ->
      let sum = Pdt_tools.Pdbstats.summary s.dt in
      if Atomic.compare_and_set s.stats None (Some sum) then sum
      else Option.get (Atomic.get s.stats)

(** The live snapshot.  Callers must read this {e once} per request and
    use the returned value throughout — re-reading mid-request is how
    isolation would break. *)
let current (t : t) : snap = Atomic.get t.cell

let reload (t : t) : (snap * reload_stats, string) result =
  Mutex.lock t.reload_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reload_mutex) @@ fun () ->
  let next_gen = (Atomic.get t.cell).gen + 1 in
  Pdt_util.Trace.span ~cat:"serve" "serve.reload"
    ~args:[ ("gen", Pdt_util.Trace.Int next_gen) ]
  @@ fun () ->
  match
    Pdt_util.Fault.check "serve.reload";
    load_gen t.source next_gen
  with
  | snap, stats ->
      (* the one and only publication point: in-flight queries keep the
         snap value they already fetched; new requests see this one *)
      Atomic.set t.cell snap;
      Ok (snap, stats)
  | exception e ->
      let msg =
        match e with
        | Pdt_pdb.Pdb_parse.Parse_error (line, m) ->
            Printf.sprintf "PDB parse error at line %d: %s" line m
        | Pdt_pdb.Pdb_bin.Format_error m -> "PDB-B format error: " ^ m
        | Sys_error m -> m
        | Pdt_util.Fault.Injected site -> "injected fault at " ^ site
        | e -> Printexc.to_string e
      in
      Error msg
