(** The pdbd wire protocol: line-oriented JSON requests over a byte
    stream (DESIGN.md §7).

    One request is one LF-terminated line holding a JSON object:

    {v {"id": 7, "verb": "find", "kind": "routine", "name": "main"} v}

    and one reply is one line holding a JSON object that echoes ["id"],
    carries ["ok"], and names the snapshot generation ["gen"] it was
    answered from.  Every code path — including malformed JSON, unknown
    verbs, bad arguments, and handler exceptions — produces a structured
    reply; {!handle_line} never raises and never writes to stdout, which
    is what makes the conformance goldens byte-pinnable and the daemon's
    input loop a safe trust boundary.

    Queries are verbs over one {!Snapshot.snap} grabbed exactly once at
    dispatch: entity lookup ([find]/[item]/[list]), call-graph slices
    ([callees]/[callers]/[callgraph]), template↔instantiation maps
    ([instantiations]/[templateof]), and the pdbtree/pdbstats views
    ([tree]/[stats]) rendered by the same {!Pdt_tools} cores the CLI
    tools print. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape
module J = Pdt_util.Json

let protocol_version = 1

(** Verb catalogue, in the order [hello] advertises it. *)
let verbs =
  [ "hello"; "ping"; "info"; "list"; "find"; "item"; "callees"; "callers";
    "callgraph"; "instantiations"; "templateof"; "defs"; "uses"; "duchain";
    "tree"; "stats"; "reload"; "shutdown" ]

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

let num (n : int) : J.t = J.Num (float_of_int n)

let jopt (f : 'a -> J.t) : 'a option -> J.t = function
  | Some x -> f x
  | None -> J.Null

let arg (req : J.t) (key : string) : J.t option = J.member key req

let str_arg req key = Option.bind (arg req key) J.to_string_opt

let int_arg req key =
  Option.bind (arg req key) (fun j ->
      match J.to_num_opt j with
      | Some f when Float.is_integer f -> Some (int_of_float f)
      | _ -> None)

let bool_arg req key =
  Option.bind (arg req key) (function J.Bool b -> Some b | _ -> None)

(* ------------------------------------------------------------------ *)
(* Item rendering                                                      *)
(* ------------------------------------------------------------------ *)

let loc_json (d : D.t) (l : P.loc) : J.t =
  if l = P.null_loc then J.Null
  else
    J.Obj
      [ ("file", jopt (fun (f : P.source_file) -> J.Str f.so_name) (D.file d l.lfile));
        ("line", num l.lline);
        ("col", num l.lcol) ]

let parent_json : P.parentref -> J.t = function
  | P.Pnone -> J.Null
  | P.Pcl id -> J.Obj [ ("kind", J.Str "class"); ("id", num id) ]
  | P.Pna id -> J.Obj [ ("kind", J.Str "namespace"); ("id", num id) ]

let kind_of_item : D.item -> string = function
  | D.File _ -> "file"
  | D.Macro _ -> "macro"
  | D.Type _ -> "type"
  | D.Template _ -> "template"
  | D.Namespace _ -> "namespace"
  | D.Class _ -> "class"
  | D.Routine _ -> "routine"

(** Compact reference: enough to re-query with [item]. *)
let summary (d : D.t) (it : D.item) : J.t =
  let name =
    match it with
    | D.Routine r -> D.routine_full_name d r
    | D.Class c -> D.class_full_name d c
    | it -> D.item_name d it
  in
  J.Obj
    [ ("kind", J.Str (kind_of_item it)); ("id", num (D.item_id it));
      ("name", J.Str name) ]

let routine_summary d (r : P.routine_item) = summary d (D.Routine r)
let class_summary d (c : P.class_item) = summary d (D.Class c)

(** Full rendering for the [item] verb: the shared pdbItem layer
    (location/parent/access) plus each kind's own attributes. *)
let detail (d : D.t) (it : D.item) : J.t =
  let common =
    match summary d it with
    | J.Obj kvs ->
        kvs
        @ [ ("loc", jopt (loc_json d) (D.item_location it));
            ("parent", jopt parent_json (D.item_parent it));
            ("access", jopt (fun a -> J.Str a) (D.item_access it));
            ("template", jopt num (D.item_template_of it)) ]
    | _ -> assert false
  in
  let extra =
    match it with
    | D.File f ->
        [ ("includes", J.List (List.map num f.P.so_includes)) ]
    | D.Macro m -> [ ("mkind", J.Str m.P.ma_kind); ("text", J.Str m.P.ma_text) ]
    | D.Type t ->
        [ ("ykind", J.Str (P.ykind_string t.P.ty_info));
          ("aliases", J.List (List.map (fun a -> J.Str a) t.P.ty_names)) ]
    | D.Template t ->
        [ ("tkind", J.Str t.P.te_kind); ("text", J.Str t.P.te_text) ]
    | D.Namespace n -> [ ("members", num (List.length n.P.na_members)) ]
    | D.Class c ->
        [ ("ckind", J.Str c.P.cl_kind);
          ("bases",
           J.List
             (List.map
                (fun (acs, virt, b) ->
                  J.Obj
                    [ ("access", J.Str acs); ("virtual", J.Bool virt);
                      ("class", class_summary d b) ])
                (D.bases d c)));
          ("derived", J.List (List.map (class_summary d) (D.derived d c)));
          ("methods", J.List (List.map (routine_summary d) (D.member_functions d c)));
          ("members", num (List.length c.P.cl_members)) ]
    | D.Routine r ->
        [ ("signature", J.Str (D.typeref_name d r.P.ro_sig));
          ("rkind", J.Str r.P.ro_kind);
          ("virtual", J.Str r.P.ro_virt);
          ("static", J.Bool r.P.ro_static);
          ("inline", J.Bool r.P.ro_inline);
          ("defined", J.Bool r.P.ro_defined);
          ("calls", num (List.length r.P.ro_calls));
          ("spawns", num (List.length r.P.ro_spawns));
          ("du_vars", num (List.length r.P.ro_du)) ]
  in
  J.Obj (common @ extra)

(* ------------------------------------------------------------------ *)
(* Kind dispatch                                                       *)
(* ------------------------------------------------------------------ *)

let kinds = [ "file"; "macro"; "type"; "template"; "namespace"; "class"; "routine" ]

let items_of_kind (d : D.t) : string -> D.item list option = function
  | "file" -> Some (List.map (fun x -> D.File x) (D.files d))
  | "macro" -> Some (List.map (fun x -> D.Macro x) (D.macros d))
  | "type" -> Some (List.map (fun x -> D.Type x) (D.types d))
  | "template" -> Some (List.map (fun x -> D.Template x) (D.templates d))
  | "namespace" -> Some (List.map (fun x -> D.Namespace x) (D.namespaces d))
  | "class" -> Some (List.map (fun x -> D.Class x) (D.classes d))
  | "routine" -> Some (List.map (fun x -> D.Routine x) (D.routines d))
  | _ -> None

let item_of_kind_id (d : D.t) (kind : string) (id : int) : D.item option =
  match kind with
  | "file" -> Option.map (fun x -> D.File x) (D.file d id)
  | "macro" -> Option.map (fun x -> D.Macro x) (D.macro d id)
  | "type" -> Option.map (fun x -> D.Type x) (D.type_ d id)
  | "template" -> Option.map (fun x -> D.Template x) (D.template d id)
  | "namespace" -> Option.map (fun x -> D.Namespace x) (D.namespace d id)
  | "class" -> Option.map (fun x -> D.Class x) (D.class_ d id)
  | "routine" -> Option.map (fun x -> D.Routine x) (D.routine d id)
  | _ -> None

(* Routines and classes answer to their plain and their qualified name.
   A qualified name ends with the plain one, so the suffix test runs first
   and the qualified name is built only for the few that pass it. *)
let routine_named (d : D.t) (name : string) (r : P.routine_item) : bool =
  r.P.ro_name = name
  || (String.ends_with ~suffix:r.P.ro_name name && D.routine_full_name d r = name)

let class_named (d : D.t) (name : string) (c : P.class_item) : bool =
  c.P.cl_name = name
  || (String.ends_with ~suffix:c.P.cl_name name && D.class_full_name d c = name)

(** Name match for [find]. *)
let item_matches (d : D.t) (name : string) (it : D.item) : bool =
  match it with
  | D.Routine r -> routine_named d name r
  | D.Class c -> class_named d name c
  | it -> D.item_name d it = name

(* ------------------------------------------------------------------ *)
(* Reply envelopes                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad_args of string

let ok_reply ~id ~gen fields =
  J.Obj ([ ("id", id); ("ok", J.Bool true); ("gen", num gen) ] @ fields)

let error_reply ~id ~gen code msg =
  J.Obj
    [ ("id", id); ("ok", J.Bool false); ("gen", num gen);
      ("error", J.Obj [ ("code", J.Str code); ("message", J.Str msg) ]) ]

let require_kind req =
  match str_arg req "kind" with
  | Some k when List.mem k kinds -> k
  | Some k -> raise (Bad_args (Printf.sprintf "unknown kind %S" k))
  | None -> raise (Bad_args "missing \"kind\"")

let require_id req =
  match int_arg req "id" with
  | Some i -> i
  | None -> raise (Bad_args "missing or non-integer \"id\"")

let require_routine d req =
  let id = require_id req in
  match D.routine d id with
  | Some r -> r
  | None -> raise (Bad_args (Printf.sprintf "no routine ro#%d" id))

(* ------------------------------------------------------------------ *)
(* Verb handlers (each works on ONE snap, never re-reads the cell)     *)
(* ------------------------------------------------------------------ *)

let plural = function "class" -> "classes" | k -> k ^ "s"

let count_of_kind (d : D.t) : string -> int = function
  | "file" -> List.length (D.files d)
  | "macro" -> List.length (D.macros d)
  | "type" -> List.length (D.types d)
  | "template" -> List.length (D.templates d)
  | "namespace" -> List.length (D.namespaces d)
  | "class" -> List.length (D.classes d)
  | "routine" -> List.length (D.routines d)
  | k -> invalid_arg ("count_of_kind " ^ k)

let counts_json (d : D.t) : J.t =
  J.Obj (List.map (fun k -> (plural k, num (count_of_kind d k))) kinds)

let do_info (s : Snapshot.snap) =
  let pdb = D.pdb s.dt in
  [ ("label", J.Str s.label);
    ("format", J.Str s.format);
    ("mmap", J.Bool (s.format = "binary"));
    ("version", J.Str pdb.P.version);
    ("incomplete", J.Bool pdb.P.incomplete);
    ("diags", num pdb.P.diag_count);
    ("counts", counts_json s.dt);
    ("items", num (P.item_count pdb)) ]

let do_hello (s : Snapshot.snap) req =
  (match int_arg req "protocol" with
   | Some v when v <> protocol_version ->
       raise
         (Bad_args
            (Printf.sprintf "protocol %d not supported (server speaks %d)" v
               protocol_version))
   | _ -> ());
  [ ("server", J.Str "pdbd");
    ("protocol", num protocol_version);
    ("verbs", J.List (List.map (fun v -> J.Str v) verbs));
    ("pdb",
     J.Obj
       [ ("label", J.Str s.label); ("format", J.Str s.format);
         ("counts", counts_json s.dt) ]) ]

let do_list (s : Snapshot.snap) req =
  let kind = require_kind req in
  let items = Option.get (items_of_kind s.dt kind) in
  let total = List.length items in
  let offset = Option.value ~default:0 (int_arg req "offset") in
  let limit = Option.value ~default:total (int_arg req "limit") in
  if offset < 0 || limit < 0 then raise (Bad_args "negative offset/limit");
  let page =
    items
    |> List.filteri (fun i _ -> i >= offset && i < offset + limit)
    |> List.map (summary s.dt)
  in
  [ ("kind", J.Str kind); ("total", num total); ("items", J.List page) ]

let do_find (s : Snapshot.snap) req =
  let kind = require_kind req in
  let name =
    match str_arg req "name" with
    | Some n -> n
    | None -> raise (Bad_args "missing \"name\"")
  in
  let matches =
    List.filter (item_matches s.dt name) (Option.get (items_of_kind s.dt kind))
  in
  [ ("kind", J.Str kind); ("name", J.Str name);
    ("matches", J.List (List.map (summary s.dt) matches)) ]

let do_item (s : Snapshot.snap) req =
  let kind = require_kind req in
  let id = require_id req in
  match item_of_kind_id s.dt kind id with
  | Some it -> [ ("item", detail s.dt it) ]
  | None -> raise (Bad_args (Printf.sprintf "no %s with id %d" kind id))

let do_callees (s : Snapshot.snap) req =
  let r = require_routine s.dt req in
  [ ("routine", routine_summary s.dt r);
    ("callees",
     J.List
       (List.map
          (fun ((c : P.call), callee) ->
            J.Obj
              [ ("routine", routine_summary s.dt callee);
                ("virtual", J.Bool c.P.c_virt);
                ("loc", loc_json s.dt c.P.c_loc) ])
          (D.callees s.dt r))) ]

let do_callers (s : Snapshot.snap) req =
  let r = require_routine s.dt req in
  [ ("routine", routine_summary s.dt r);
    ("callers", J.List (List.map (routine_summary s.dt) (D.callers s.dt r))) ]

(** The ["root"] argument of [callgraph] and [tree]: a routine id, or a
    plain or qualified routine name.  [None] when the request has none;
    a root that names no routine is a bad argument. *)
let root_arg (d : D.t) req : P.routine_item option =
  let root =
    match (int_arg req "root", str_arg req "root") with
    | Some id, _ -> Some (D.routine d id)
    | None, Some name -> Some (List.find_opt (routine_named d name) (D.routines d))
    | None, None -> None
  in
  match root with
  | Some None -> raise (Bad_args "no such root routine")
  | Some r -> r
  | None -> None

(** A slice of the call graph: the nodes and edges a depth-first walk
    from [root] (default: the routine named main) reaches in at most
    [depth] hops, cycles cut by the visited set. *)
let do_callgraph (s : Snapshot.snap) req =
  let d = s.dt in
  let root =
    match root_arg d req with
    | Some r -> Some r
    | None ->
        List.find_opt (fun (r : P.routine_item) -> r.P.ro_name = "main")
          (D.routines d)
  in
  match root with
  | None -> raise (Bad_args "no such root routine")
  | Some root ->
      let depth = Option.value ~default:2 (int_arg req "depth") in
      if depth < 0 then raise (Bad_args "negative depth");
      (* edge objects are built during the walk and share their field
         pairs: a wide slice has thousands of edges *)
      let virtual_field = function
        | true -> ("virtual", J.Bool true)
        | false -> ("virtual", J.Bool false)
      in
      let visited = Hashtbl.create 64 in
      let nodes = ref [] and edges = ref [] in
      let rec go (r : P.routine_item) k =
        if not (Hashtbl.mem visited r.P.ro_id) then begin
          Hashtbl.replace visited r.P.ro_id ();
          nodes := r :: !nodes;
          if k > 0 then begin
            let from = ("from", num r.P.ro_id) in
            List.iter
              (fun (c : P.call) ->
                match D.routine d c.P.c_callee with
                | None -> ()
                | Some callee ->
                    edges :=
                      J.Obj [ from; ("to", num callee.P.ro_id); virtual_field c.P.c_virt ]
                      :: !edges;
                    go callee (k - 1))
              r.P.ro_calls
          end
        end
      in
      go root depth;
      [ ("root", num root.P.ro_id);
        ("depth", num depth);
        ("nodes", J.List (List.rev_map (routine_summary d) !nodes));
        ("edges", J.List (List.rev !edges)) ]

let do_instantiations (s : Snapshot.snap) req =
  let id = require_id req in
  match D.template s.dt id with
  | None -> raise (Bad_args (Printf.sprintf "no template te#%d" id))
  | Some te ->
      [ ("template", summary s.dt (D.Template te));
        ("instantiations",
         J.List (List.map (summary s.dt) (D.instantiations s.dt te))) ]

let do_templateof (s : Snapshot.snap) req =
  let kind = require_kind req in
  let id = require_id req in
  match item_of_kind_id s.dt kind id with
  | None -> raise (Bad_args (Printf.sprintf "no %s with id %d" kind id))
  | Some it ->
      let te =
        Option.bind (D.item_template_of it) (fun tid ->
            Option.map (fun t -> summary s.dt (D.Template t)) (D.template s.dt tid))
      in
      [ ("item", summary s.dt it); ("template", Option.value ~default:J.Null te) ]

(* ---- define-use chain verbs (PDB >= 1.1 semantic attributes) ---- *)

let require_var (r : P.routine_item) req =
  match str_arg req "var" with
  | None -> raise (Bad_args "missing \"var\"")
  | Some name -> (
      match List.find_opt (fun (v : P.du_var) -> v.P.v_name = name) r.P.ro_du with
      | Some v -> v
      | None ->
          raise
            (Bad_args
               (Printf.sprintf "no define-use data for %S in ro#%d" name r.P.ro_id)))

let du_use_json (d : D.t) (u : P.du_use) : J.t =
  J.Obj
    [ ("loc", loc_json d u.P.u_loc);
      ("reach", J.List (List.map num u.P.u_reach));
      ("uninit", J.Bool u.P.u_uninit) ]

let du_def_json (d : D.t) i (l : P.loc) : J.t =
  J.Obj [ ("index", num i); ("loc", loc_json d l) ]

let do_defs (s : Snapshot.snap) req =
  let r = require_routine s.dt req in
  let v = require_var r req in
  [ ("routine", routine_summary s.dt r);
    ("var", J.Str v.P.v_name);
    ("defs", J.List (List.mapi (du_def_json s.dt) v.P.v_defs));
    ("text", J.Str (Pdt_tools.Duct.defs_text s.dt r v)) ]

let do_uses (s : Snapshot.snap) req =
  let r = require_routine s.dt req in
  let v = require_var r req in
  [ ("routine", routine_summary s.dt r);
    ("var", J.Str v.P.v_name);
    ("uses", J.List (List.map (du_use_json s.dt) v.P.v_uses));
    ("text", J.Str (Pdt_tools.Duct.uses_text s.dt r v)) ]

let do_duchain (s : Snapshot.snap) req =
  let r = require_routine s.dt req in
  let v = require_var r req in
  [ ("routine", routine_summary s.dt r);
    ("var", J.Str v.P.v_name);
    ("chains",
     J.List
       (List.mapi
          (fun i l ->
            J.Obj
              [ ("def", du_def_json s.dt i l);
                ("uses",
                 J.List (List.map (du_use_json s.dt) (Pdt_tools.Duct.uses_of_def v i))) ])
          v.P.v_defs));
    ("uninit_uses",
     J.List
       (List.filter_map
          (fun (u : P.du_use) ->
            if u.P.u_uninit then Some (loc_json s.dt u.P.u_loc) else None)
          v.P.v_uses));
    ("text", J.Str (Pdt_tools.Duct.chain_text s.dt r v)) ]

let do_tree (s : Snapshot.snap) req =
  let which =
    match str_arg req "which" with
    | Some "include" -> `Include
    | Some "class" -> `Class
    | Some "call" -> `Call
    | Some w -> raise (Bad_args (Printf.sprintf "unknown tree %S" w))
    | None -> raise (Bad_args "missing \"which\" (include|class|call)")
  in
  (* only the call tree has a root *)
  let root = if which = `Call then root_arg s.dt req else None in
  [ ("which", J.Str (Option.get (str_arg req "which")));
    ("text", J.Str (Pdt_tools.Pdbtree.tree ~which ?root s.dt)) ]

let do_stats (s : Snapshot.snap) req =
  let fields = Pdt_tools.Pdbstats.summary_fields (Snapshot.stats s) in
  let base =
    [ ("summary", J.Obj (List.map (fun (k, v) -> (k, num v)) fields)) ]
  in
  if bool_arg req "render" = Some true then
    base @ [ ("text", J.Str (Pdt_tools.Pdbstats.report s.dt)) ]
  else base

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type disposition = Continue | Shutdown

(** Evaluate one parsed request against the holder.  Exactly one
    [Snapshot.current] read happens here; [reload] is the only verb that
    touches the cell again (through {!Snapshot.reload}'s mutex). *)
let handle_request (holder : Snapshot.t) (req : J.t) : J.t * disposition =
  let id = Option.value ~default:J.Null (J.member "id" req) in
  let snap = Snapshot.current holder in
  let gen = snap.Snapshot.gen in
  match J.member "verb" req with
  | None | Some (J.Null) ->
      (error_reply ~id ~gen "bad-request" "missing \"verb\"", Continue)
  | Some (J.Str verb) -> (
      let run fields = ok_reply ~id ~gen fields in
      try
        Pdt_util.Trace.timed ~cat:"serve" "serve.query"
          ~args:[ ("verb", Pdt_util.Trace.Str verb) ]
        @@ fun () ->
        match verb with
        | "hello" -> (run (do_hello snap req), Continue)
        | "ping" -> (run [ ("pong", J.Bool true) ], Continue)
        | "info" -> (run (do_info snap), Continue)
        | "list" -> (run (do_list snap req), Continue)
        | "find" -> (run (do_find snap req), Continue)
        | "item" -> (run (do_item snap req), Continue)
        | "callees" -> (run (do_callees snap req), Continue)
        | "callers" -> (run (do_callers snap req), Continue)
        | "callgraph" -> (run (do_callgraph snap req), Continue)
        | "instantiations" -> (run (do_instantiations snap req), Continue)
        | "templateof" -> (run (do_templateof snap req), Continue)
        | "defs" -> (run (do_defs snap req), Continue)
        | "uses" -> (run (do_uses snap req), Continue)
        | "duchain" -> (run (do_duchain snap req), Continue)
        | "tree" -> (run (do_tree snap req), Continue)
        | "stats" -> (run (do_stats snap req), Continue)
        | "shutdown" -> (run [ ("stopping", J.Bool true) ], Shutdown)
        | "reload" -> (
            match Snapshot.reload holder with
            | Ok (next, stats) ->
                ( ok_reply ~id ~gen:next.Snapshot.gen
                    [ ("reloaded", J.Bool true);
                      ("previous", num gen);
                      ("reanalyzed", num stats.Snapshot.reanalyzed);
                      ("reused", num stats.Snapshot.reused) ],
                  Continue )
            | Error msg ->
                (error_reply ~id ~gen "reload-failed" msg, Continue))
        | verb ->
            ( error_reply ~id ~gen "unknown-verb"
                (Printf.sprintf "unknown verb %S" verb),
              Continue )
      with
      | Bad_args msg -> (error_reply ~id ~gen "bad-args" msg, Continue)
      | e ->
          (* the last-resort net: a handler bug must degrade to a
             structured reply, never to a dropped daemon *)
          ( error_reply ~id ~gen "internal"
              (verb ^ ": " ^ Printexc.to_string e),
            Continue ))
  | Some _ ->
      (error_reply ~id ~gen "bad-request" "\"verb\" must be a string", Continue)

(** Decode, dispatch, and render one protocol line.  Total: any input
    byte string gets a one-line JSON reply. *)
let handle_line (holder : Snapshot.t) (line : string) : string * disposition =
  let reply, disp =
    match
      Pdt_util.Trace.timed ~cat:"serve" "serve.parse" @@ fun () ->
      J.parse line
    with
    | Error msg ->
        let gen = (Snapshot.current holder).Snapshot.gen in
        (error_reply ~id:J.Null ~gen "bad-json" msg, Continue)
    | Ok (J.Obj _ as req) -> handle_request holder req
    | Ok _ ->
        let gen = (Snapshot.current holder).Snapshot.gen in
        (error_reply ~id:J.Null ~gen "bad-request" "request must be a JSON object",
         Continue)
  in
  (J.to_string reply, disp)
