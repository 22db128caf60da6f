(** pdbstats: static software metrics over a program database.

    Not one of the paper's four utilities — it is the kind of tool the paper
    argues PDT makes cheap to build ("a tool of some complexity was easily
    implemented using the DUCTAPE API").  Computes, per routine, call fan-in
    and fan-out; per class, method/member counts, inheritance depth and
    coupling; and whole-program summary numbers. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape

type routine_stats = {
  rs_name : string;
  rs_fan_out : int;   (** distinct callees *)
  rs_fan_in : int;    (** distinct callers *)
  rs_defined : bool;
}

type class_stats = {
  cs_name : string;
  cs_methods : int;
  cs_members : int;
  cs_bases : int;
  cs_depth : int;          (** inheritance depth (longest base chain) *)
  cs_derived : int;
  cs_coupling : int;       (** distinct other classes referenced by member
                               types and method signatures *)
  cs_instantiation : bool;
}

type summary = {
  n_routines : int;
  n_defined : int;
  n_classes : int;
  n_instantiations : int;
  n_call_edges : int;
  max_fan_out : int;
  max_fan_in : int;
  max_inheritance_depth : int;
  unreachable_from_main : int;  (** defined routines not reachable from main *)
  n_spawn_sites : int;
  n_du_vars : int;
  n_du_uses : int;
  n_uninit_uses : int;          (** uses flagged possibly-uninitialized *)
  n_mhp_pairs : int;            (** may-happen-in-parallel routine pairs *)
}

let dedup lst = List.sort_uniq compare lst

(* distinct callees of [r] *)
let fan_out (r : P.routine_item) : int =
  List.length (dedup (List.map (fun (c : P.call) -> c.c_callee) r.ro_calls))

(* distinct callers of [r] *)
let fan_in (d : D.t) (r : P.routine_item) : int =
  List.length (dedup (List.map (fun (x : P.routine_item) -> x.ro_id) (D.callers d r)))

let routine_stats (d : D.t) : routine_stats list =
  List.map
    (fun (r : P.routine_item) ->
      { rs_name = D.routine_full_name d r;
        rs_fan_out = fan_out r;
        rs_fan_in = fan_in d r;
        rs_defined = r.ro_defined })
    (D.routines d)

let rec inheritance_depth (d : D.t) seen (c : P.class_item) : int =
  if List.mem c.P.cl_id seen then 0
  else
    match D.bases d c with
    | [] -> 0
    | bs ->
        1
        + List.fold_left
            (fun acc (_, _, b) -> max acc (inheritance_depth d (c.P.cl_id :: seen) b))
            0 bs

let class_coupling (d : D.t) (c : P.class_item) : int =
  let of_typeref = function
    | P.Clref id when id <> c.P.cl_id -> [ id ]
    | _ -> []
  in
  let member_refs = List.concat_map (fun m -> of_typeref m.P.m_type) c.P.cl_members in
  let sig_refs =
    List.concat_map
      (fun (r : P.routine_item) ->
        match r.P.ro_sig with
        | P.Tyref id -> (
            match D.type_ d id with
            | Some { P.ty_info = P.Yfunc { rett; args; _ }; _ } ->
                of_typeref rett @ List.concat_map (fun (a, _) -> of_typeref a) args
            | _ -> [])
        | P.Clref _ -> [])
      (D.member_functions d c)
  in
  List.length (dedup (member_refs @ sig_refs))

let class_stats (d : D.t) : class_stats list =
  List.map
    (fun (c : P.class_item) ->
      { cs_name = D.class_full_name d c;
        cs_methods = List.length c.P.cl_funcs;
        cs_members = List.length c.P.cl_members;
        cs_bases = List.length c.P.cl_bases;
        cs_depth = inheritance_depth d [] c;
        cs_derived = List.length (D.derived d c);
        cs_coupling = class_coupling d c;
        cs_instantiation = c.P.cl_templ <> None })
    (D.classes d)

(* ids of the routines reachable from main over call edges *)
let reachable_from_main (d : D.t) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let rec go (r : P.routine_item) =
    if not (Hashtbl.mem seen r.P.ro_id) then begin
      Hashtbl.replace seen r.P.ro_id ();
      List.iter (fun (_, callee) -> go callee) (D.callees d r)
    end
  in
  Option.iter go
    (List.find_opt (fun (r : P.routine_item) -> r.P.ro_name = "main") (D.routines d));
  seen

(* One pass per count, straight over the item lists: no per-item record
   or qualified name is built just to be counted. *)
let summary (d : D.t) : summary =
  let routines = D.routines d and classes = D.classes d in
  let count p l = List.fold_left (fun n x -> if p x then n + 1 else n) 0 l in
  let sum f l = List.fold_left (fun n x -> n + f x) 0 l in
  let max_of f l = List.fold_left (fun m x -> max m (f x)) 0 l in
  let reach = reachable_from_main d in
  { n_routines = List.length routines;
    n_defined = count (fun (r : P.routine_item) -> r.ro_defined) routines;
    n_classes = List.length classes;
    n_instantiations = count (fun (c : P.class_item) -> c.cl_templ <> None) classes;
    n_call_edges = sum (fun (r : P.routine_item) -> List.length r.ro_calls) routines;
    max_fan_out = max_of fan_out routines;
    max_fan_in = max_of (fan_in d) routines;
    max_inheritance_depth = max_of (inheritance_depth d []) classes;
    unreachable_from_main =
      count
        (fun (r : P.routine_item) ->
          r.ro_defined && r.ro_name <> "main" && not (Hashtbl.mem reach r.ro_id))
        routines;
    n_spawn_sites = sum (fun (r : P.routine_item) -> List.length r.ro_spawns) routines;
    n_du_vars = sum (fun (r : P.routine_item) -> List.length r.ro_du) routines;
    n_du_uses =
      sum (fun (r : P.routine_item) -> sum (fun (v : P.du_var) -> List.length v.v_uses) r.ro_du)
        routines;
    n_uninit_uses =
      sum
        (fun (r : P.routine_item) ->
          sum (fun (v : P.du_var) -> count (fun (u : P.du_use) -> u.u_uninit) v.v_uses) r.ro_du)
        routines;
    n_mhp_pairs = List.length (Pdt_analyzer.Mhp.pairs (Pdt_analyzer.Mhp.compute (D.pdb d))) }

(** The summary as labeled fields, in report order — the single source
    both the text {!report} and machine consumers (the pdbd [stats] verb)
    draw from, so the two can never disagree on a number. *)
let summary_fields (s : summary) : (string * int) list =
  [ ("routines", s.n_routines);
    ("defined", s.n_defined);
    ("classes", s.n_classes);
    ("instantiations", s.n_instantiations);
    ("call_edges", s.n_call_edges);
    ("max_fan_out", s.max_fan_out);
    ("max_fan_in", s.max_fan_in);
    ("max_inheritance_depth", s.max_inheritance_depth);
    ("unreachable_from_main", s.unreachable_from_main);
    ("spawn_sites", s.n_spawn_sites);
    ("du_vars", s.n_du_vars);
    ("du_uses", s.n_du_uses);
    ("uninit_uses", s.n_uninit_uses);
    ("mhp_pairs", s.n_mhp_pairs) ]

let report (d : D.t) : string =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let s = summary d in
  pr "Program statistics";
  pr "------------------";
  (* degraded-compilation marker (PR 4): a PDB written after recovered
     front-end errors is usable but partial — say so before any numbers *)
  if (D.pdb d).P.incomplete then begin
    pr "WARNING: incomplete PDB (%d diagnostic%s recorded during compilation);"
      (D.pdb d).P.diag_count (if (D.pdb d).P.diag_count = 1 then "" else "s");
    pr "         the statistics below describe the recovered portion only";
    pr ""
  end;
  pr "routines          : %d (%d defined)" s.n_routines s.n_defined;
  pr "classes           : %d (%d template instantiations)" s.n_classes s.n_instantiations;
  pr "call edges        : %d" s.n_call_edges;
  pr "max fan-out       : %d" s.max_fan_out;
  pr "max fan-in        : %d" s.max_fan_in;
  pr "max inherit depth : %d" s.max_inheritance_depth;
  pr "dead (defined, unreachable from main): %d" s.unreachable_from_main;
  (* semantic analyses (define-use, spawn/MHP): absent — not zero — on
     databases written before version 1.1 *)
  if P.lacks_semantics (D.pdb d) then
    pr "semantic analyses  : not present (PDB version %s predates them)"
      (D.pdb d).P.version
  else begin
    pr "spawn sites       : %d" s.n_spawn_sites;
    pr "define-use        : %d vars, %d uses (%d possibly uninitialized)"
      s.n_du_vars s.n_du_uses s.n_uninit_uses;
    pr "MHP pairs         : %d" s.n_mhp_pairs
  end;
  pr "";
  pr "%-36s %7s %7s" "routine" "fan-out" "fan-in";
  List.iter
    (fun r -> pr "%-36s %7d %7d" r.rs_name r.rs_fan_out r.rs_fan_in)
    (List.filter (fun r -> r.rs_fan_out > 0 || r.rs_fan_in > 0) (routine_stats d));
  pr "";
  pr "%-24s %7s %7s %6s %6s %9s" "class" "methods" "members" "bases" "depth" "coupling";
  List.iter
    (fun c ->
      pr "%-24s %7d %7d %6d %6d %9d" c.cs_name c.cs_methods c.cs_members c.cs_bases
        c.cs_depth c.cs_coupling)
    (class_stats d);
  Buffer.contents b
