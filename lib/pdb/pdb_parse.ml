(** PDB deserialization: parses the ASCII format written by {!Pdb_write}.

    A single-pass cursor parser: it walks the source once, tracking a
    position and a line number, and builds items in place as their
    attribute lines stream by.  Which keys a kind accepts and what each
    sets come from the {!Pdb_schema} table; keys are matched in place
    (no substring is cut) and value types parse the rest of the line.
    Unlike the reference parser ({!Pdb_parse_ref}) it allocates no line
    list, no trimmed copies and no block structures, and it routes names
    and enumerated values through the {!Pdt_util.Intern} pool.

    Compatibility: the parse result is structurally identical to the
    reference parser's, and [Parse_error] line numbers match it, including
    its two-pass error ordering — the reference parser validates structure
    (item-id syntax, attributes inside blocks) over the whole file before
    it interprets any attribute, so a structural error on a late line wins
    over a semantic error on an early one.  This parser emulates that by
    deferring the first semantic error and continuing in a structure-only
    scan; tests in [test_pdb.ml] pin the behavior against the reference. *)

open Pdb
module S = Pdb_schema

exception Parse_error = S.Parse_error
(** line number, message *)


(* The item under construction.  List-valued fields accumulate reversed
   (constant-time prepend) until the block ends. *)
type building = B : 'i S.kind * 'i -> building

(* The block ended: run the value types' finishers (list reversal, the
   assembly of a type's [ty_info]) and file the item. *)
let finish ctx t (B (k, x)) =
  for i = 0 to Array.length k.attrs - 1 do
    match Array.unsafe_get k.attrs i with
    | S.A { vt = { finish = Some f; _ }; get; set; _ } -> set x (f ctx (get x))
    | S.A _ -> ()
  done;
  k.set_items t (x :: k.items t)

(* one attribute line: key = src[ks,ke), value = src[vs,ve) *)
let attribute ctx (B (k, x)) ln ks ke vs ve =
  match S.lookup k.keys ctx.S.hint 0 ctx.S.src ks ke with
  | -1 -> S.fail2 ln "unknown %s attribute '%s'" k.prefix (S.sub ctx.S.src ks ke)
  | i -> (
      ctx.S.hint <- i;
      let code = snd k.keys.(i) in
      match k.attrs.(code lsr 4) with
      | S.A a -> a.set x (a.vt.read ctx (code land 15) ln vs ve (a.get x)))

let prefixes = Array.map (fun (S.K k) -> (k.prefix, 0)) S.kinds

(* a header line "prefix#id name": the blank item of that kind *)
let header src ln hs he ns ne =
  let h, id = S.split_id_at ~structural:true src ln hs he in
  let name = if ns < ne then Pdt_util.Intern.intern_sub src ns (ne - ns) else "" in
  match S.lookup prefixes 0 0 src hs h with
  | -1 -> S.fail2 ln "unknown item prefix '%s'" (S.sub src hs h)
  | i -> let (S.K k) = S.kinds.(i) in B (k, k.make id name)

let of_string (src : string) : t =
  (* injection site for parse-time corruption drills: raising (rather than
     mangling [src], which could yield a silently-wrong parse) keeps the
     fault visible as a transient the cache/build layers must absorb *)
  Pdt_util.Fault.check "pdb.parse";
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.parse" @@ fun () ->
  let len = String.length src in
  let t = create () in
  let ctx = S.context src in
  let cur : building option ref = ref None in
  let deferred : exn option ref = ref None in
  (* once [deferred] is set we keep scanning structure only; [in_block]
     replaces [cur] as the attribute-placement state *)
  let in_block = ref false in
  let finalize () =
    (match !cur with Some b -> finish ctx t b | None -> ());
    cur := None;
    in_block := false
  in
  let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012' in
  let pos = ref 0 and lineno = ref 0 in
  while !pos <= len do
    incr lineno;
    let ln = !lineno in
    let ls = !pos in
    let nl =
      (* index_from, not index_from_opt: memchr speed without the
         per-line [Some] allocation *)
      if ls >= len then len
      else
        match String.index_from src ls '\n' with
        | i -> i
        | exception Not_found -> len
    in
    pos := nl + 1;
    (* trim the line in place *)
    let s = ref ls and e = ref nl in
    while !s < !e && is_space (String.unsafe_get src !s) do incr s done;
    while !e > !s && is_space (String.unsafe_get src (!e - 1)) do decr e done;
    let s = !s and e = !e in
    if s >= e then finalize ()
    else if e - s > 5 && S.word_is src s (s + 5) "<PDB " then
      set_header t (S.sub src (s + 5) (e - 1))
    else begin
      (* key = up to the first space; value = the rest of the line *)
      let ke = S.index_in src ' ' s e in
      let vs = if ke < e then ke + 1 else e in
      let is_header = S.index_in src '#' s ke < ke in
      match !deferred with
      | Some _ ->
          (* structure-only continuation: validate ids and placement, as
             the reference parser's first pass does *)
          if is_header then begin
            ignore (S.split_id_at ~structural:true src ln s ke);
            in_block := true
          end
          else if not !in_block then
            S.fail ln "attribute '%s' outside of an item block" (S.sub src s ke)
      | None -> (
          try
            if is_header then begin
              finalize ();
              cur := Some (header src ln s ke vs e);
              in_block := true
            end
            else
              match !cur with
              | None -> S.fail ln "attribute '%s' outside of an item block" (S.sub src s ke)
              | Some b -> attribute ctx b ln s ke vs e
          with S.Pass2 err ->
            deferred := Some err;
            cur := None;
            in_block := true)
    end
  done;
  (match !deferred with Some err -> raise err | None -> ());
  finalize ();
  Array.iter (fun (S.K k) -> k.set_items t (List.rev (k.items t))) S.kinds;
  t

let of_file path : t = of_string (In_channel.with_open_bin path In_channel.input_all)
