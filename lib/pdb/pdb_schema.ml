(** The PDB schema: one table describes every item kind of the program
    database (paper Table 1) in both containers.

    A kind ([so na te ro cl ty ma]) lists its attributes in ASCII order
    (Figure 3).  Each descriptor gives the ASCII key, the {!Pdb} field it
    reads and writes, the value type, whether the writer omits the
    default, and the first word of its slot in the PDB-B record.  A
    kind's [make] builds the blank item the parsers start from; its field
    values are the defaults.  A value type holds the code of each format
    once: ASCII printer and parser, PDB-B encoder and decoder.
    {!Pdb_write}, {!Pdb_parse} and {!Pdb_bin} are generic engines over
    the table, so a new attribute is one descriptor.  Four irregular
    value types own several keys: a type's [ty_info], a routine's
    define-use chains, a class's members, and a routine's parent, written
    as [rclass] or [rnspace]. *)

open Pdb

exception Parse_error of int * string
(** ASCII: line number, message.  Re-exported as {!Pdb_parse.Parse_error}. *)

exception Format_error of string
(** PDB-B.  Re-exported as {!Pdb_bin.Format_error}. *)

(* A semantic ASCII error, deferred so that structural errors further
   down the file keep winning, as in the reference parser. *)
exception Pass2 of exn

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt
let fail2 lineno fmt = Printf.ksprintf (fun m -> raise (Pass2 (Parse_error (lineno, m)))) fmt
let err fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ---- ASCII primitives ---- *)

let escape_text s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '\n' -> Buffer.add_string b "\\n"
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape_text s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | '\\' when !i + 1 < n -> (
         incr i;
         match s.[!i] with
         | 'n' -> Buffer.add_char b '\n'
         | '\\' -> Buffer.add_char b '\\'
         | c -> Buffer.add_char b '\\'; Buffer.add_char b c)
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

(* decimal digits straight into the buffer, without an intermediate string *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

(* [pre] includes the '#': "so#" *)
let add_ref b pre id = Buffer.add_string b pre; add_int b id

let add_loc b (l : loc) =
  if l.lfile = 0 then Buffer.add_string b "NULL 0 0"
  else begin
    add_ref b "so#" l.lfile; Buffer.add_char b ' ';
    add_int b l.lline; Buffer.add_char b ' '; add_int b l.lcol
  end

let add_extent b (e : extent) =
  add_loc b e.hstart; Buffer.add_char b ' '; add_loc b e.hstop; Buffer.add_char b ' ';
  add_loc b e.bstart; Buffer.add_char b ' '; add_loc b e.bstop

(* one "key value" line, and a bare "key" line *)
let add_line b key show v =
  Buffer.add_string b key; Buffer.add_char b ' '; show b v; Buffer.add_char b '\n'

let add_flag b key = Buffer.add_string b key; Buffer.add_char b '\n'

let sub src s e = String.sub src s (e - s)

(* Digits-only value of src[s,e): -1 when empty, over-long (possible
   overflow) or any non-digit; callers then take the general path. *)
let rec digits_from src i e acc =
  if i >= e then acc
  else
    match String.unsafe_get src i with
    | '0' .. '9' as c -> digits_from src (i + 1) e ((acc * 10) + (Char.code c - 48))
    | _ -> -1

let digits src s e = if s >= e || e - s > 18 then -1 else digits_from src s e 0

(* int_of_string_opt over src[s,e), allocation-free for plain digits *)
let int_of_sub src s e =
  match digits src s e with
  | -1 -> if s >= e then None else int_of_string_opt (sub src s e)
  | n -> Some n

(* does src[s,e) equal lit?  (The scanners here are top-level
   recursive functions: a local one would allocate a closure per call.) *)
let rec eq_from src s lit i =
  i >= String.length lit
  || (String.unsafe_get src (s + i) = String.unsafe_get lit i && eq_from src s lit (i + 1))

let word_is src s e lit = e - s = String.length lit && eq_from src s lit 0

(* the first index in [i, e) holding [c], or [e] *)
let rec index_in src c i e =
  if i >= e || String.unsafe_get src i = c then i else index_in src c (i + 1) e

(* split "so#12" at src[s,e) into the '#' position and the numeric id.
   [structural] selects immediate vs deferred failure (header lines are
   validated structurally; ids inside attribute values are semantic). *)
let split_id_at ~structural src lineno s e =
  let bad () =
    let m = Printf.sprintf "malformed item id '%s'" (sub src s e) in
    raise (if structural then Parse_error (lineno, m) else Pass2 (Parse_error (lineno, m)))
  in
  match index_in src '#' s e with
  | h when h = e -> bad ()
  | h -> ( match int_of_sub src (h + 1) e with Some n -> (h, n) | None -> bad ())

(* The id of "p#<digits>" with two-letter prefix [p] — the only shape
   the writer emits — or -1, sending the caller to the general path. *)
let ref_fast src s e p =
  if
    e - s > 3
    && String.unsafe_get src s = String.unsafe_get p 0
    && String.unsafe_get src (s + 1) = String.unsafe_get p 1
    && String.unsafe_get src (s + 2) = '#'
  then digits src (s + 3) e
  else -1

(* Space-separated fields of src[s,e), with String.split_on_char
   semantics (an empty region is one empty field).  [next_field] reports
   the bounds in [fs]/[fe], so a field costs no allocation. *)
type fields = {
  fsrc : string;
  mutable fpos : int;
  flim : int;
  mutable fdone : bool;
  mutable fs : int;  (* start of the field just read *)
  mutable fe : int;  (* end of the field just read *)
}

let fields src s e = { fsrc = src; fpos = s; flim = e; fdone = false; fs = 0; fe = 0 }

let next_field f =
  (not f.fdone)
  &&
  let e = index_in f.fsrc ' ' f.fpos f.flim in
  f.fs <- f.fpos;
  f.fe <- e;
  if e >= f.flim then f.fdone <- true else f.fpos <- e + 1;
  true

(* one more field, or "malformed <key>" *)
let need_field fl ln key = if not (next_field fl) then fail2 ln "malformed %s" key

(* A location, "so#3 12 7" or "NULL 0 0", from three field ranges.  The
   fast path covers what the writer emits; anything else (exotic integer
   spellings, malformed ids) takes the general path, which also produces
   the errors. *)
let loc_of_ranges src ln a a' b b' c c' =
  if word_is src a a' "NULL" then null_loc
  else
    let fid = ref_fast src a a' "so" and l = digits src b b' and col = digits src c c' in
    if fid >= 0 && l >= 0 && col >= 0 then { lfile = fid; lline = l; lcol = col }
    else
      let h, fid = split_id_at ~structural:false src ln a a' in
      match (word_is src a h "so", int_of_sub src b b', int_of_sub src c c') with
      | true, Some l, Some col -> { lfile = fid; lline = l; lcol = col }
      | _ -> fail2 ln "malformed location"

let parse_loc_fields src ln fl =
  if not (next_field fl) then fail2 ln "truncated location";
  let a = fl.fs and a' = fl.fe in
  if not (next_field fl) then fail2 ln "truncated location";
  let b = fl.fs and b' = fl.fe in
  if not (next_field fl) then fail2 ln "truncated location";
  loc_of_ranges src ln a a' b b' fl.fs fl.fe

(* the same for a whole attribute value, scanning the three fields in
   place: locations are the most frequent value by far *)
let parse_loc_value src ln s e =
  let a' = index_in src ' ' s e in
  if a' >= e then fail2 ln "truncated location";
  let b' = index_in src ' ' (a' + 1) e in
  if b' >= e then fail2 ln "truncated location";
  loc_of_ranges src ln s a' (a' + 1) b' (b' + 1) (index_in src ' ' (b' + 1) e)

(* a type's [ty_info] parts, collected until its block ends *)
type ty_acc = {
  mutable a_kind : string;
  mutable a_ikind : string;
  mutable a_target : typeref;
  mutable a_const : bool;
  mutable a_vol : bool;
  mutable a_elem : typeref;
  mutable a_size : int option;
  mutable a_rett : typeref;
  mutable a_args : (typeref * bool) list;  (* reversed *)
  mutable a_ellip : bool;
  mutable a_excep : typeref list option;
  mutable a_cons : (string * int64) list;  (* reversed *)
}

let blank_acc () =
  { a_kind = ""; a_ikind = ""; a_target = Tyref 0; a_const = false; a_vol = false;
    a_elem = Tyref 0; a_size = None; a_rett = Tyref 0; a_args = []; a_ellip = false;
    a_excep = None; a_cons = [] }

(** The state of one ASCII parse: the source, the type under way, and
    where the last key was found (see {!lookup}). *)
type pctx = { src : string; mutable acc : ty_acc; mutable hint : int }

let context src = { src; acc = blank_acc (); hint = 0 }

(* canonical copy of src[s,e); allocation-free when already pooled *)
let intern_sub c s e = Pdt_util.Intern.intern_sub c.src s (e - s)

(* ---- PDB-B primitives ---- *)

(* u32 words being written, little-endian: a record or the aux section *)
type sink = { mutable b : Bytes.t; mutable n : int }

let sink words = { b = Bytes.make (4 * words) '\000'; n = 0 }

let add_word k v =
  let o = 4 * k.n in
  if o + 4 > Bytes.length k.b then begin
    let b = Bytes.make (2 * Bytes.length k.b) '\000' in
    Bytes.blit k.b 0 b 0 o;
    k.b <- b
  end;
  Bytes.set_int32_le k.b o (Int32.of_int v);
  k.n <- k.n + 1

(* Signed words (ids, positions, sizes) hold [-2^31, 2^31), unsigned
   ones [0, 2^32); the writer refuses a value that would read back as
   another number. *)
let sword k v =
  if v < -0x8000_0000 || v > 0x7FFF_FFFF then
    err "value %d is outside the signed 32-bit range of PDB-B" v;
  add_word k v

let uword k v =
  if v < 0 || v > 0xFFFF_FFFF then err "value %d is outside the unsigned 32-bit range of PDB-B" v;
  add_word k v

let bword k b = add_word k (if b then 1 else 0)

(* The string pool: each distinct string once, ids in first-use order. *)
type pool = { tbl : (string, int) Hashtbl.t; mutable rev : string list; mutable bytes : int }

(** The state of one PDB-B encode: the string pool and the aux words. *)
type enc = { pool : pool; aux : sink }

let encoder () =
  { pool = { tbl = Hashtbl.create 1024; rev = []; bytes = 0 }; aux = sink 16384 }

let sid (p : pool) (s : string) : int =
  match Hashtbl.find_opt p.tbl s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length p.tbl in
      Hashtbl.add p.tbl s i;
      p.rev <- s :: p.rev;
      p.bytes <- p.bytes + String.length s;
      i

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* u32 at byte offset [off], in a range the caller has validated *)
let u32 (b : buf) (off : int) : int =
  let g i = Char.code (Bigarray.Array1.unsafe_get b i) in
  g off lor (g (off + 1) lsl 8) lor (g (off + 2) lsl 16) lor (g (off + 3) lsl 24)

let i32 (b : buf) (off : int) : int =
  let v = u32 b off in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(** The state of one PDB-B decode: the mapped bytes, the extracted string
    pool, the aux section, and a cursor for variable-width payloads,
    whose reads must stay before [stop], the payload's end. *)
type dec = {
  buf : buf;
  strings : string array;
  aux_base : int;   (* byte offset of the first aux word *)
  aux_count : int;  (* words in the aux section *)
  mutable pos : int;
  mutable stop : int;
}

(* byte offset of the next [k] words *)
let take d k =
  let o = d.pos in
  if o + (4 * k) > d.stop then err "payload truncated at byte %d" o;
  d.pos <- o + (4 * k);
  o

let rd_u d = u32 d.buf (take d 1)

(* Check that [words] aux words from word [off] lie inside the aux
   section, move the cursor there, and return their byte offset. *)
let enter_aux d off words what =
  if off + words > d.aux_count then
    err "%s: aux reference [%d..%d) outside aux section of %d words" what off (off + words)
      d.aux_count;
  d.pos <- d.aux_base + (4 * off);
  d.stop <- d.pos + (4 * words);
  d.pos

(* ---- Value types ---- *)

(** A value's PDB-B form: [words] u32 words, written at the sink's
    cursor and read at a byte offset.  A variable-width value ([words =
    0], inside aux payloads only) reads at the decoder's cursor instead. *)
type 'v bin = { words : int; put : enc -> sink -> 'v -> unit; get : dec -> int -> 'v }

(* the next value at the cursor *)
let next d b = b.get d (if b.words > 0 then take d b.words else 0)

(** A value that fits on one ASCII line after its key. *)
type 'v value = {
  show : Buffer.t -> 'v -> unit;
  parse : pctx -> string -> int -> int -> int -> 'v;
      (** key (for messages), line number, value text [s, e) *)
  bin : 'v bin;
}

let sint = { words = 1; put = (fun _ k v -> sword k v); get = (fun d o -> i32 d.buf o) }
let uint = { words = 1; put = (fun _ k v -> uword k v); get = (fun d o -> u32 d.buf o) }

let string_at d id =
  if id >= Array.length d.strings then err "string id %d out of range" id;
  Array.unsafe_get d.strings id

let str_bin =
  { words = 1;
    put = (fun e k s -> uword k (sid e.pool s));
    get = (fun d o -> string_at d (u32 d.buf o)) }

let loc_bin =
  { words = 3;
    put = (fun _ k l -> sword k l.lfile; sword k l.lline; sword k l.lcol);
    get =
      (fun d o -> { lfile = i32 d.buf o; lline = i32 d.buf (o + 4); lcol = i32 d.buf (o + 8) }) }

(* in PDB-B payloads: a count word, then the elements *)
let counted b =
  { words = 0;
    put = (fun e k xs -> uword k (List.length xs); List.iter (b.put e k) xs);
    get = (fun d _ -> List.init (rd_u d) (fun _ -> next d b)) }

let loc =
  { show = add_loc; parse = (fun c _ ln s e -> parse_loc_value c.src ln s e); bin = loc_bin }

let extent =
  { show = add_extent;
    parse =
      (fun c _ ln s e ->
        let fl = fields c.src s e in
        let loc () = parse_loc_fields c.src ln fl in
        let hstart = loc () in let hstop = loc () in let bstart = loc () in
        { hstart; hstop; bstart; bstop = loc () });
    bin =
      { words = 12;
        put = (fun e k x -> List.iter (loc_bin.put e k) [ x.hstart; x.hstop; x.bstart; x.bstop ]);
        get =
          (fun d o ->
            { hstart = loc_bin.get d o; hstop = loc_bin.get d (o + 12);
              bstart = loc_bin.get d (o + 24); bstop = loc_bin.get d (o + 36) }) } }

(* interned: names and enumerated attribute values repeat endlessly *)
let str = { show = Buffer.add_string; parse = (fun c _ _ s e -> intern_sub c s e); bin = str_bin }

(* multi-line bodies (template and macro text), escaped onto one line *)
let text =
  { str with
    show = (fun b s -> Buffer.add_string b (escape_text s));
    parse = (fun c _ _ s e -> unescape_text (sub c.src s e)) }

(* A reference "p#N" whose prefix picks the case: [ps.(i)] is the prefix
   of case [i] ("" for a case written without one), and PDB-B stores [i]
   as a tag word before the id.  [bad key prefix ln] reports any other
   prefix. *)
let rec tag_of ps ~fast src s e i =
  if i = Array.length ps then -1
  else if ps.(i) <> "" && if fast then ref_fast src s e ps.(i) >= 0 else word_is src s e ps.(i)
  then i
  else tag_of ps ~fast src s e (i + 1)

let tagged ps ~(tag : 'v -> int) ~(id : 'v -> int) ~(mk : int -> int -> 'v) bad =
  let pres = Array.map (fun p -> p ^ "#") ps in
  { show = (fun b v -> add_ref b pres.(tag v) (id v));
    parse =
      (fun c key ln s e ->
        match tag_of ps ~fast:true c.src s e 0 with
        | -1 -> (
            let h, n = split_id_at ~structural:false c.src ln s e in
            match tag_of ps ~fast:false c.src s h 0 with
            | -1 -> bad key (sub c.src s h) ln
            | i -> mk i n)
        | i -> mk i (digits c.src (s + 3) e));
    bin =
      { words = 2;
        put = (fun _ k v -> uword k (tag v); sword k (id v));
        get =
          (fun d o ->
            let t = u32 d.buf o in
            if t >= Array.length ps then err "invalid reference tag %d" t;
            mk t (i32 d.buf (o + 4))) } }

let typeref =
  tagged [| "ty"; "cl" |]
    ~tag:(function Tyref _ -> 0 | Clref _ -> 1)
    ~id:(function Tyref i | Clref i -> i)
    ~mk:(fun t i -> if t = 0 then Tyref i else Clref i)
    (fun _ p ln -> fail2 ln "expected type reference, got '%s#'" p)

let parent =
  tagged [| ""; "cl"; "na" |]
    ~tag:(function Pnone -> 0 | Pcl _ -> 1 | Pna _ -> 2)
    ~id:(function Pnone -> 0 | Pcl i | Pna i -> i)
    ~mk:(fun t i -> match t with 0 -> Pnone | 1 -> Pcl i | _ -> Pna i)
    (fun _ p ln -> fail2 ln "expected parent reference, got '%s#'" p)

let itemref =
  tagged [| "so"; "ro"; "cl"; "ty"; "te"; "na"; "ma" |]
    ~tag:(function
      | Rso _ -> 0 | Rro _ -> 1 | Rcl _ -> 2 | Rty _ -> 3 | Rte _ -> 4 | Rna _ -> 5 | Rma _ -> 6)
    ~id:(function Rso i | Rro i | Rcl i | Rty i | Rte i | Rna i | Rma i -> i)
    ~mk:(fun t i ->
      match t with
      | 0 -> Rso i | 1 -> Rro i | 2 -> Rcl i | 3 -> Rty i | 4 -> Rte i | 5 -> Rna i | _ -> Rma i)
    (fun _ p ln -> fail2 ln "unknown item prefix '%s'" p)

let friend =
  tagged [| "cl"; "ro" |]
    ~tag:(function `Cl _ -> 0 | `Ro _ -> 1)
    ~id:(function `Cl i | `Ro i -> i)
    ~mk:(fun t i -> if t = 0 then `Cl i else `Ro i)
    (fun key _ ln -> fail2 ln "%s expects cl# or ro#" key)

(* The id of an item of kind [p], "p#N"; one signed word in PDB-B. *)
let iref p =
  let bad key _ ln = fail2 ln "%s expects %s# reference" key p in
  { (tagged [| p |] ~tag:(fun _ -> 0) ~id:Fun.id ~mk:(fun _ i -> i) bad) with bin = sint }

(* PDB-B stores [None] as the sentinel word, so the writer refuses a
   [Some] whose word equals it.  The ASCII writer never shows [None]: an
   option attribute is omitted at its default. *)
let none_sentinel = 0xFFFF_FFFF

let opt v =
  { show = (fun b -> Option.iter (v.show b));
    parse = (fun c key ln s e -> Some (v.parse c key ln s e));
    bin =
      { words = 1;
        put =
          (fun e k -> function
            | None -> uword k none_sentinel
            | Some x ->
                v.bin.put e k x;
                if Bytes.get_int32_le k.b (4 * (k.n - 1)) = -1l then
                  err "optional value collides with the PDB-B none sentinel");
        get = (fun d o -> if u32 d.buf o = none_sentinel then None else Some (v.bin.get d o)) } }

let ro_ref = iref "ro"
let cl_ref = iref "cl"

(* a fields stream over a composite value, at its first field *)
let first_field c key ln s e =
  let fl = fields c.src s e in
  need_field fl ln key;
  fl

(* "ro#N virt|no <loc>" *)
let call =
  { show =
      (fun b c ->
        add_ref b "ro#" c.c_callee; Buffer.add_string b (if c.c_virt then " virt " else " no ");
        add_loc b c.c_loc);
    parse =
      (fun c key ln s e ->
        let fl = first_field c key ln s e in
        let a = fl.fs and a' = fl.fe in
        need_field fl ln key;
        let c_virt = word_is c.src fl.fs fl.fe "virt" in
        let c_callee = ro_ref.parse c key ln a a' in
        { c_callee; c_virt; c_loc = parse_loc_fields c.src ln fl });
    bin =
      { words = 5;
        put = (fun e k c -> sword k c.c_callee; bword k c.c_virt; loc_bin.put e k c.c_loc);
        get =
          (fun d o ->
            { c_callee = i32 d.buf o; c_virt = u32 d.buf (o + 4) <> 0;
              c_loc = loc_bin.get d (o + 8) }) } }

(* "ro#N <loc> joined <loc>" or "ro#N <loc> live"; in PDB-B the join is a
   flag word and a location, null when there is none *)
let spawn =
  { show =
      (fun b s ->
        add_ref b "ro#" s.sp_callee; Buffer.add_char b ' '; add_loc b s.sp_loc;
        match s.sp_join with
        | Some j -> Buffer.add_string b " joined "; add_loc b j
        | None -> Buffer.add_string b " live");
    parse =
      (fun c key ln s e ->
        let fl = first_field c key ln s e in
        let sp_callee = ro_ref.parse c key ln fl.fs fl.fe in
        let sp_loc = parse_loc_fields c.src ln fl in
        need_field fl ln key;
        let sp_join =
          if word_is c.src fl.fs fl.fe "joined" then Some (parse_loc_fields c.src ln fl)
          else if word_is c.src fl.fs fl.fe "live" then None
          else fail2 ln "%s expects 'joined <loc>' or 'live'" key
        in
        { sp_callee; sp_loc; sp_join });
    bin =
      { words = 8;
        put =
          (fun e k s ->
            sword k s.sp_callee; loc_bin.put e k s.sp_loc; bword k (s.sp_join <> None);
            loc_bin.put e k (Option.value s.sp_join ~default:null_loc));
        get =
          (fun d o ->
            { sp_callee = i32 d.buf o; sp_loc = loc_bin.get d (o + 4);
              sp_join = (if u32 d.buf (o + 16) = 0 then None else Some (loc_bin.get d (o + 20))) })
      } }

(* "acs virt|no cl#N" *)
let base =
  { show =
      (fun b (acs, virt, id) ->
        Buffer.add_string b acs; Buffer.add_string b (if virt then " virt " else " no ");
        add_ref b "cl#" id);
    parse =
      (fun c key ln s e ->
        let fl = first_field c key ln s e in
        let a = fl.fs and a' = fl.fe in
        need_field fl ln key;
        let v = fl.fs and v' = fl.fe in
        need_field fl ln key;
        if next_field fl then fail2 ln "malformed %s" key;
        let id = cl_ref.parse c key ln fl.fs fl.fe in
        (intern_sub c a a', word_is c.src v v' "virt", id));
    bin =
      { words = 3;
        put = (fun e k (acs, virt, id) -> str_bin.put e k acs; bword k virt; sword k id);
        get = (fun d o -> (str_bin.get d o, u32 d.buf (o + 4) <> 0, i32 d.buf (o + 8))) } }

(* "ro#N <loc>" *)
let func =
  { show = (fun b (id, l) -> add_ref b "ro#" id; Buffer.add_char b ' '; add_loc b l);
    parse =
      (fun c key ln s e ->
        let fl = first_field c key ln s e in
        let id = ro_ref.parse c key ln fl.fs fl.fe in
        (id, parse_loc_fields c.src ln fl));
    bin =
      { words = 4;
        put = (fun e k (id, l) -> sword k id; loc_bin.put e k l);
        get = (fun d o -> (i32 d.buf o, loc_bin.get d (o + 4))) } }

(* A define-use use, "<loc> <reach spec>" (see {!Pdb.du_spec_of_use}). *)
let du_use =
  let reach = counted uint in
  { show =
      (fun b u ->
        add_loc b u.u_loc; Buffer.add_char b ' '; Buffer.add_string b (du_spec_of_use u));
    parse =
      (fun c key ln s e ->
        let fl = fields c.src s e in
        let u_loc = parse_loc_fields c.src ln fl in
        need_field fl ln key;
        match du_use_of_spec (sub c.src fl.fs fl.fe) with
        | None -> fail2 ln "malformed %s reach spec" key
        | Some (u_reach, u_uninit) -> { u_loc; u_reach; u_uninit });
    bin =
      { words = 0;
        put = (fun e k u -> loc_bin.put e k u.u_loc; bword k u.u_uninit; reach.put e k u.u_reach);
        get =
          (fun d _ ->
            let u_loc = next d loc_bin in
            let u_uninit = rd_u d <> 0 in
            { u_loc; u_uninit; u_reach = reach.get d 0 }) } }

(* A function type's argument, "<typeref> T|F" (has a default). *)
let argt =
  { show = (fun b (r, d) -> typeref.show b r; Buffer.add_string b (if d then " T" else " F"));
    parse =
      (fun c key ln s e ->
        let fl = first_field c key ln s e in
        let r = fl.fs and r' = fl.fe in
        let d = next_field fl && word_is c.src fl.fs fl.fe "T" in
        if next_field fl then fail2 ln "malformed %s" key;
        (typeref.parse c key ln r r', d));
    bin =
      { words = 3;
        put = (fun e k (r, d) -> typeref.bin.put e k r; bword k d);
        get = (fun d o -> (typeref.bin.get d o, u32 d.buf (o + 8) <> 0)) } }

(* An enum constant, "<name> <value>"; in PDB-B the 64-bit value is two
   unsigned words, low half first. *)
let con =
  { show =
      (fun b (n, v) ->
        Buffer.add_string b n; Buffer.add_char b ' '; Buffer.add_string b (Int64.to_string v));
    parse =
      (fun c key ln s e ->
        let fl = first_field c key ln s e in
        let n = fl.fs and n' = fl.fe in
        need_field fl ln key;
        let v = fl.fs and v' = fl.fe in
        if next_field fl then fail2 ln "malformed %s" key;
        let value = try Int64.of_string (sub c.src v v') with e -> raise (Pass2 e) in
        (intern_sub c n n', value));
    bin =
      { words = 3;
        put =
          (fun e k (n, v) ->
            str_bin.put e k n; uword k (Int64.to_int (Int64.logand v 0xFFFF_FFFFL));
            uword k (Int64.to_int (Int64.shift_right_logical v 32)));
        get =
          (fun d o ->
            let lo = Int64.of_int (u32 d.buf (o + 4)) and hi = Int64.of_int (u32 d.buf (o + 8)) in
            (str_bin.get d o, Int64.logor lo (Int64.shift_left hi 32))) } }

(* A function type's exception list, the references space-separated. *)
let excep =
  { show =
      (fun b -> List.iteri (fun i r -> if i > 0 then Buffer.add_char b ' '; typeref.show b r));
    parse =
      (fun c key ln s e ->
        let fl = fields c.src s e and refs = ref [] in
        while next_field fl do
          if fl.fe > fl.fs then refs := typeref.parse c key ln fl.fs fl.fe :: !refs
        done;
        List.rev !refs);
    bin = counted typeref.bin }

(* ---- Attribute codecs ---- *)

(** How one attribute is written, parsed, encoded and decoded. *)
type 'v vt = {
  write : Buffer.t -> string -> 'v -> unit;  (** ASCII lines; gets the item's name *)
  read : pctx -> int -> int -> int -> int -> 'v -> 'v;
      (** key index, line number, value text [s, e), current value *)
  finish : (pctx -> 'v -> 'v) option;  (** when the item's block ends *)
  rec_words : int;  (** width in the PDB-B record *)
  indirect : bool;  (** an aux reference: encoded before the record's own words *)
  enc : enc -> sink -> 'v -> unit;
  dec : dec -> int -> 'v;  (** at the record slot's byte offset *)
}

(** A codec gets the attribute's keys from the table. *)
type 'v codec = string array -> 'v vt

(* one "key value" line; the value in the record *)
let scalar (v : 'v value) : 'v codec =
 fun keys ->
  let key = keys.(0) and show = v.show in
  { write =
      (fun b _ x ->
        Buffer.add_string b key; Buffer.add_char b ' '; show b x; Buffer.add_char b '\n');
    read = (fun c _ ln s e _ -> v.parse c keys.(0) ln s e);
    finish = None; rec_words = v.bin.words; indirect = false; enc = v.bin.put; dec = v.bin.get }

(* a bare key when true; one bit of a shared record word *)
let flag bit : bool codec =
 fun keys ->
  { write = (fun b _ x -> if x then add_flag b keys.(0));
    read = (fun _ _ _ _ _ _ -> true);
    finish = None; rec_words = 1; indirect = false;
    enc =
      (fun _ k x ->
        let o = 4 * k.n in
        if x then
          Bytes.set_int32_le k.b o (Int32.logor (Bytes.get_int32_le k.b o) (Int32.of_int bit));
        k.n <- k.n + 1);
    dec = (fun d o -> u32 d.buf o land bit <> 0) }

(* An aux run of fixed-width elements, referenced from the record as
   (first aux word, element count). *)
let run (b : 'v bin) what =
  ( (fun e k xs ->
      let off = e.aux.n in
      List.iter (b.put e e.aux) xs;
      uword k off; uword k (List.length xs)),
    fun d o ->
      let n = u32 d.buf (o + 4) in
      let base = enter_aux d (u32 d.buf o) (n * b.words) what in
      List.init n (fun i -> b.get d (base + (4 * b.words * i))) )

(* A variable-width aux payload, referenced from the record as (first
   aux word, word length). *)
let blob (b : 'v bin) what =
  ( (fun e k v ->
      let off = e.aux.n in
      b.put e e.aux v;
      uword k off; uword k (e.aux.n - off)),
    fun d o ->
      ignore (enter_aux d (u32 d.buf o) (u32 d.buf (o + 4)) what);
      b.get d 0 )

(* one line per element, parsed into a reversed list *)
let list (v : 'v value) : 'v list codec =
 fun keys ->
  let enc, dec = run v.bin keys.(0) in
  { write = (fun b _ xs -> List.iter (add_line b keys.(0) v.show) xs);
    read = (fun c _ ln s e xs -> v.parse c keys.(0) ln s e :: xs);
    finish = Some (fun _ xs -> List.rev xs); rec_words = 2; indirect = true; enc; dec }

(* [rclass cl#N] or [rnspace na#N]: the key names the parent's kind;
   either key parses either prefix *)
let parent_split : parentref codec =
 fun keys ->
  { (scalar parent keys) with
    write =
      (fun b _ p ->
        match p with
        | Pnone -> ()
        | Pcl _ -> add_line b keys.(0) parent.show p
        | Pna _ -> add_line b keys.(1) parent.show p) }

let member_bin =
  { words = 10;
    put =
      (fun e k m ->
        str_bin.put e k m.m_name; loc_bin.put e k m.m_loc; str_bin.put e k m.m_acs;
        str_bin.put e k m.m_kind; typeref.bin.put e k m.m_type; bword k m.m_static;
        bword k m.m_mutable);
    get =
      (fun d o ->
        { m_name = str_bin.get d o; m_loc = loc_bin.get d (o + 4); m_acs = str_bin.get d (o + 16);
          m_kind = str_bin.get d (o + 20); m_type = typeref.bin.get d (o + 24);
          m_static = u32 d.buf (o + 32) <> 0; m_mutable = u32 d.buf (o + 36) <> 0 }) }

(* A list whose elements take several lines: the first key opens an
   element, the others fill in the one being filled, the head of the
   reversed list.  [what] names the elements in the error for a line
   that comes before any opening one. *)
let nested what k ~write ~opening ~update ~fix (enc, dec) =
  { write = (fun b _ -> List.iter (write b));
    read =
      (fun c i ln s e xs ->
        match (i, xs) with
        | 0, _ -> opening c s e :: xs
        | _, [] -> fail2 ln "%s attribute without %s" what k.(0)
        | _, x :: xs -> update c i ln s e x :: xs);
    finish = Some (fun _ xs -> List.rev_map fix xs);
    rec_words = 2; indirect = true; enc; dec }

(* Data members: a name, then location, access, kind, type, and the
   static and mutable flags. *)
let members : member list codec =
 fun k ->
  nested "member" k (run member_bin k.(0)) ~fix:Fun.id
    ~write:(fun b m ->
      add_line b k.(0) str.show m.m_name;
      add_line b k.(1) loc.show m.m_loc;
      add_line b k.(2) str.show m.m_acs;
      add_line b k.(3) str.show m.m_kind;
      add_line b k.(4) typeref.show m.m_type;
      if m.m_static then add_flag b k.(5);
      if m.m_mutable then add_flag b k.(6))
    ~opening:(fun c s e ->
      { m_name = intern_sub c s e; m_loc = null_loc; m_acs = "NA"; m_kind = "var";
        m_type = Tyref 0; m_static = false; m_mutable = false })
    ~update:(fun c i ln s e m ->
      match i with
      | 1 -> { m with m_loc = loc.parse c k.(1) ln s e }
      | 2 -> { m with m_acs = intern_sub c s e }
      | 3 -> { m with m_kind = intern_sub c s e }
      | 4 -> { m with m_type = typeref.parse c k.(4) ln s e }
      | 5 -> { m with m_static = true }
      | _ -> { m with m_mutable = true })

let du_var_bin =
  let defs = counted loc_bin and uses = counted du_use.bin in
  { words = 0;
    put = (fun e k v -> str_bin.put e k v.v_name; defs.put e k v.v_defs; uses.put e k v.v_uses);
    get =
      (fun d _ ->
        let v_name = next d str_bin in
        let v_defs = defs.get d 0 in
        { v_name; v_defs; v_uses = uses.get d 0 }) }

(* Define-use chains: a variable's name, then its definitions and uses.
   In PDB-B one variable-width payload, a counted list of variables; no
   chains at all are the reference (0, 0). *)
let du : du_var list codec =
 fun k ->
  let enc, dec = blob (counted du_var_bin) k.(0) in
  let enc e r vars = if vars = [] then (uword r 0; uword r 0) else enc e r vars in
  let dec d o = if u32 d.buf (o + 4) <> 0 then dec d o else [] in
  nested "define-use" k (enc, dec)
    ~write:(fun b v ->
      add_line b k.(0) str.show v.v_name;
      List.iter (add_line b k.(1) loc.show) v.v_defs;
      List.iter (add_line b k.(2) du_use.show) v.v_uses)
    ~opening:(fun c s e -> { v_name = intern_sub c s e; v_defs = []; v_uses = [] })
    ~update:(fun c i ln s e v ->
      if i = 1 then { v with v_defs = loc.parse c k.(1) ln s e :: v.v_defs }
      else { v with v_uses = du_use.parse c k.(2) ln s e :: v.v_uses })
    ~fix:(fun v -> { v with v_defs = List.rev v.v_defs; v_uses = List.rev v.v_uses })

(* In PDB-B the payload's first word is the kind tag, 0 builtin .. 8
   error, followed by the kind's parts. *)
let ty_info_bin =
  let args = counted argt.bin and cons = counted con.bin and tr = typeref.bin in
  { words = 0;
    put =
      (fun e a info ->
        let w = uword a and b = bword a in
        match info with
        | Ybuiltin { yikind } -> w 0; str_bin.put e a yikind
        | Yptr r -> w 1; tr.put e a r
        | Yref r -> w 2; tr.put e a r
        | Ytref { target; yconst; yvolatile } -> w 3; tr.put e a target; b yconst; b yvolatile
        | Yarray { elem; size } ->
            w 4; tr.put e a elem; b (size <> None); sword a (Option.value size ~default:0)
        | Yfunc { rett; args = xs; ellipsis; cqual; exceptions } ->
            w 5; tr.put e a rett; b ellipsis; b cqual; args.put e a xs;
            b (exceptions <> None); Option.iter (excep.bin.put e a) exceptions
        | Yenum { constants } -> w 6; cons.put e a constants
        | Ytparam -> w 7
        | Yerror -> w 8);
    get =
      (fun d _ ->
        let flag () = rd_u d <> 0 in
        match rd_u d with
        | 0 -> Ybuiltin { yikind = next d str_bin }
        | 1 -> Yptr (next d tr)
        | 2 -> Yref (next d tr)
        | 3 ->
            let target = next d tr in
            let yconst = flag () in
            Ytref { target; yconst; yvolatile = flag () }
        | 4 ->
            let elem = next d tr in
            let has = flag () in
            let size = i32 d.buf (take d 1) in
            Yarray { elem; size = (if has then Some size else None) }
        | 5 ->
            let rett = next d tr in
            let ellipsis = flag () in
            let cqual = flag () in
            let args = args.get d 0 in
            let exceptions = if flag () then Some (excep.bin.get d 0) else None in
            Yfunc { rett; args; ellipsis; cqual; exceptions }
        | 6 -> Yenum { constants = cons.get d 0 }
        | 7 -> Ytparam
        | 8 -> Yerror
        | n -> err "ty info: invalid kind tag %d" n) }

(* A type's [ty_info].  Keys: kind, builtin kind, pointer, reference and
   qualified target, qualifier, array element and size, return type,
   argument, ellipsis, exception list, enum constant.  A builtin writes
   its own name as its kind, so ASCII cannot hold a builtin named like
   another kind ([ptr], [enum], ...).  The parts are collected in the
   parse context and assembled when the block ends. *)
let ty_info : ty_info codec =
 fun k ->
  let line b i s = add_line b k.(i) str.show s and tr b i r = add_line b k.(i) typeref.show r in
  let enc, dec = blob ty_info_bin "ty info" in
  { write =
      (fun b name -> function
        | Ybuiltin { yikind } -> line b 0 name; line b 1 yikind
        | Yptr r -> line b 0 "ptr"; tr b 2 r
        | Yref r -> line b 0 "ref"; tr b 3 r
        | Ytref { target; yconst; yvolatile } ->
            line b 0 "tref"; tr b 4 target;
            if yconst then line b 5 "const"; if yvolatile then line b 5 "volatile"
        | Yarray { elem; size } ->
            line b 0 "array"; tr b 6 elem; Option.iter (add_line b k.(7) add_int) size
        | Yfunc { rett; args; ellipsis; cqual; exceptions } ->
            line b 0 "func"; tr b 8 rett; List.iter (add_line b k.(9) argt.show) args;
            if ellipsis then add_flag b k.(10); if cqual then line b 5 "const";
            Option.iter (add_line b k.(11) excep.show) exceptions
        | Yenum { constants } -> line b 0 "enum"; List.iter (add_line b k.(12) con.show) constants
        | Ytparam -> line b 0 "tparam"
        | Yerror -> line b 0 "error");
    read =
      (fun c i ln s e info ->
        let a = c.acc in
        (match i with
         | 0 -> a.a_kind <- intern_sub c s e
         | 1 -> a.a_ikind <- intern_sub c s e
         | 2 | 3 | 4 -> a.a_target <- typeref.parse c k.(i) ln s e
         | 5 ->
             if word_is c.src s e "const" then a.a_const <- true
             else if word_is c.src s e "volatile" then a.a_vol <- true
         | 6 -> a.a_elem <- typeref.parse c k.(i) ln s e
         | 7 -> a.a_size <- int_of_sub c.src s e
         | 8 -> a.a_rett <- typeref.parse c k.(i) ln s e
         | 9 -> a.a_args <- argt.parse c k.(9) ln s e :: a.a_args
         | 10 -> a.a_ellip <- true
         | 11 -> a.a_excep <- Some (excep.parse c k.(11) ln s e)
         | _ -> a.a_cons <- con.parse c k.(12) ln s e :: a.a_cons);
        info);
    finish =
      Some
        (fun c _ ->
          let a = c.acc in
          let info =
            match a.a_kind with
            | "ptr" -> Yptr a.a_target
            | "ref" -> Yref a.a_target
            | "tref" -> Ytref { target = a.a_target; yconst = a.a_const; yvolatile = a.a_vol }
            | "array" -> Yarray { elem = a.a_elem; size = a.a_size }
            | "func" ->
                Yfunc { rett = a.a_rett; args = List.rev a.a_args; ellipsis = a.a_ellip;
                        cqual = a.a_const; exceptions = a.a_excep }
            | "enum" -> Yenum { constants = List.rev a.a_cons }
            | "tparam" -> Ytparam
            | "error" -> Yerror
            | _ -> Ybuiltin { yikind = a.a_ikind }
          in
          c.acc <- blank_acc ();
          info);
    rec_words = 2; indirect = true; enc; dec }

(* ---- Attribute descriptors and item kinds ---- *)

type ('i, 'v) field = {
  keys : string array;  (** ASCII keys; several for the irregular codecs *)
  get : 'i -> 'v;
  set : 'i -> 'v -> unit;
  vt : 'v vt;
  omit : bool;      (** the ASCII writer skips a value equal to [default] *)
  default : 'v;     (** the value in the kind's blank item *)
  at : int;         (** first word of the value in the PDB-B record *)
  since : int;      (** first PDB-B format version whose records hold it *)
}

type 'i attr = A : ('i, 'v) field -> 'i attr

(* A descriptor, completed with its default once the kind's blank item
   exists.  [keys] are space-separated; [always] attributes are written
   even at their default. *)
let custom ?(always = false) ?(since = 1) ~at keys (codec : 'v codec) (get : 'i -> 'v)
    (set : 'i -> 'v -> unit) : 'i -> 'i attr =
  let keys = Array.of_list (String.split_on_char ' ' keys) in
  let vt = codec keys in
  fun blank -> A { keys; get; set; vt; omit = not always; default = get blank; at; since }

(* the common case: one key, one line, the value in the record *)
let attr ?always ?since ~at key v = custom ?always ?since ~at key (scalar v)

(* The position in [keys] of the key src[s,e), or -1.  The scan starts at
   [hint], the previous line's key: a block's lines come in table order,
   so the next key is usually the first or second one tried. *)
let rec lookup (keys : (string * int) array) hint j src s e =
  if j = Array.length keys then -1
  else
    let i = (hint + j) mod Array.length keys in
    if word_is src s e (fst keys.(i)) then i else lookup keys hint (j + 1) src s e

type 'i kind = {
  prefix : string;  (** ASCII item-id prefix *)
  tag : int;        (** PDB-B section tag *)
  make : int -> string -> 'i;  (** the blank item with this id and name *)
  id : 'i -> int;
  name : 'i -> string;
  items : t -> 'i list;
  set_items : t -> 'i list -> unit;
  attrs : 'i attr array;  (** in ASCII order *)
  keys : (string * int) array;  (** for {!lookup} *)
}

type any = K : 'i kind -> any

let kind prefix ~tag ~make ~id ~name ~items ~set_items specs =
  let attrs = Array.of_list (List.map (fun spec -> spec (make 0 "")) specs) in
  let keys ai (A a) = Array.mapi (fun ki k -> (k, (ai lsl 4) lor ki)) a.keys in
  let keys = Array.mapi keys attrs in
  { prefix; tag; make; id; name; items; set_items; attrs; keys = Array.concat (Array.to_list keys) }

(** Record width in words for format version [ver]: an older record is
    a prefix of a newer one, since later attributes sit after it. *)
let record_words (k : 'i kind) ver =
  Array.fold_left
    (fun w (A a) -> if a.since <= ver then max w (a.at + a.vt.rec_words) else w)
    2 k.attrs

(* ---- The table ---- *)

let so =
  kind "so" ~tag:3
    ~make:(fun id name -> { so_id = id; so_name = name; so_includes = [] })
    ~id:(fun f -> f.so_id) ~name:(fun f -> f.so_name)
    ~items:(fun t -> t.files) ~set_items:(fun t l -> t.files <- l)
    [ custom ~at:2 "sinc" (list (iref "so"))
        (fun f -> f.so_includes) (fun f v -> f.so_includes <- v) ]

let na =
  kind "na" ~tag:4
    ~make:(fun id name ->
      { na_id = id; na_name = name; na_loc = null_loc; na_parent = Pnone; na_members = [];
        na_alias = None })
    ~id:(fun n -> n.na_id) ~name:(fun n -> n.na_name)
    ~items:(fun t -> t.namespaces) ~set_items:(fun t l -> t.namespaces <- l)
    [ attr ~at:2 "nloc" loc (fun n -> n.na_loc) (fun n v -> n.na_loc <- v);
      attr ~at:5 "nparent" parent (fun n -> n.na_parent) (fun n v -> n.na_parent <- v);
      custom ~at:8 "nmem" (list itemref) (fun n -> n.na_members) (fun n v -> n.na_members <- v);
      attr ~at:7 "nalias" (opt str) (fun n -> n.na_alias) (fun n v -> n.na_alias <- v) ]

let te =
  kind "te" ~tag:5
    ~make:(fun id name ->
      { te_id = id; te_name = name; te_loc = null_loc; te_parent = Pnone; te_acs = "NA";
        te_kind = "class"; te_text = ""; te_pos = null_extent })
    ~id:(fun x -> x.te_id) ~name:(fun x -> x.te_name)
    ~items:(fun t -> t.templates) ~set_items:(fun t l -> t.templates <- l)
    [ attr ~at:2 "tloc" loc (fun x -> x.te_loc) (fun x v -> x.te_loc <- v);
      attr ~at:5 "tparent" parent (fun x -> x.te_parent) (fun x v -> x.te_parent <- v);
      attr ~at:7 "tacs" str (fun x -> x.te_acs) (fun x v -> x.te_acs <- v);
      attr ~always:true ~at:8 "tkind" str (fun x -> x.te_kind) (fun x v -> x.te_kind <- v);
      attr ~at:9 "ttext" text (fun x -> x.te_text) (fun x v -> x.te_text <- v);
      attr ~at:10 "tpos" extent (fun x -> x.te_pos) (fun x v -> x.te_pos <- v) ]

let ro =
  kind "ro" ~tag:6
    ~make:(fun id name ->
      { ro_id = id; ro_name = name; ro_loc = null_loc; ro_parent = Pnone; ro_acs = "NA";
        ro_sig = Tyref 0; ro_link = "C++"; ro_store = "NA"; ro_virt = "no"; ro_kind = "NA";
        ro_static = false; ro_inline = false; ro_templ = None; ro_calls = []; ro_spawns = [];
        ro_du = []; ro_pos = null_extent; ro_defined = false })
    ~id:(fun r -> r.ro_id) ~name:(fun r -> r.ro_name)
    ~items:(fun t -> t.routines) ~set_items:(fun t l -> t.routines <- l)
    [ attr ~at:2 "rloc" loc (fun r -> r.ro_loc) (fun r v -> r.ro_loc <- v);
      custom ~at:5 "rclass rnspace" parent_split
        (fun r -> r.ro_parent) (fun r v -> r.ro_parent <- v);
      attr ~at:7 "racs" str (fun r -> r.ro_acs) (fun r v -> r.ro_acs <- v);
      attr ~always:true ~at:8 "rsig" typeref (fun r -> r.ro_sig) (fun r v -> r.ro_sig <- v);
      attr ~always:true ~at:10 "rlink" str (fun r -> r.ro_link) (fun r v -> r.ro_link <- v);
      attr ~always:true ~at:11 "rstore" str (fun r -> r.ro_store) (fun r v -> r.ro_store <- v);
      attr ~always:true ~at:12 "rvirt" str (fun r -> r.ro_virt) (fun r v -> r.ro_virt <- v);
      attr ~at:13 "rkind" str (fun r -> r.ro_kind) (fun r v -> r.ro_kind <- v);
      custom ~at:14 "rstatic" (flag 1) (fun r -> r.ro_static) (fun r v -> r.ro_static <- v);
      custom ~at:14 "rinline" (flag 2) (fun r -> r.ro_inline) (fun r v -> r.ro_inline <- v);
      attr ~at:15 "rtempl" (opt (iref "te")) (fun r -> r.ro_templ) (fun r v -> r.ro_templ <- v);
      custom ~at:16 "rcall" (list call) (fun r -> r.ro_calls) (fun r v -> r.ro_calls <- v);
      custom ~since:2 ~at:30 "rspawn" (list spawn)
        (fun r -> r.ro_spawns) (fun r v -> r.ro_spawns <- v);
      custom ~since:2 ~at:32 "rdu rdudef rduuse" du (fun r -> r.ro_du) (fun r v -> r.ro_du <- v);
      custom ~at:14 "rdef" (flag 4) (fun r -> r.ro_defined) (fun r v -> r.ro_defined <- v);
      attr ~at:18 "rpos" extent (fun r -> r.ro_pos) (fun r v -> r.ro_pos <- v) ]

let cl =
  kind "cl" ~tag:7
    ~make:(fun id name ->
      { cl_id = id; cl_name = name; cl_loc = null_loc; cl_kind = "class"; cl_parent = Pnone;
        cl_acs = "NA"; cl_templ = None; cl_stempl = None; cl_bases = []; cl_friends = [];
        cl_funcs = []; cl_members = []; cl_pos = null_extent })
    ~id:(fun c -> c.cl_id) ~name:(fun c -> c.cl_name)
    ~items:(fun t -> t.classes) ~set_items:(fun t l -> t.classes <- l)
    [ attr ~at:2 "cloc" loc (fun c -> c.cl_loc) (fun c v -> c.cl_loc <- v);
      attr ~always:true ~at:5 "ckind" str (fun c -> c.cl_kind) (fun c v -> c.cl_kind <- v);
      attr ~at:6 "cparent" parent (fun c -> c.cl_parent) (fun c v -> c.cl_parent <- v);
      attr ~at:8 "cacs" str (fun c -> c.cl_acs) (fun c v -> c.cl_acs <- v);
      attr ~at:9 "ctempl" (opt (iref "te")) (fun c -> c.cl_templ) (fun c v -> c.cl_templ <- v);
      attr ~at:10 "cstempl" (opt (iref "te")) (fun c -> c.cl_stempl) (fun c v -> c.cl_stempl <- v);
      custom ~at:11 "cbase" (list base) (fun c -> c.cl_bases) (fun c v -> c.cl_bases <- v);
      custom ~at:13 "cfriend" (list friend) (fun c -> c.cl_friends) (fun c v -> c.cl_friends <- v);
      custom ~at:15 "cfunc" (list func) (fun c -> c.cl_funcs) (fun c v -> c.cl_funcs <- v);
      custom ~at:17 "cmem cmloc cmacs cmkind cmtype cmstatic cmmutable" members
        (fun c -> c.cl_members) (fun c v -> c.cl_members <- v);
      attr ~at:19 "cpos" extent (fun c -> c.cl_pos) (fun c v -> c.cl_pos <- v) ]

let ty =
  kind "ty" ~tag:8
    ~make:(fun id name ->
      { ty_id = id; ty_name = name; ty_loc = null_loc; ty_parent = Pnone; ty_acs = "NA";
        ty_info = Yerror; ty_names = [] })
    ~id:(fun y -> y.ty_id) ~name:(fun y -> y.ty_name)
    ~items:(fun t -> t.types) ~set_items:(fun t l -> t.types <- l)
    [ attr ~at:2 "yloc" loc (fun y -> y.ty_loc) (fun y v -> y.ty_loc <- v);
      attr ~at:5 "yparent" parent (fun y -> y.ty_parent) (fun y v -> y.ty_parent <- v);
      attr ~at:7 "yacs" str (fun y -> y.ty_acs) (fun y v -> y.ty_acs <- v);
      custom ~always:true ~at:8
        "ykind yikind yptr yref ytref yqual yelem ysize yrett yargt yellip yexcep ycon" ty_info
        (fun y -> y.ty_info) (fun y v -> y.ty_info <- v);
      custom ~at:10 "yname" (list str) (fun y -> y.ty_names) (fun y v -> y.ty_names <- v) ]

let ma =
  kind "ma" ~tag:9
    ~make:(fun id name ->
      { ma_id = id; ma_name = name; ma_kind = "def"; ma_text = ""; ma_loc = null_loc })
    ~id:(fun m -> m.ma_id) ~name:(fun m -> m.ma_name)
    ~items:(fun t -> t.pdb_macros) ~set_items:(fun t l -> t.pdb_macros <- l)
    [ attr ~always:true ~at:2 "makind" str (fun m -> m.ma_kind) (fun m v -> m.ma_kind <- v);
      attr ~at:3 "matext" text (fun m -> m.ma_text) (fun m v -> m.ma_text <- v);
      attr ~at:4 "maloc" loc (fun m -> m.ma_loc) (fun m v -> m.ma_loc <- v) ]

(** Every kind, in ASCII item order, which is also PDB-B section order. *)
let kinds = [| K so; K na; K te; K ro; K cl; K ty; K ma |]
