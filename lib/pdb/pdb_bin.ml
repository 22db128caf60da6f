(** PDB-B: the binary, mmap-friendly PDB container (format version 2).

    The ASCII PDB of Figure 3 stays the golden interchange format — this
    module is the speed layer behind it: the same {!Pdb.t} model, laid
    out so a reader decodes fixed-width little-endian records straight
    out of a [Bigarray]-mapped file, with no tokenizing and no number
    parsing.  A 24-byte header ("PDBB", format version, flags, diag
    count, version string id, section count) and a section table lead
    to a deduplicated string pool, a flat array of u32 "aux" words for
    variable-length payloads, and one record section per item kind.
    Which words a record holds is the {!Pdb_schema} table's business;
    this module is the engine over it.  DESIGN.md §6 is the normative
    spec.

    Every offset, string id and aux reference is bounds-checked during
    decode; malformed or truncated input raises {!Format_error} with a
    diagnostic — never an out-of-bounds access or a crash. *)

module S = Pdb_schema

let magic = "PDBB"

(* Version 2 widened the ro record by the spawn and define-use
   references (the [~since:2] attributes).  A version-1 file still
   decodes: its narrower ro records give those attributes their
   defaults, which is exactly what a pre-semantic producer meant. *)
let format_version = 2
let min_format_version = 1
let header_bytes = 24
let sec_strings = 1
let sec_aux = 2

exception Format_error = S.Format_error

let err = S.err

(* ---- Writer ---- *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_words b (k : S.sink) = Buffer.add_subbytes b k.b 0 (4 * k.n)

(* One record: aux payloads first (they pool their strings before the
   record's own), then the id, the name and the record-held values. *)
let encode_item (e : S.enc) (rw : S.sink) (out : Buffer.t) (k : 'i S.kind) (x : 'i) =
  Bytes.fill rw.b 0 (Bytes.length rw.b) '\000';
  let put indirect =
    for i = 0 to Array.length k.attrs - 1 do
      match k.attrs.(i) with
      | S.A a when a.vt.indirect = indirect -> rw.n <- a.at; a.vt.enc e rw (a.get x)
      | S.A _ -> ()
    done
  in
  put true;
  rw.n <- 0;
  S.sword rw (k.id x);
  S.str_bin.put e rw (k.name x);
  put false;
  rw.n <- Bytes.length rw.b / 4;
  add_words out rw

let to_string (t : Pdb.t) : string =
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.bin_write" @@ fun () ->
  let e = S.encoder () and hdr = S.sink 5 in
  S.uword hdr format_version;
  S.bword hdr t.incomplete;
  S.sword hdr t.diag_count;
  S.str_bin.put e hdr t.version;
  let items =
    Array.map
      (fun (S.K k) ->
        let xs = k.items t and words = S.record_words k format_version in
        let b = Buffer.create (4 + (4 * words * List.length xs)) in
        add_u32 b (List.length xs);
        List.iter (encode_item e (S.sink words) b k) xs;
        (k.tag, b))
      S.kinds
  in
  (* strings: count, count+1 cumulative end offsets, blob, padding *)
  let pool = e.pool and b_str = Buffer.create 65536 in
  if pool.bytes > 0xFFFF_FFFF then err "string pool of %d bytes is too large" pool.bytes;
  let strs = List.rev pool.rev in
  add_u32 b_str (Hashtbl.length pool.tbl);
  add_u32 b_str 0;
  let cum = ref 0 in
  List.iter (fun s -> cum := !cum + String.length s; add_u32 b_str !cum) strs;
  List.iter (Buffer.add_string b_str) strs;
  while Buffer.length b_str land 3 <> 0 do Buffer.add_char b_str '\000' done;
  let b_aux = Buffer.create (4 + (4 * e.aux.n)) in
  add_u32 b_aux e.aux.n;
  add_words b_aux e.aux;
  let sections = (sec_strings, b_str) :: (sec_aux, b_aux) :: Array.to_list items in
  S.uword hdr (List.length sections);
  let out = Buffer.create (Buffer.length b_str + Buffer.length b_aux + 1024) in
  Buffer.add_string out magic;
  add_words out hdr;
  let pos = ref (header_bytes + (12 * List.length sections)) in
  List.iter
    (fun (tag, sb) ->
      add_u32 out tag; add_u32 out !pos; add_u32 out (Buffer.length sb);
      pos := !pos + Buffer.length sb)
    sections;
  List.iter (fun (_, sb) -> Buffer.add_buffer out sb) sections;
  Buffer.contents out

let to_file (t : Pdb.t) (path : string) : unit =
  let s = to_string t in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---- Reader ---- *)

type layout = {
  ver : int;
  flags : int;
  diag_count : int;
  version_sid : int;
  str_count : int;
  cum_base : int;   (* byte offset of the strings' cumulative end offsets *)
  blob_base : int;  (* byte offset of the string blob *)
  aux_base : int;   (* byte offset of the first aux word *)
  aux_count : int;  (* words in the aux section *)
  sects : (int * int) array;  (* per kind: byte offset of the first record, count *)
}

(* Header, section table, string-table monotonicity and every section's
   bounds: O(sections + string count) u32 reads, no allocation
   proportional to content size. *)
let layout (b : S.buf) : layout =
  let total = Bigarray.Array1.dim b in
  if total < header_bytes then err "truncated header: %d bytes of %d" total header_bytes;
  if String.init 4 (Bigarray.Array1.get b) <> magic then err "bad magic: not a PDB-B file";
  let ver = S.u32 b 4 in
  if ver < min_format_version || ver > format_version then
    err "unsupported PDB-B format version %d (reader supports %d..%d)" ver min_format_version
      format_version;
  let nsec = S.u32 b 20 in
  if nsec > 64 || header_bytes + (12 * nsec) > total then
    err "section table of %d entries does not fit in %d bytes" nsec total;
  let sections = Hashtbl.create 16 in
  for i = 0 to nsec - 1 do
    let base = header_bytes + (12 * i) in
    let tag = S.u32 b base and off = S.u32 b (base + 4) and len = S.u32 b (base + 8) in
    if off + len > total then err "section %d (tag %d) exceeds file size %d" i tag total;
    if Hashtbl.mem sections tag then err "duplicate section tag %d" tag;
    Hashtbl.add sections tag (off, len)
  done;
  (* a section holding a count word, then [count * unit + extra] bytes:
     the first entry's offset, the count, and the section's end *)
  let counted tag what ~unit ~extra =
    let off, len =
      try Hashtbl.find sections tag with Not_found -> err "missing %s section (tag %d)" what tag
    in
    if len < 4 then err "%s section: %d bytes is too short" what len;
    let count = S.u32 b off in
    if 4 + (unit * count) + extra > len then
      err "%s section: %d entries do not fit in %d bytes" what count len;
    (off + 4, count, off + len)
  in
  let cum_base, str_count, str_end = counted sec_strings "strings" ~unit:4 ~extra:4 in
  let blob_base = cum_base + (4 * (str_count + 1)) in
  let last = ref 0 in
  for i = 0 to str_count do
    let v = S.u32 b (cum_base + (4 * i)) in
    if v < !last then err "strings section: offsets not monotonic at %d" i;
    last := v
  done;
  if blob_base + !last > str_end then err "strings section: blob needs %d bytes" !last;
  let aux_base, aux_count, _ = counted sec_aux "aux" ~unit:4 ~extra:0 in
  let sects =
    Array.map
      (fun (S.K k) ->
        let off, count, _ = counted k.tag k.prefix ~unit:(4 * S.record_words k ver) ~extra:0 in
        (off, count))
      S.kinds
  in
  { ver; flags = S.u32 b 8; diag_count = S.i32 b 12; version_sid = S.u32 b 16; str_count;
    cum_base; blob_base; aux_base; aux_count; sects }

(* One record: the blank item, then each attribute the file's version
   holds, read from its slot. *)
let decode_item (d : S.dec) ver (k : 'i S.kind) off : 'i =
  let x = k.make (S.i32 d.buf off) (S.str_bin.get d (off + 4)) in
  for i = 0 to Array.length k.attrs - 1 do
    match k.attrs.(i) with
    | S.A a when a.since <= ver -> a.set x (a.vt.dec d (off + (4 * a.at)))
    | S.A _ -> ()
  done;
  x

let decode_layout (b : S.buf) (l : layout) : Pdb.t =
  let cum i = S.u32 b (l.cum_base + (4 * i)) in
  let d =
    { S.buf = b; aux_base = l.aux_base; aux_count = l.aux_count; pos = 0; stop = 0;
      strings =
        Array.init l.str_count (fun i ->
            let off = l.blob_base + cum i and len = cum (i + 1) - cum i in
            let s = Bytes.create len in
            for j = 0 to len - 1 do
              Bytes.unsafe_set s j (Bigarray.Array1.unsafe_get b (off + j))
            done;
            let s = Bytes.unsafe_to_string s in
            if len <= Pdt_util.Intern.max_len then Pdt_util.Intern.intern s else s) }
  in
  let t = Pdb.create () in
  t.version <- S.string_at d l.version_sid;
  t.incomplete <- l.flags land 1 <> 0;
  t.diag_count <- l.diag_count;
  Array.iteri
    (fun ki (S.K k) ->
      let base, count = l.sects.(ki) and w = 4 * S.record_words k l.ver in
      k.set_items t
        (List.init count (fun i -> decode_item d l.ver k (base + (w * i)))))
    S.kinds;
  t

let of_bigarray (b : S.buf) : Pdb.t =
  Pdt_util.Fault.check "pdb.bin_read";
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.bin_read" @@ fun () -> decode_layout b (layout b)

let of_string (s : string) : Pdb.t =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  for i = 0 to String.length s - 1 do Bigarray.Array1.unsafe_set b i (String.unsafe_get s i) done;
  of_bigarray b

(* The zero-copy path: map the file and decode records straight out of
   the mapping.  Decoded PDBs copy what they keep (strings), so the map
   is collectable as soon as decode returns. *)
let map_path (path : string) : S.buf =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_bytes then
        err "%s: truncated header: %d bytes, need at least %d" path size header_bytes;
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))

let of_file (path : string) : Pdb.t = of_bigarray (map_path path)

(* Format sniffing: a PDB-B file opens with "PDBB", the ASCII format
   with "<PDB ".  Used by {!Pdb_io} and the CLI tools. *)
let is_binary_string (s : string) : bool = String.length s >= 4 && String.sub s 0 4 = magic

let is_binary_file (path : string) : bool =
  match In_channel.with_open_bin path (fun ic -> In_channel.really_input_string ic 4) with
  | Some hd -> hd = magic
  | None | (exception Sys_error _) -> false

(** {!of_file} in two steps, so a caller can time mapping and validation
    apart from the decode. *)
module View = struct
  type t = { buf : S.buf; lay : layout }

  (** Map the file and validate its layout. *)
  let of_file (path : string) : t =
    let buf = map_path path in
    { buf; lay = layout buf }

  (** Decode the whole PDB. *)
  let to_pdb (v : t) : Pdb.t = decode_layout v.buf v.lay
end
