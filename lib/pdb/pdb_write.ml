(** PDB serialization: the compact ASCII format of Figure 3.

    Each item is a block: a first line [<prefix>#<id> <name>] followed by one
    attribute per line, and a blank line between items.  Multi-line text
    (template and macro bodies) is escaped.  Which attributes a kind has,
    their order and their defaults come from {!Pdb_schema}; this module
    walks that table and appends straight to the output buffer. *)

open Pdb
module S = Pdb_schema

let escape_text = S.escape_text
let unescape_text = S.unescape_text

let write_item (b : Buffer.t) (k : 'i S.kind) (x : 'i) =
  let name = k.name x in
  Buffer.add_string b k.prefix; Buffer.add_char b '#'; S.add_int b (k.id x);
  Buffer.add_char b ' '; Buffer.add_string b name; Buffer.add_char b '\n';
  for i = 0 to Array.length k.attrs - 1 do
    match Array.unsafe_get k.attrs i with
    | S.A a ->
        let v = a.get x in
        if not (a.omit && v = a.default) then a.vt.write b name v
  done;
  Buffer.add_char b '\n'

(* A spare output buffer per domain, so a large PDB costs the result
   string alone, not also the doubled buffers a fresh one leaves in the
   major heap; a second thread on the domain finds none and makes its own. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make None)

let to_string (t : t) : string =
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.write" @@ fun () ->
  let slot = Domain.DLS.get spare in
  let b =
    match Atomic.exchange slot None with Some b -> Buffer.clear b; b | None -> Buffer.create 65536
  in
  Buffer.add_string b "<PDB ";
  Buffer.add_string b t.version;
  if t.incomplete then (Buffer.add_string b " incomplete "; S.add_int b t.diag_count);
  Buffer.add_string b ">\n\n";
  Array.iter (fun (S.K k) -> List.iter (write_item b k) (k.items t)) S.kinds;
  let s = Buffer.contents b in
  Atomic.set slot (Some b);
  s

let to_file (t : t) path : unit =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string t))
