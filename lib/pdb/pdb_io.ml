(** Format-agnostic PDB loading: sniff ASCII vs PDB-B and dispatch.

    The ASCII interchange format opens with ["<PDB "] and PDB-B with the
    ["PDBB"] magic, so the first four bytes decide.  Everything above the
    serialization layer (DUCTAPE, the CLI tools, the build cache) goes
    through here and handles both formats transparently.

    Errors stay format-specific — {!Pdb_parse.Parse_error} for ASCII,
    {!Pdb_bin.Format_error} for binary — so diagnostics keep their
    precise shape; callers that want one net should catch both. *)

type format = Ascii | Binary

let format_name = function Ascii -> "ascii" | Binary -> "binary"

let sniff_string (s : string) : format =
  if Pdb_bin.is_binary_string s then Binary else Ascii

let sniff_file (path : string) : format =
  if Pdb_bin.is_binary_file path then Binary else Ascii

let of_string (s : string) : Pdb.t =
  match sniff_string s with
  | Binary -> Pdb_bin.of_string s
  | Ascii -> Pdb_parse.of_string s

let of_file (path : string) : Pdb.t =
  match sniff_file path with
  | Binary -> Pdb_bin.of_file path
  | Ascii -> Pdb_parse.of_file path

(** Serialize in the requested container format. *)
let to_string (fmt : format) (t : Pdb.t) : string =
  match fmt with
  | Ascii -> Pdb_write.to_string t
  | Binary -> Pdb_bin.to_string t
