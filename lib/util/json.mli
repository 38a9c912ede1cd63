(** Minimal dependency-free JSON: enough to dump the stats registry, emit
    Chrome [trace_event] files and round-trip them in the test suite. Not a
    general-purpose implementation — no streaming, surrogate pairs decode to
    the BMP only. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize; [indent = 0] gives a compact single line (default 2).
    NaN and infinities serialize as [null] (JSON has no encoding for them). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing key or non-object. *)

val path : string list -> t -> t option
(** Nested field lookup, e.g. [path ["cpu"; "cycles"]]. *)

val to_int : t -> int option
(** Also accepts integral floats. *)

val to_float : t -> float option
(** Also accepts ints. *)

val to_list : t -> t list option
val to_assoc : t -> (string * t) list option
val to_string_opt : t -> string option

val read_file : string -> (t, string) result
(** Parse the file at [path]; [Error] is one line naming the path. *)

val write_file : string -> t -> unit
(** Replace [path] atomically with the 2-space-indented document and a
    newline: write [path ^ ".tmp"], then rename it over [path], so a
    concurrent reader sees the old or the new document, never a torn one.
    Writers to one path must serialize among themselves. Raises
    [Sys_error]. *)
