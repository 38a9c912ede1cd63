(** Minimal dependency-free JSON: enough to dump the stats registry, emit
    Chrome [trace_event] files, and read back the repo's documents
    (profiles, DSE checkpoints, telemetry frames, fuzz corpus entries,
    mesad's wire lines) through one set of readers. Not a general-purpose
    implementation — no streaming, surrogate pairs decode to the BMP
    only. *)

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

val to_list : t -> t list option
val to_string_opt : t -> string option

(** {1 Readers}

    The one way a document field is read and a bad one reported. A reader
    raises a private failure on a value of the wrong shape; {!decode} is
    the boundary that turns it into [Error]. Unknown fields are never
    looked at, so newer writers stay readable. Messages read
    [missing field "id"], [field "id" is not an integer], and for a
    list or object element [field "ports" is not an integer at [2]]. *)

type 'a reader = t -> 'a

val int : int reader
(** An [Int], or an integral [Float]. *)

val float : float reader
(** A [Float], or an [Int]. *)

val string : string reader
val bool : bool reader
val list : 'a reader -> 'a list reader

val assoc : 'a reader -> (string * 'a) list reader
(** An object's members in document order, each read by the reader. *)

val field : string -> 'a reader -> 'a reader
(** A required field of an object. *)

val field_opt : string -> 'a reader -> 'a option reader
(** [None] when the field is absent or [null]. *)

val field_or : default:'a -> string -> 'a reader -> 'a reader
(** [default] when the field is absent; present but mistyped (including
    [null]) is an error. *)

val lift : (string -> ('a, string) result) -> 'a reader
(** A string parsed by an [*_of_string] enum; its [Error] message is the
    decode error. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Fail the enclosing {!decode} with this message, for checks beyond a
    field's type (an unknown tag, a non-positive count). *)

val decode : ?what:string -> 'a reader -> t -> ('a, string) result
(** Run a reader; a failure becomes [Error], prefixed ["what: "] when
    [what] is given. *)

val read_file : string -> (t, string) result
(** Parse the file at [path]; [Error] is one line naming the path. *)

val write_file : string -> t -> unit
(** Replace [path] atomically with the 2-space-indented document and a
    newline: write [path ^ ".tmp"], then rename it over [path], so a
    concurrent reader sees the old or the new document, never a torn one.
    Writers to one path must serialize among themselves. Raises
    [Sys_error]. *)
