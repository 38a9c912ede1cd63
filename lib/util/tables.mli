(** Plain-text rendering of experiment tables and figure series.

    The benchmark harness reproduces every table and figure of the paper as
    text: tables are aligned column grids, figures are one row per series
    point. Keeping the renderer here lets the bench, the examples and the CLI
    produce identical output. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** Append a row; the row must have exactly as many cells as there are
    columns. *)

val add_rule : t -> unit
(** Append a horizontal separator (rendered as dashes). *)

val headers : t -> string list
val data_rows : t -> string list list
(** The cell rows in insertion order (rules omitted) — used by the CSV
    exporter. *)

val render : t -> string
(** Render to an aligned multi-line string, including title and header. *)

val print : t -> unit
(** [render] followed by [print_string] and a flush. *)

val fcell : float -> string
(** Format a float for a table cell: 3 significant decimals, fixed point. *)

val fcell1 : float -> string
(** Same with 1 decimal, for large magnitudes (cycle counts, nJ). *)

val xcell : float -> string
(** Format a speedup/ratio as ["1.33x"]. *)

val icell : int -> string
(** Format an int with thousands separators, e.g. ["12_345"]. *)
