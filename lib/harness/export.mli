(** Machine-readable export of experiment outcomes, for plotting outside
    the repo. *)

val outcome_to_csv : Experiments.outcome -> string
(** RFC-4180-style CSV: the table's header and data rows, a blank line,
    then a two-column [metric,value] block of the summary. Cells containing
    commas, quotes or newlines are quoted. *)

val write_file : path:string -> string -> unit
(** Write a string to a file (used by `bench/main.exe --csv DIR`). *)
