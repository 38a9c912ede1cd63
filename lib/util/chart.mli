(** Horizontal ASCII bar charts, for rendering the paper's figures as
    pictures next to their numeric tables. *)

val bars : title:string -> (string * float) list -> string
(** [bars ~title series] renders one bar per (label, value). Values are
    scaled so the largest bar spans 50 characters. Returns a multi-line
    string ending in a newline; the empty series renders just the title. *)

val grouped :
  title:string ->
  series_names:string list ->
  (string * float list) list ->
  string
(** Multi-series variant: each row carries one bar per series, tagged with
    the series' index glyph. Used for figures comparing M-128 vs M-512. *)

val heat : title:string -> rows:int -> cols:int -> (int -> int -> float) -> string
(** [heat ~title ~rows ~cols f] renders an ASCII heatmap, one glyph per
    cell, with [f row col] giving each cell's intensity. Intensities are
    normalized to the maximum (a non-positive maximum renders all-cold);
    the 10-step ramp runs [. : - = + * # % @ X]. The profiler draws per-PE
    utilization and per-NoC-link occupancy with this. A legend line shows
    the ramp and the maximum. *)
