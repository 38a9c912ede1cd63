(** Point-to-point transfer-latency models for the accelerator backends.

    MESA is backend-agnostic as long as the interconnect's point-to-point
    latency can be computed quickly (§3.3); these are the three models the
    repo ships. [Mesh_noc] is the evaluation backend of Figure 9: direct
    single-cycle links to immediate neighbours, and a slice-granular
    half-ring NoC for distant transfers. [Hierarchical_rows] is the worked
    Example 1 of Figure 4 (1 cycle within a row, 3 cycles across rows);
    [Pure_mesh] is Example 2 (Manhattan distance). *)

type kind =
  | Mesh_noc
  | Hierarchical_rows
  | Pure_mesh

val kinds : (string * kind) list
(** The backends by name, as checkpoints, corpus entries and the CLI spell
    them: [mesh_noc], [hier_rows], [pure_mesh]. *)

val kind_to_string : kind -> string
val kind_of_string : string -> (kind, string) result

(** Which fabric a transfer used — the engine charges energy and contention
    differently for the two. *)
type route = Local | Noc

val route : Grid.t -> kind -> Grid.coord -> Grid.coord -> route
(** [Local] when the hop count is small enough for direct PE-PE links;
    [Noc] otherwise. *)

val latency : Grid.t -> kind -> Grid.coord -> Grid.coord -> int
(** Base (contention-free) cycles to move one value. Zero distance costs 1
    (output buffer to input buffer). *)

val noc_slice : Grid.t -> Grid.coord -> int
(** Index of the NoC router slice serving a PE; concurrent NoC transfers
    injected at the same slice serialize. *)

val slices : Grid.t -> int
(** Number of router slices in the grid ([noc_slice] ranges over
    [0 .. slices - 1]) — sizes the engine's contention tables and the
    profiler's per-link counters. *)

val ls_coord : Grid.t -> int -> Grid.coord
(** Virtual coordinate of a load-store entry (column -1 of its row), used
    to compute PE <-> LS-entry distances. *)
