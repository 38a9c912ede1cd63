(** A spatial placement of a DFG: the physical-side content of the SDFG
    (§3.2-3.3).

    Every node is assigned a location — compute and branch nodes to PEs,
    memory nodes to load-store entries. The placement determines every
    pairwise transfer latency via the backend's interconnect model; those
    numbers seed the performance model's edge weights and are what
    Algorithm 1 minimizes. *)

type loc =
  | Pe of Grid.coord
  | Ls of int  (** load-store entry index *)

type t = {
  grid : Grid.t;
  kind : Interconnect.kind;
  assign : loc array;  (** node index -> location *)
}

val make : Grid.t -> Interconnect.kind -> loc array -> t

val loc_of : t -> int -> loc
val coord_of : t -> int -> Grid.coord
(** Physical coordinate of a node's location (LS entries project to the
    array's left edge). *)

val validate : Dfg.t -> t -> (unit, string) result
(** No two nodes on the same PE / LS entry; compute nodes on PEs that
    support their op class; memory nodes on LS entries; every node placed. *)

val transfer : t -> int -> int -> int
(** Base transfer latency between two placed nodes. *)

val seed_transfers : t -> Perf_model.t -> unit
(** Install every DFG edge's {!transfer} as the performance model's
    transfer estimate — the edge weights Algorithm 1 placed against. *)

val route : t -> int -> int -> Interconnect.route

val pp : Format.formatter -> t -> unit
(** ASCII map of the grid with node indices. *)
