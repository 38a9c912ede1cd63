(** One point of the joint microarchitecture space MESA generates a
    spatial architecture from (§3.3): PE grid, cache ports, interconnect
    backend and L1/L2 capacities. The design-space explorer sweeps these
    points ([Dse.point] adds the kernel) and the differential fuzzer
    draws them ([Fuzz.fabric] adds the profiling switch). *)

type t = {
  rows : int;
  cols : int;
  ports : int;               (** cache ports shared by the LS entries *)
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
}

val grid : t -> Grid.t
(** The PE grid at this geometry and port count, under {!Grid.make}'s
    default ["M-<PEs>"] name. *)

val hier_config : t -> Hierarchy.config
(** {!Hierarchy.default_config} with both cache levels resized to this
    point's capacities (associativity, line size and latency kept). *)

val to_fields : t -> (string * Json.t) list
(** The JSON codec, flat: [rows], [cols], [ports], [kind], [l1_kb],
    [l2_kb] in that order, for callers to splice into their own object. *)

val of_fields : t Json.reader
(** Inverse of {!to_fields}: reads the six keys of an object. *)
