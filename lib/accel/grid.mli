(** Geometry and capabilities of the spatial accelerator's PE array (§5.2).

    The evaluation's three configurations are [m64] (16x4), [m128] (16x8)
    and [m512] (64x8). Half of the PEs carry single-precision FP logic,
    arranged as interleaved 2x2 FP slices (Table 1's "FP Slice (2x2)").
    Load/store entries are a separate bank along the array's left edge
    (Figure 5), sized at half the PE count. *)

type coord = { row : int; col : int }

val coord : int -> int -> coord
val manhattan : coord -> coord -> int

type t = {
  rows : int;
  cols : int;
  ls_entries : int;     (** load-store entry count *)
  mem_ports : int;      (** cache ports shared by all LS entries *)
  name : string;
  masked : coord list;  (** PEs masked out of the fabric (fault recovery) *)
}

val make : ?mem_ports:int -> ?name:string -> rows:int -> cols:int -> unit -> t
(** Custom geometry; [ls_entries] is set to half the PE count (at least
    4). *)

val slice_width : int
(** PEs per NoC router slice (Figure 9: 4). *)

val m64 : t
val m128 : t
val m512 : t

val of_pe_count : int -> t
(** Geometry for a given PE budget, 8 columns wide when possible (the PE
    scaling sweep of Figure 15 uses this). *)

val pe_count : t -> int
val in_bounds : t -> coord -> bool

val mask : t -> coord list -> t
(** Mask PEs out of the fabric: {!supports} rejects them, so placement and
    validation route around the damage. Out-of-bounds and already-masked
    coordinates are ignored; masking nothing returns [t] unchanged. *)

val is_masked : t -> coord -> bool

val healthy_pe_count : t -> int
(** [pe_count] minus the masked PEs — the capacity the tiler may assume. *)

val supports : t -> coord -> Isa.op_class -> bool
(** The F_op capability test of §3.3: integer classes everywhere, FP
    classes only on FP PEs; memory, jump and system classes never map to a
    PE. *)

val ls_row : t -> int -> int
(** Row at which load-store entry [e] sits (entries wrap along the left
    edge). *)

val iter_coords : t -> (coord -> unit) -> unit
