(** The instruction rename table (§3.2): architectural registers mapped to
    the last instruction that wrote them.

    MESA generalizes out-of-order renaming — instead of physical registers,
    destinations rename to instruction (node) identities, because on a
    spatial fabric every PE produces its own output. A register nobody in the
    region has written yet maps to the register file at loop entry
    ([Reg_in]). *)

type t

val create : unit -> t
(** All registers initially map to their live-in values. *)

val lookup : t -> Dfg.file -> Reg.t -> Dfg.src
val write : t -> Dfg.file -> Reg.t -> int -> unit
(** [write t file r node] renames [r] to the output of [node]. Writes to
    integer [x0] are ignored. *)

val live_ins : t -> Dfg.file -> Reg.t list
(** Registers that were looked up while still unwritten — the region's
    live-in set. *)

val live_outs : t -> Dfg.file -> (Reg.t * Dfg.src) list
(** Registers currently renamed to a node — the region's live-out set. *)
