(** MESA's trace cache (§4.1): a small buffer near the I-cache holding the
    raw instruction words of the code region targeted for acceleration, so
    the LDFG builder can read the body without stealing fetch bandwidth.

    Capacity equals the maximum number of instructions mappable on the
    accelerator — criterion C1 checks loop size against exactly this
    number. *)

type t

val create : capacity:int -> t

val set_region : t -> entry:int -> last:int -> unit
(** Start capturing the address window [\[entry, last\]] (inclusive),
    dropping previous contents. Raises [Invalid_argument] if the window
    exceeds capacity. *)

val complete : t -> bool
(** Whether every slot of the active window has been captured. *)

val fill_from : t -> (int -> int32 option) -> unit
(** Fill the window's missing slots, in address order, through a direct
    I-cache read function: [None] leaves a slot missing, and a captured
    slot is never read again. *)

val words : t -> int32 array
(** Captured words in address order. Raises [Failure] if incomplete. *)
