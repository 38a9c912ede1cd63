(** Set-associative cache timing model (tags only; data lives in
    {!Main_memory}).

    Write-back, write-allocate, LRU replacement. The model answers one
    question per access — hit or miss (and whether a dirty line was evicted) —
    and keeps the counters the evaluation needs (hit rate, AMAT inputs,
    writeback traffic).

    Storage is set-lazy: each set's lines are one block of [3 * ways] ints,
    laid out [[tags | meta | lru]], allocated on the set's first access.
    Until then the set shares one empty block and reads as all-invalid.
    The sets sit in chunks of up to 256, each allocated on the first access
    to one of its sets, so {!create} allocates only the chunk table (64
    slots for the 8 MiB L2) and nothing on the major heap. *)

type config = {
  size_bytes : int;   (** total capacity *)
  ways : int;         (** associativity *)
  line_bytes : int;   (** line size, a power of two *)
  hit_latency : int;  (** cycles for a hit in this level *)
}

val config :
  size_bytes:int -> ways:int -> line_bytes:int -> hit_latency:int -> config
(** Validating constructor. Raises [Invalid_argument] on non-power-of-two
    geometry or a capacity not divisible by [ways * line_bytes]. *)

(** Constant constructors, so an access allocates nothing. *)
type outcome =
  | Hit
  | Miss_clean  (** missed; the evicted line, if any, was clean *)
  | Miss_dirty  (** missed and evicted a dirty line *)

type t

val create : config -> t
val geometry : t -> config

val access : t -> int -> write:bool -> outcome
(** Look up the line containing the byte address; allocate on miss; mark
    dirty on writes. *)

val probe : t -> int -> bool
(** Non-destructive lookup: would this address hit? Does not update LRU or
    counters. Exposed for tests, like {!invalidate_all} and
    {!reset_stats}: the differential test against a flat cache model
    applies them. *)

val invalidate_all : t -> unit
(** Drop every line (e.g. at region boundaries in tests) by dropping every
    chunk of sets; statistics and the LRU clock are kept. *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int

val reset_stats : t -> unit
(** Zero the hit, miss and writeback counters. *)

val reset : t -> unit
(** Restore the cache to its freshly-created state: every line invalid,
    statistics and the internal LRU clock zeroed. A reset cache is
    indistinguishable from a {!create}d one. *)

val register_stats : t -> Stats.group -> unit
(** Expose hits/misses/writebacks/accesses/hit_rate as snapshot-time probes
    under [grp]. *)
