(** Slot-based contention model for shared, pipelined resources (cache
    ports, NoC router slices).

    A resource accepts [capacity] new operations per cycle. Claims arrive in
    arbitrary time order (the engine walks iterations whose absolute start
    times interleave), so the model keeps per-cycle occupancy counts rather
    than a single next-free clock: a claim takes the first cycle at or after
    its ready time with spare capacity, and a late claim never blocks an
    earlier idle slot. *)

type t

val create : capacity:int -> t
(** [capacity] operations may start per cycle; must be positive. *)

val claim : t -> float -> float
(** [claim t ready] books a slot and returns the issue time (>= [ready]).
    The queuing delay is [claim t ready -. ready]; the sub-slot taken is
    left in {!last_slot}. It forgets no booking, so claims may arrive in
    any order. *)

val claim_cycle : t -> floor:int -> int -> int
(** [claim_cycle t ~floor start] is {!claim} at the integer cycle [start]:
    it returns the issue cycle. Ints cross the call unboxed, so a claim in
    a hot loop allocates nothing.

    [floor] promises that no later claim on [t] starts below it, so it
    must not decrease from one call to the next. When the window of booked
    cycles would outgrow the ring, cycles below [floor] are forgotten
    instead of the ring doubling: they no longer count for {!fold_from}.
    Raises [Invalid_argument] when [start < floor], or when [start] falls
    below a floor an earlier call already retired, or rather than loop
    when a skip pointer of a full cycle does not advance (a corrupt
    table). *)

val claim_slot : t -> float -> float * int
(** Like {!claim}, additionally returning which of the [capacity] sub-slots
    of the issue cycle the claim took (0-based occupancy order). Kept for
    the frozen engine oracle ([test/oracle]), which uses it as a
    deterministic port index for timeline lanes; like {!claim}, it never
    retires a cycle. *)

val fold_from : t -> from:int -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_from t ~from f acc] folds [f cycle claims] over every booked
    cycle [>= from], in ascending cycle order. It reads each cycle of the
    live window from [from] up to the highest booked one, so it costs
    O([hi - from]) reads where [hi] is the highest booked cycle, whatever
    the ring's size. Cycles forgotten below a {!claim_cycle} [floor] are
    not folded; [from] at or above every floor passed sees them all. *)

val last_slot : t -> int
(** Sub-slot taken by the most recent claim (0 before any claim). *)

val claimed : t -> int
(** Total operations booked. *)

val busy_cycles : t -> int
(** Number of distinct cycles with at least one booked operation — the
    numerator of the resource's utilization. *)

val reset : ?capacity:int -> t -> unit
(** Forget every booked slot (and optionally change the capacity), restoring
    the table to its freshly-created state. It zeroes only the booked
    window, so a warm table costs what its last use booked. {!acquire}
    revives parked tables through this and always passes [capacity];
    keeping the old one is exposed for tests. *)

(** {2 Recycling}

    Tables come from a per-domain {!Pool.free_list}, so a warm run
    allocates no ring. *)

type scratch
(** The tables one run (an engine execution or a cost-model estimate)
    acquired. *)

val scratch : unit -> scratch
(** A run that has acquired nothing yet. *)

val acquire : scratch -> int -> t
(** [acquire s capacity] revives a parked table with {!reset} (or creates
    one when the domain has none parked) and records it in [s]. *)

val park : scratch -> unit
(** Return every table [s] acquired to the domain's free list. The run
    must not touch them afterwards. *)
