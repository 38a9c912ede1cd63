(** Deterministic fault injection for the spatial fabric.

    A {!spec} is a seeded schedule of fault events the engine consults while
    a loop executes on the array. Every random choice (victim PE, stuck-at
    value) comes from one splitmix PRNG seeded by the schedule, so a run is
    reproducible from [--inject SPEC --fault-seed N] alone.

    Fault kinds and their modeled effect:

    - {!Transient_pe}: a one-shot upset in a PE's output latch — the value
      produced by the node on that PE is flipped for one iteration.
    - {!Permanent_pe}: a stuck-at PE — from the fire point on, every firing
      of a node placed there yields the stuck value (branch PEs stick at
      "taken"), until the controller masks the PE out of the {!Grid} and
      remaps.
    - {!Link_down}: a NoC router slice dies, taking the PEs it serves with
      it (modeled as permanent stuck-at over the whole slice).
    - {!Config_upset}: a bit flip in the configuration bitstream. The
      checksummed codec catches it at write time; the controller pays the
      write again.
    - {!Port_degrade}: one cache port lost (timing-only — no corruption, the
      array just serializes harder; never drops below one port).

    Detection is modeled, not value-compared: the engine marks the window
    corrupt at the first applied corruption (an end-of-window output
    checksum would catch exactly this set), and a watchdog bounds windows
    that stop making forward progress. *)

type kind =
  | Transient_pe
  | Permanent_pe
  | Link_down
  | Config_upset
  | Port_degrade

val kind_name : kind -> string

type event = {
  at : int;
      (** global fabric iteration index for PE/link/port events;
          configuration-write ordinal (1-based) for [Config_upset] *)
  kind : kind;
  coord : Grid.coord option;
      (** pin the victim PE (or, for [Link_down], any PE of the victim
          slice); [None] draws one from the occupied PEs *)
}

type spec = { seed : int; events : event list }

val spec : ?seed:int -> event list -> spec
(** A schedule from explicit events, as tests build one without
    {!spec_of_string}'s syntax. Exposed for tests. *)

val spec_of_string : ?seed:int -> string -> (spec, string) result
(** Comma-separated [KIND@AT] or [KIND@AT:ROWxCOL] tokens, where KIND is
    [transient], [permanent], [link], [config] or [ports] — e.g.
    ["transient@100,permanent@300:2x5,config@1"]. *)

val spec_to_string : spec -> string
(** Inverse of {!spec_of_string}; exposed for tests, which round-trip the
    syntax and print failing schedules. *)

(** Mutable injector state threaded through one controller run. *)
type t

val create : grid:Grid.t -> spec -> t

(** {2 Engine-facing} *)

type strike = { s_coord : Grid.coord; s_kind : kind; s_value : int }
(** A transient corruption to apply this iteration at [s_coord]. *)

type step = {
  strikes : strike list;
  fabric_changed : bool;  (** permanent damage appeared this iteration *)
}

val begin_window : t -> used:Grid.coord list -> unit
(** Start an execution window: remember the occupied PEs (victim pool for
    drawn targets) and reset the window's corruption note. *)

val tick : t -> step
(** Advance the global iteration counter and fire any due events. *)

val note_corruption : t -> kind -> unit
(** The engine applied a corruption of [kind] in the current window. *)

val window_corrupted : t -> bool
val window_kinds : t -> kind list

val dead : t -> (Grid.coord * kind * int) list
(** Permanently dead PEs with the kind that killed them and their stuck-at
    value. *)

val dead_coords : t -> Grid.coord list
val ports_lost : t -> int

(** {2 Controller-facing} *)

val config_write : t -> bool
(** Record one configuration write; [true] when a scheduled upset hits it
    (the write must be paid again). Call until it returns [false]. *)

val injected : t -> int
(** Total events fired so far (latent strikes included). *)
