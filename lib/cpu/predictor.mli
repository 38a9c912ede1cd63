(** Branch direction predictors with an assumed-perfect BTB, as used by
    the OoO timing model.

    The loop branches MESA targets are highly biased, so the default
    bimodal (2-bit saturating counter) table captures the relevant
    first-order behaviour: one mispredict per loop exit plus cold-start
    noise. A gshare variant (global history XOR PC) is provided for
    pattern-sensitive studies — it learns alternating directions that blind
    a bimodal table. *)

type kind =
  | Bimodal
  | Gshare of int  (** history length in bits *)

type t

val create : ?entries:int -> ?kind:kind -> unit -> t
(** [entries] must be a power of two (default 1024); [kind] defaults to
    [Bimodal]. The OoO model takes the defaults; both options are exposed
    for tests. *)

val predict_and_update : t -> int -> bool -> bool
(** [predict_and_update t addr actual] returns whether the prediction was
    correct, then trains. *)

val mispredicts : t -> int
