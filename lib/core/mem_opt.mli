(** Memory-access optimizations over the LDFG (§4.2).

    All three analyses key off the rename table's structural facts, exactly
    as the paper describes: the builder renames base-address registers, so
    two memory nodes with the *same renamed base source* provably share a
    base value, making offset comparison sufficient.

    - Store-load forwarding: a load preceded by a store with the same base
      source and offset (and no intervening store that could alias) takes
      its value from the store's broadcast instead of the cache.
    - Vectorization: loads off one base source at different offsets coalesce
      into one wide access — the group leader pays the AMAT, members follow
      in one cycle.
    - Prefetching: a load whose address derives only from induction
      registers and loop-invariant live-ins is issued an iteration ahead,
      hiding everything beyond the L1 hit. *)

type t = {
  forwarding : (int * int) list;   (** (load node, store node) pairs *)
  vector_groups : int list list;   (** leader first, ascending offsets *)
  prefetched : int list;
  induction_regs : Reg.t list;     (** integer registers following r = r + c *)
}

val analyze : Dfg.t -> t
