(** Task T2: the data-driven spatial mapping algorithm (Algorithm 1).

    Instructions are visited in LDFG (program) order. For each one, a
    candidate matrix — a fixed window positioned at the critical (highest
    expected latency) placed predecessor — is filtered by the free matrix
    and the operation capability mask, each surviving position is scored
    with the expected completion latency

      [expLatency = L_op + max(A_s1, A_s2)],

    and the instruction lands on the argmin. Ties prefer positions with
    more free neighbours (keeping room for future consumers). Memory
    instructions are assigned to load-store entries by the same cost rule.
    When the window filters to nothing, the mapper falls back to a global
    scan, modelling the secondary-interconnect fallback of §3.3.

    The mapper is data-driven: predecessor latencies [L_s] come from the
    {!Perf_model}, so a remap after measurement naturally steers hot
    producers and consumers together. As a side effect the mapper installs
    its analytic transfer estimates into the model for every edge. *)

val window_rows : int
val window_cols : int
(** The paper's fixed 4x8 candidate matrix. *)

val map :
  grid:Grid.t ->
  kind:Interconnect.kind ->
  Perf_model.t ->
  (Placement.t, string) result
(** Place the model's graph onto [grid]. Fails when PEs or LS entries run
    out (a structural hazard; the controller then rejects the region). *)

(** Outcome of a {!refine} pass. [refined_cycles <= baseline_cycles] always:
    only strict engine-confirmed improvements are accepted. *)
type refinement = {
  placement : Placement.t;   (** best accepted placement (input if none) *)
  baseline_cycles : int;     (** engine cycles of the input placement *)
  refined_cycles : int;      (** engine cycles of [placement] *)
  baseline_estimate : Cost_model.t;  (** the model's estimate of the input *)
  refined_estimate : Cost_model.t;   (** the model's estimate of [placement] *)
  rounds : int;              (** refinement rounds run *)
  proposed : int;            (** legal candidates ranked by the model *)
  estimated : int;           (** [predict] calls: distinct schedule keys,
                                 the input's included *)
  confirmed : int;           (** engine confirmations attempted *)
  accepted : int;            (** moves/swaps accepted *)
}

val refine :
  ?seed:int ->
  ?max_rounds:int ->
  ?beam:int ->
  ?jobs:int ->
  predict:(Placement.t -> Cost_model.t) ->
  confirm:(Placement.t -> int option) ->
  dfg:Dfg.t ->
  baseline_cycles:int ->
  Placement.t ->
  refinement
(** Model-guided post-placement refinement. Each round estimates the
    current placement with [predict], proposes relocations and swaps for
    every node on the model's critical chain, keeps the legal candidates
    the model predicts to be faster, and engine-[confirm]s the top [beam]
    (default 4) of the model ranking; the first strictly faster confirmed
    candidate is adopted and the next round starts, for at most
    [max_rounds] (default 8) rounds. Ties in the model ranking are broken
    by a [seed]-keyed PRNG draw per candidate, making the pass a
    deterministic pure function of its inputs. [confirm] returning [None]
    (a rejected or failed run) just skips the candidate.

    [predict] must depend on a placement only through its
    {!Timing.schedule_key}: the pass calls it once per distinct key (the
    input's included) and ranks every candidate with its key's estimate,
    in a table that dies with the call. A round's new keys are estimated
    on [jobs] domains (default 1: on the caller), so [predict] must be
    safe to call from several domains at once; the result does not depend
    on [jobs]. *)

val reduction_depth : int
(** Levels of the imap FSM's reduction tree over the candidate window:
    log2 of its 32 entries, 5. *)

val map_cycles : Dfg.t -> int
(** Hardware cost of running the imap FSM (Figure 8): a constant pipeline
    of stages per instruction plus a reduction tree over the candidate
    window. *)
