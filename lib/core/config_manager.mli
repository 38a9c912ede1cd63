(** Task T3: configuration management — translation cost accounting (§4.3).

    A loop re-encountered after it was mapped skips the whole
    translate/map pipeline and pays only a lookup plus the bitstream
    rewrite; the configuration cache itself lives in {!Controller}. Costs
    are modeled in cycles of MESA's clock domain and feed both Table 2
    (configuration latency) and the energy amortization study (Figure 16).
    LDFG renaming is pipelined at one instruction per cycle plus setup. *)

val translation_cycles : Dfg.t -> Accel_config.t -> int
(** Full pipeline: LDFG build + instruction mapping FSM + bitstream write.
    This is the configuration latency reported against Table 2. *)

val cache_hit_cycles : Accel_config.t -> Dfg.t -> int
(** Re-encounter cost: lookup plus bitstream rewrite. *)
