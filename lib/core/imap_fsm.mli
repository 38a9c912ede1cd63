(** Cycle-level model of the instruction-mapping state machine (Figure 8).

    The imap FSM walks the LDFG once; for each instruction it spends one
    cycle fetching the entry, one generating the candidate matrix at the
    anchor, one filtering it through F_free and F_op, a reduction-tree
    traversal to find the latency-minimizing position (depth = log2 of the
    candidate-matrix size: 5 levels for the fixed 4x8 window of
    {!Mapper.window_rows} x {!Mapper.window_cols}), and one cycle writing
    the SDFG entry. {!cycles} is the closed form {!Mapper.map_cycles}
    charges; the test suite keeps the two in lock step. *)

val cycles : Dfg.t -> int
(** Total mapping cycles — equal to [Mapper.map_cycles]. *)

val timing_diagram : ?max_nodes:int -> Dfg.t -> string
(** A Figure 8-style text rendering: one row per instruction, one column
    per cycle, letters marking the active stage (F/G/L/R/W), for the first
    [max_nodes] (default 8) instructions. [max_nodes] is exposed for tests,
    which render every row. *)
