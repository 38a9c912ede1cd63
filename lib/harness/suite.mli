(** The experiment registry: every table the harness regenerates, by name.
    [bench/main.exe] runs from it. Each entry takes the [?jobs] of
    {!Experiments}. *)

type experiment = ?jobs:int -> unit -> Experiments.outcome

val all : (string * experiment) list
(** The paper's evaluation in paper order (fig11-fig16, table1, table2),
    followed by the repository's own experiments: ablation, dse,
    dse-guided and refine. *)
