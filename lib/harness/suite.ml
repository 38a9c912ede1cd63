type experiment = ?jobs:int -> unit -> Experiments.outcome

let paper : (string * experiment) list =
  [
    ("fig11", fun ?jobs () -> Experiments.fig11 ?jobs ());
    ("fig12", fun ?jobs () -> Experiments.fig12 ?jobs ());
    ("fig13", Experiments.fig13);
    ("fig14", fun ?jobs () -> Experiments.fig14 ?jobs ());
    ("fig15", fun ?jobs () -> Experiments.fig15 ?jobs ());
    ("fig16", fun ?jobs () -> Experiments.fig16 ?jobs ());
    ("table1", Experiments.table1);
    ("table2", Experiments.table2);
  ]

let all =
  paper
  @ [
      ("ablation", fun ?jobs () -> Ablation.experiment ?jobs ());
      ("dse", Dse.experiment);
      ("dse-guided", Dse.guided_experiment);
      ("refine", Refine.experiment);
    ]
