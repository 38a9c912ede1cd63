(* The workload and metric names this benchmark emits, and the map from
   each per-layer metric to the end-to-end metrics and workloads it should
   move. BENCHMARK.json at the repository root lists the same names and
   README.md in this directory holds the map as a table; the runtest rule
   in this directory runs [check] so neither can drift silently. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

(* A per-layer metric, the end-to-end metrics it should move, the
   workloads it moves them on, and the workloads where it should stay
   flat. *)
type layer = {
  metric : metric;
  moves : string list;
  on_ : string list;
  flat_on : string list;
}

let m name unit_ better = { name; unit_; better }

let workloads = [ "paper-suite"; "refine"; "fuzz"; "mesad" ]

(* Every workload reports every end-to-end metric. An "operation" is the
   workload's unit of user-visible work: a suite pass, a refine pass, a
   20-case fuzz campaign, a mesad request. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "op_p50_ms" "ms" Lower;
    m "ops_per_s" "1/s" Higher;
    m "peak_rss_mb" "MiB" Lower;
  ]

let suite_experiments =
  [ "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "table1"; "table2";
    "ablation" ]

let per_layer =
  let l ?(flat_on = []) name unit_ better moves on_ =
    { metric = m name unit_ better; moves; on_; flat_on }
  in
  let pass = [ "setup_s"; "op_p50_ms"; "ops_per_s" ] in
  let op = [ "op_p50_ms"; "ops_per_s" ] in
  let others w = List.filter (( <> ) w) workloads in
  List.map (fun e -> l ("suite." ^ e ^ "_s") "s" Lower pass [ "paper-suite" ])
    suite_experiments
  @ [
      l "suite.sim_cycles_per_s" "1/s" Higher pass [ "paper-suite" ];
      l "suite.alloc_mwords" "Mword" Lower [ "peak_rss_mb"; "op_p50_ms" ] [ "paper-suite" ];
      l "cpu.single_core_s" "s" Lower pass [ "paper-suite" ] ~flat_on:[ "refine" ];
      l "cpu.multicore_s" "s" Lower pass [ "paper-suite" ] ~flat_on:[ "refine" ];
      l "interp.run_s" "s" Lower op [ "paper-suite"; "fuzz" ];
      l "translate.ldfg_s" "s" Lower op [ "fuzz" ] ~flat_on:[ "mesad" ];
      l "translate.map_s" "s" Lower op [ "fuzz" ] ~flat_on:[ "mesad" ];
      l "controller.run_s" "s" Lower op [ "paper-suite"; "mesad" ];
      l "engine.execute_s" "s" Lower pass [ "paper-suite" ] ~flat_on:[ "refine" ];
      l "engine.ns_per_sim_cycle" "ns" Lower pass [ "paper-suite" ] ~flat_on:[ "refine" ];
      l "mem.create_s" "s" Lower op workloads;
      l "memo.hits" "count" Higher pass [ "paper-suite" ];
      l "memo.misses" "count" Lower pass [ "paper-suite" ];
    ]
  @ List.map
      (fun (name, unit_, better) ->
        l name unit_ better pass [ "refine" ] ~flat_on:(others "refine"))
      [
        ("refine.cost_model.calls", "count", Lower);
        ("refine.cost_model_s", "s", Lower);
        ("refine.cost_model_us_per_call", "us", Lower);
        ("refine.confirm.calls", "count", Lower);
        ("refine.confirm_s", "s", Lower);
        ("refine.baseline_s", "s", Lower);
        ("refine.search_self_s", "s", Lower);
        ("refine.accept_ratio", "ratio", Higher);
        ("refine.alloc_mwords", "Mword", Lower);
      ]
  @ List.map
      (fun (name, unit_, better) -> l name unit_ better op [ "fuzz" ])
      [
        ("fuzz.case_ms_p50", "ms", Lower);
        ("fuzz.case_ms_p99", "ms", Lower);
        ("fuzz.gen_s", "s", Lower);
        ("fuzz.interp_s", "s", Lower);
        ("fuzz.mem_equal_s", "s", Lower);
        ("fuzz.mem_checksum_s", "s", Lower);
        ("fuzz.offload_ratio", "ratio", Higher);
      ]
  @ List.map
      (fun (name, unit_, better) -> l name unit_ better op [ "mesad" ])
      [
        ("mesad.service_ms_p50", "ms", Lower);
        ("mesad.ping_ms_p50", "ms", Lower);
        ("mesad.codec_us", "us", Lower);
        ("mesad.wait_ms_p50", "ms", Lower);
        ("mesad.loadgen_p99_ms", "ms", Lower);
      ]
  @ [
      l "mesad.mem_create_ms" "ms" Lower op [ "mesad" ]
        ~flat_on:[ "refine"; "paper-suite" ];
      l "mesad.controller_ms" "ms" Lower op [ "mesad" ];
      l "mesad.checksum_ms" "ms" Lower op [ "mesad" ]
        ~flat_on:[ "refine"; "paper-suite" ];
      l "mesad.check_ms" "ms" Lower op [ "mesad" ];
      l "mesad.queue_peak_depth" "count" Lower op [ "mesad" ];
      l "mesad.memo_translation_hits" "count" Higher op [ "mesad" ];
      l "mesad.memo_translation_misses" "count" Lower op [ "mesad" ];
    ]

let per_layer_metrics = List.map (fun x -> x.metric) per_layer

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer_metrics) with
  | Some x -> x.unit_
  | None -> invalid_arg ("Bench_names.unit_of: unknown metric " ^ name)

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let layer_map_json =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.List
    (List.map
       (fun x ->
         Json.Assoc
           [
             ("name", Json.String x.metric.name);
             ("moves", strings x.moves);
             ("on", strings x.on_);
             ("flat_on", strings x.flat_on);
           ])
       per_layer)

(* The map as a Markdown table, consecutive metrics with the same links
   sharing a row. *)
let layer_map_markdown =
  let code l = String.concat ", " (List.map (Printf.sprintf "`%s`") l) in
  let rec rows = function
    | [] -> []
    | x :: _ as l ->
      let same y = (y.moves, y.on_, y.flat_on) = (x.moves, x.on_, x.flat_on) in
      let rec split acc = function
        | y :: rest when same y -> split (y :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let group, rest = split [] l in
      Printf.sprintf "| %s | %s | %s | %s |"
        (code (List.map (fun y -> y.metric.name) group))
        (code x.moves) (String.concat ", " x.on_)
        (match x.flat_on with [] -> "" | f -> String.concat ", " f)
      :: rows rest
  in
  String.concat "\n"
    ("| per-layer metric | should move | on | flat on |"
     :: "|---|---|---|---|" :: rows per_layer)
  ^ "\n"

(* Compare the compiled names, units, directions and layer map against a
   BENCHMARK.json document, and the map against README.md's table when
   its text is given; every difference is one message. *)
let check ?readme (doc : Json.t) =
  let entries key =
    match Option.bind (Json.member key doc) Json.to_list with
    | Some l -> l
    | None -> []
  in
  let str k j = Option.bind (Json.member k j) Json.to_string_opt in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let same_list what compiled listed =
    let only a b = List.filter (fun n -> not (List.mem n b)) a in
    match (only compiled listed, only listed compiled) with
    | [], [] ->
      if compiled <> listed then err "%s: same names in another order" what
    | missing, extra ->
      if missing <> [] then
        err "%s: compiled but not listed: %s" what (String.concat ", " missing);
      if extra <> [] then
        err "%s: listed but not compiled: %s" what (String.concat ", " extra)
  in
  let listed_workloads = List.filter_map (str "name") (entries "workloads") in
  same_list "workloads" workloads listed_workloads;
  let metrics key compiled =
    let listed = entries key in
    same_list key
      (List.map (fun x -> x.name) compiled)
      (List.filter_map (str "name") listed);
    List.iter
      (fun x ->
        match List.find_opt (fun j -> str "name" j = Some x.name) listed with
        | None -> ()
        | Some j ->
          if str "unit" j <> Some x.unit_ then
            err "%s: unit %s compiled, %s listed" x.name x.unit_
              (Option.value (str "unit" j) ~default:"none");
          if str "better" j <> Some (better_to_string x.better) then
            err "%s: better=%s compiled, %s listed" x.name
              (better_to_string x.better)
              (Option.value (str "better" j) ~default:"none"))
      compiled
  in
  metrics "end_to_end" end_to_end;
  metrics "per_layer" per_layer_metrics;
  let listed_e2e = List.filter_map (str "name") (entries "end_to_end") in
  List.iter
    (fun x ->
      let unknown what known l =
        List.iter
          (fun n -> if not (List.mem n known) then err "%s: %s %s not listed" x.metric.name what n)
          l
      in
      if x.moves = [] || x.on_ = [] then err "%s: maps to no metric or workload" x.metric.name;
      unknown "moves" listed_e2e x.moves;
      unknown "on" listed_workloads x.on_;
      unknown "flat_on" listed_workloads x.flat_on)
    per_layer;
  (match readme with
  | None -> ()
  | Some text ->
    let n = String.length layer_map_markdown in
    let rec has i =
      i + n <= String.length text
      && (String.sub text i n = layer_map_markdown || has (i + 1))
    in
    if not (has 0) then
      err "README.md: the layer map table differs from `main.exe layer-map --markdown`");
  List.rev !errors
