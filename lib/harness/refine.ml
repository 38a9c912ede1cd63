(* Harness wiring for Mapper.refine: the model predicts, the engine
   confirms. Confirmation re-executes the kernel end to end on fresh state
   and validates the outputs against the OCaml reference, so a placement
   the pass adopts is both faster and semantically intact. *)

type report = {
  kernel : string;
  baseline_cycles : int;
  refined_cycles : int;
  model_baseline : int;
  model_refined : int;
  rounds : int;
  proposed : int;
  estimated : int;
  confirmed : int;
  accepted : int;
  iterations : int;
  placement : Placement.t;
  baseline : Placement.t;
  config : Accel_config.t;
  dfg : Dfg.t;
}

(* The model only needs enough iterations to rank candidates; past the
   steady state extra iterations just rescale every estimate by the same
   II, so a capped horizon keeps scoring cheap without disturbing the
   ordering. *)
let model_horizon iterations = min iterations 128

let execute_once ?attribution ~(k : Kernel.t) ~dfg config =
  match Runner.execute_loop ?attribution k dfg config with
  | Error e -> Error e
  | Ok (res, _) when not res.Engine.completed -> Error "loop did not complete"
  | Ok (_, Error e) -> Error ("output check failed: " ^ e)
  | Ok (res, Ok ()) -> Ok res

let run ?(seed = 0) ?max_rounds ?beam ?jobs ?(grid = Grid.m64) ?baseline ?measured
    (k : Kernel.t) =
  let dfg = Runner.dfg_of_kernel k in
  let baseline =
    match baseline with
    | Some p -> Ok p
    | None -> Runner.placement_of ~grid k
  in
  match baseline with
  | Error e -> Error e
  | Ok baseline -> (
    let config_of = Runner.optimized_config ~grid k dfg in
    match execute_once ~k ~dfg (config_of baseline) with
    | Error e -> Error ("baseline execution failed: " ^ e)
    | Ok base_res ->
      let iterations = base_res.Engine.iterations in
      let horizon = model_horizon iterations in
      (* A measured snapshot (a profiled engine window) tightens the
         model: per-node firing latencies and AMATs replace the static
         tables, so the ranking reflects the fabric this kernel actually
         saw rather than the generic seed. *)
      let op_latency = Option.map Cost_model.op_oracle_of_measured measured in
      let mem_latency =
        Option.map Cost_model.mem_oracle_of_measured measured
      in
      (* Domain-safe, so scoring can run on [jobs] domains: the config is
         built fresh from immutable inputs, and every estimate books into
         contention tables it owns until it returns, taken from its own
         domain's recycling pool. *)
      let predict pl =
        Cost_model.estimate ?op_latency ?mem_latency ~config:(config_of pl)
          ~dfg ~iterations:horizon ()
      in
      let confirm pl =
        match execute_once ~k ~dfg (config_of pl) with
        | Ok res -> Some res.Engine.cycles
        | Error _ -> None
      in
      let r =
        Mapper.refine ~seed ?max_rounds ?beam ?jobs ~predict ~confirm ~dfg
          ~baseline_cycles:base_res.Engine.cycles baseline
      in
      Ok
        {
          kernel = k.Kernel.name;
          baseline_cycles = r.Mapper.baseline_cycles;
          refined_cycles = r.Mapper.refined_cycles;
          model_baseline = r.Mapper.baseline_estimate.Cost_model.cycles;
          model_refined = r.Mapper.refined_estimate.Cost_model.cycles;
          rounds = r.Mapper.rounds;
          proposed = r.Mapper.proposed;
          estimated = r.Mapper.estimated;
          confirmed = r.Mapper.confirmed;
          accepted = r.Mapper.accepted;
          iterations;
          placement = r.Mapper.placement;
          baseline;
          config = config_of r.Mapper.placement;
          dfg;
        })

let config_for (r : report) placement =
  let grid = placement.Placement.grid in
  Runner.optimized_config ~grid (Workloads.find r.kernel) r.dfg placement

let profile (r : report) placement =
  let k = Workloads.find r.kernel in
  let config = config_for r placement in
  let grid = placement.Placement.grid in
  let a = Attribution.create ~grid () in
  Attribution.begin_window a ~at:0.0;
  match execute_once ~attribution:a ~k ~dfg:r.dfg config with
  | Error e -> Error e
  | Ok _ ->
    let est =
      Cost_model.estimate ~config ~dfg:r.dfg
        ~iterations:(model_horizon r.iterations) ()
    in
    Ok
      (Profile.of_attribution ~kernel:r.kernel
         ~critical_path:(est.Cost_model.critical, est.Cost_model.iter_latency)
         a)

let experiment ?jobs () =
  let kernels = [ "nn"; "kmeans"; "bfs"; "cfd"; "hotspot" ] in
  let t =
    Tables.create ~title:"Model-guided placement refinement (M-64)"
      [
        ("kernel", Tables.Left);
        ("baseline cycles", Tables.Right);
        ("refined cycles", Tables.Right);
        ("speedup", Tables.Right);
        ("rounds", Tables.Right);
        ("proposed", Tables.Right);
        ("estimated", Tables.Right);
        ("confirmed", Tables.Right);
        ("accepted", Tables.Right);
      ]
  in
  let improved = ref 0 in
  let gains = ref [] in
  List.iter
    (fun name ->
      match run ?jobs (Workloads.find name) with
      | Error e -> Tables.add_row t [ name; "-"; "-"; "-"; "-"; "-"; "-"; "-"; e ]
      | Ok r ->
        if r.refined_cycles < r.baseline_cycles then incr improved;
        gains :=
          (float_of_int r.baseline_cycles /. float_of_int (max 1 r.refined_cycles))
          :: !gains;
        Tables.add_row t
          [
            name;
            Tables.icell r.baseline_cycles;
            Tables.icell r.refined_cycles;
            Tables.xcell
              (float_of_int r.baseline_cycles /. float_of_int (max 1 r.refined_cycles));
            string_of_int r.rounds;
            string_of_int r.proposed;
            string_of_int r.estimated;
            string_of_int r.confirmed;
            string_of_int r.accepted;
          ])
    kernels;
  let best = List.fold_left Float.max 1.0 !gains in
  {
    Experiments.table = t;
    summary =
      [
        ("kernels", float_of_int (List.length kernels));
        ("improved", float_of_int !improved);
        ("best_speedup", best);
      ];
  }

let render (r : report) =
  let gain =
    100.0
    *. float_of_int (r.baseline_cycles - r.refined_cycles)
    /. float_of_int (max 1 r.baseline_cycles)
  in
  Printf.sprintf
    "%s: baseline %d cycles -> refined %d cycles (%.1f%% better)\n\
     model: baseline %d, refined %d; %d round(s), %d proposed, %d estimated, \
     %d confirmed, %d accepted\n"
    r.kernel r.baseline_cycles r.refined_cycles gain r.model_baseline
    r.model_refined r.rounds r.proposed r.estimated r.confirmed r.accepted

let report_to_json (r : report) =
  Json.Assoc
    [
      ("schema", Json.String "mesa-refine-v1");
      ("kernel", Json.String r.kernel);
      ("baseline_cycles", Json.Int r.baseline_cycles);
      ("refined_cycles", Json.Int r.refined_cycles);
      ("model_baseline", Json.Int r.model_baseline);
      ("model_refined", Json.Int r.model_refined);
      ("rounds", Json.Int r.rounds);
      ("proposed", Json.Int r.proposed);
      ("estimated", Json.Int r.estimated);
      ("confirmed", Json.Int r.confirmed);
      ("accepted", Json.Int r.accepted);
      ("iterations", Json.Int r.iterations);
    ]
