type variant = Full | No_tiling | No_pipelining | No_mem_opts | No_iterative | Nothing

let variant_name = function
  | Full -> "full"
  | No_tiling -> "no tiling"
  | No_pipelining -> "no pipelining"
  | No_mem_opts -> "no mem opts"
  | No_iterative -> "no iterative"
  | Nothing -> "bare mapping"

let all_variants = [ Full; No_tiling; No_pipelining; No_mem_opts; No_iterative; Nothing ]

let tune_of = function
  | Full | No_iterative -> Fun.id
  | No_tiling -> fun (c : Accel_config.t) -> { c with Accel_config.tiling = 1 }
  | No_pipelining -> fun c -> { c with Accel_config.pipelined = false }
  | No_mem_opts ->
    fun c ->
      { c with Accel_config.forwarding = []; vector_groups = []; prefetched = [] }
  | Nothing ->
    fun c ->
      {
        c with
        Accel_config.tiling = 1;
        pipelined = false;
        forwarding = [];
        vector_groups = [];
        prefetched = [];
      }

let iterative_of = function
  | No_iterative | Nothing -> false
  | Full | No_tiling | No_pipelining | No_mem_opts -> true

let grid = Grid.m128

let run_variant variant (k : Kernel.t) =
  let options =
    {
      (Controller.default_options ~grid ~optimize:true ~iterative:(iterative_of variant) ())
      with
      Controller.tune = tune_of variant;
    }
  in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let report = Controller.run ~options k.Kernel.program machine in
  let accel = Energy_model.accel_energy ~grid report.Controller.activity in
  {
    Runner.label = variant_name variant;
    cycles = report.Controller.total_cycles;
    energy_nj =
      Energy_model.cpu_energy_nj report.Controller.cpu_summary
      +. accel.Energy_model.total_nj
      +. Energy_model.mesa_energy_nj ~busy_cycles:report.Controller.mesa_busy_cycles;
    checked = k.Kernel.check mem;
    stats = report.Controller.stats;
  }

let default_kernels () =
  List.map Workloads.find [ "gaussian"; "kmeans"; "btree"; "bfs" ]

let experiment ?jobs ?kernels () =
  let kernels = match kernels with Some ks -> ks | None -> default_kernels () in
  let t =
    Tables.create
      ~title:
        (Printf.sprintf "Ablation: speedup vs 16-core CPU when removing one mechanism (%s)"
           grid.Grid.name)
      (("benchmark", Tables.Left)
      :: List.map (fun v -> (variant_name v, Tables.Right)) all_variants)
  in
  let per_variant = Hashtbl.create 8 in
  let measured =
    Pool.with_pool ?jobs (fun pool ->
        kernels
        |> List.map (fun (k : Kernel.t) ->
               ( k,
                 Pool.submit pool (fun () -> Runner.multicore k),
                 List.map
                   (fun v -> (v, Pool.submit pool (fun () -> run_variant v k)))
                   all_variants ))
        |> List.map (fun (k, b, vs) ->
               (k, Pool.await b, List.map (fun (v, f) -> (v, Pool.await f)) vs)))
  in
  List.iter
    (fun ((k : Kernel.t), base, variants) ->
      let cells =
        List.map
          (fun (v, m) ->
            let ok = m.Runner.checked = Ok () && base.Runner.checked = Ok () in
            let s = Runner.speedup ~baseline:base m in
            let prev = Option.value (Hashtbl.find_opt per_variant v) ~default:[] in
            Hashtbl.replace per_variant v (s :: prev);
            if ok then Tables.xcell s else "FAIL")
          variants
      in
      Tables.add_row t (k.Kernel.name :: cells))
    measured;
  Tables.add_rule t;
  let geomeans =
    List.map
      (fun v -> Stats.geomean (Option.value (Hashtbl.find_opt per_variant v) ~default:[]))
      all_variants
  in
  Tables.add_row t ("geomean" :: List.map Tables.xcell geomeans);
  let summary =
    List.map2 (fun v g -> ("ablation_" ^ variant_name v, g)) all_variants geomeans
  in
  { Experiments.table = t; summary }
