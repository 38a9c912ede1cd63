type outcome = {
  table : Tables.t;
  summary : (string * float) list;
}


(* ------------------------------------------------------------------ *)
(* Figure 11: speedup & energy efficiency vs the 16-core CPU.          *)

let fig11 ?jobs ?kernels () =
  let kernels = match kernels with Some ks -> ks | None -> Workloads.all () in
  let t =
    Tables.create ~title:"Figure 11: performance and energy efficiency vs 16-core OoO CPU"
      [
        ("benchmark", Tables.Left);
        ("M-128 speedup", Tables.Right);
        ("M-512 speedup", Tables.Right);
        ("M-128 energy eff", Tables.Right);
        ("M-512 energy eff", Tables.Right);
        ("outputs", Tables.Left);
      ]
  in
  let acc = ref [] in
  let measured =
    Pool.with_pool ?jobs (fun pool ->
        kernels
        |> List.map (fun k ->
               ( k,
                 Pool.submit pool (fun () -> Runner.multicore k),
                 Pool.submit pool (fun () -> fst (Runner.mesa ~grid:Grid.m128 k)),
                 Pool.submit pool (fun () -> fst (Runner.mesa ~grid:Grid.m512 k)) ))
        |> List.map (fun (k, b, m1, m5) ->
               (k, Pool.await b, Pool.await m1, Pool.await m5)))
  in
  List.iter
    (fun ((k : Kernel.t), base, m128, m512) ->
      let s128 = Runner.speedup ~baseline:base m128
      and s512 = Runner.speedup ~baseline:base m512
      and e128 = Runner.efficiency ~baseline:base m128
      and e512 = Runner.efficiency ~baseline:base m512 in
      acc := (s128, s512, e128, e512) :: !acc;
      let all_ok =
        List.for_all (fun c -> c = Ok ()) [ base.checked; m128.checked; m512.checked ]
      in
      Tables.add_row t
        [
          k.Kernel.name;
          Tables.xcell s128;
          Tables.xcell s512;
          Tables.xcell e128;
          Tables.xcell e512;
          (if all_ok then "ok" else "FAIL");
        ])
    measured;
  let col f = List.map f !acc in
  let g1 = Stats.geomean (col (fun (a, _, _, _) -> a)) in
  let g2 = Stats.geomean (col (fun (_, a, _, _) -> a)) in
  let g3 = Stats.geomean (col (fun (_, _, a, _) -> a)) in
  let g4 = Stats.geomean (col (fun (_, _, _, a) -> a)) in
  Tables.add_rule t;
  Tables.add_row t
    [ "geomean"; Tables.xcell g1; Tables.xcell g2; Tables.xcell g3; Tables.xcell g4; "" ];
  Tables.add_row t [ "paper (avg)"; "1.33x"; "1.81x"; "1.86x"; "1.92x"; "" ];
  {
    table = t;
    summary =
      [
        ("m128_speedup_geomean", g1);
        ("m512_speedup_geomean", g2);
        ("m128_efficiency_geomean", g3);
        ("m512_efficiency_geomean", g4);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 12: per-iteration IPC vs OpenCGRA.                           *)

let engine_ipc (k : Kernel.t) ~grid ~optimized =
  let dfg = Runner.dfg_of_kernel k in
  match Runner.placement_of ~grid k with
  | Error e -> Error e
  | Ok placement ->
    let config =
      if optimized then Runner.optimized_config ~grid k dfg placement
      else Accel_config.plain placement
    in
    Result.map
      (fun ((res : Engine.result), _) ->
        float_of_int (Dfg.node_count dfg * res.iterations)
        /. float_of_int (max 1 res.cycles))
      (Runner.execute_loop k dfg config)

let fig12 ?jobs ?kernels () =
  let kernels =
    match kernels with Some ks -> ks | None -> Workloads.opencgra_compatible ()
  in
  let t =
    Tables.create ~title:"Figure 12: per-iteration IPC vs OpenCGRA (same grid, M-128)"
      [
        ("benchmark", Tables.Left);
        ("OpenCGRA IPC", Tables.Right);
        ("MESA no-opt IPC", Tables.Right);
        ("MESA opt IPC", Tables.Right);
      ]
  in
  let ratios_noopt = ref [] and ratios_opt = ref [] in
  let measured =
    Pool.with_pool ?jobs (fun pool ->
        kernels
        |> List.map (fun k ->
               ( k,
                 Pool.submit pool (fun () ->
                     let dfg = Runner.dfg_of_kernel k in
                     match Opencgra.schedule dfg ~grid:Grid.m128 with
                     | Ok s -> Opencgra.ipc dfg s
                     | Error _ -> 0.0),
                 Pool.submit pool (fun () ->
                     Result.value (engine_ipc k ~grid:Grid.m128 ~optimized:false)
                       ~default:0.0),
                 Pool.submit pool (fun () ->
                     Result.value (engine_ipc k ~grid:Grid.m128 ~optimized:true)
                       ~default:0.0) ))
        |> List.map (fun (k, c, n, o) -> (k, Pool.await c, Pool.await n, Pool.await o)))
  in
  List.iter
    (fun ((k : Kernel.t), cgra_ipc, noopt, opt) ->
      if cgra_ipc > 0.0 then begin
        ratios_noopt := (noopt /. cgra_ipc) :: !ratios_noopt;
        ratios_opt := (opt /. cgra_ipc) :: !ratios_opt
      end;
      Tables.add_row t
        [ k.Kernel.name; Tables.fcell cgra_ipc; Tables.fcell noopt; Tables.fcell opt ])
    measured;
  let r_noopt = Stats.geomean !ratios_noopt and r_opt = Stats.geomean !ratios_opt in
  Tables.add_rule t;
  Tables.add_row t
    [ "geomean vs OpenCGRA"; "1.000"; Tables.fcell r_noopt; Tables.fcell r_opt ];
  Tables.add_row t [ "paper (shape)"; "1.0"; "slightly below 1.0"; "well above 1.0" ];
  {
    table = t;
    summary = [ ("noopt_vs_opencgra", r_noopt); ("opt_vs_opencgra", r_opt) ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 13: area / power / energy breakdown by component.            *)

let fig13 ?jobs () =
  let kernels = List.map Workloads.find [ "nn"; "kmeans"; "hotspot"; "cfd" ] in
  let grid = Grid.m128 in
  (* Energy shares measured across the four benchmarks. *)
  let sum = ref { Energy_model.compute_nj = 0.; memory_nj = 0.; interconnect_nj = 0.; control_nj = 0.; total_nj = 0. } in
  let reports = Pool.run ?jobs (fun k -> snd (Runner.mesa ~grid k)) kernels in
  List.iter
    (fun report ->
      let b = Energy_model.accel_energy ~grid report.Controller.activity in
      let mesa_nj =
        Energy_model.mesa_energy_nj ~busy_cycles:report.Controller.mesa_busy_cycles
      in
      sum :=
        {
          Energy_model.compute_nj = !sum.Energy_model.compute_nj +. b.Energy_model.compute_nj;
          memory_nj = !sum.Energy_model.memory_nj +. b.Energy_model.memory_nj;
          interconnect_nj = !sum.Energy_model.interconnect_nj +. b.Energy_model.interconnect_nj;
          control_nj = !sum.Energy_model.control_nj +. b.Energy_model.control_nj +. mesa_nj;
          total_nj = !sum.Energy_model.total_nj +. b.Energy_model.total_nj +. mesa_nj;
        })
    reports;
  let b = !sum in
  let pct part = 100.0 *. part /. b.Energy_model.total_nj in
  (* Area and power shares from the synthesis model, folded to the same
     categories. *)
  let entries = Area_model.accelerator ~grid in
  let find name =
    List.find (fun (en : Area_model.entry) -> en.Area_model.component = name) entries
  in
  let top = find "Accelerator Top" and pe = find "PE Array" in
  let lsu = find "Load-Store Unit" and noc = find "NoC" in
  let glue_area =
    top.Area_model.area_um2 -. pe.Area_model.area_um2 -. lsu.Area_model.area_um2
    -. noc.Area_model.area_um2
  and glue_power =
    top.Area_model.power_mw -. pe.Area_model.power_mw -. lsu.Area_model.power_mw
    -. noc.Area_model.power_mw
  in
  let apct v = 100.0 *. v /. top.Area_model.area_um2 in
  let ppct v = 100.0 *. v /. top.Area_model.power_mw in
  let t =
    Tables.create ~title:"Figure 13: breakdown by component (energy avg of nn/kmeans/hotspot/cfd)"
      [
        ("component", Tables.Left);
        ("area %", Tables.Right);
        ("power %", Tables.Right);
        ("energy %", Tables.Right);
      ]
  in
  Tables.add_row t
    [ "compute (PE array)"; Tables.fcell1 (apct pe.Area_model.area_um2);
      Tables.fcell1 (ppct pe.Area_model.power_mw); Tables.fcell1 (pct b.Energy_model.compute_nj) ];
  Tables.add_row t
    [ "memory (LSU + caches)"; Tables.fcell1 (apct lsu.Area_model.area_um2);
      Tables.fcell1 (ppct lsu.Area_model.power_mw); Tables.fcell1 (pct b.Energy_model.memory_nj) ];
  Tables.add_row t
    [ "interconnect (NoC)"; Tables.fcell1 (apct noc.Area_model.area_um2);
      Tables.fcell1 (ppct noc.Area_model.power_mw); Tables.fcell1 (pct b.Energy_model.interconnect_nj) ];
  Tables.add_row t
    [ "control (+MESA)"; Tables.fcell1 (apct glue_area); Tables.fcell1 (ppct glue_power);
      Tables.fcell1 (pct b.Energy_model.control_nj) ];
  let mem_compute = pct b.Energy_model.compute_nj +. pct b.Energy_model.memory_nj in
  Tables.add_rule t;
  Tables.add_row t [ "memory+compute energy"; ""; ""; Tables.fcell1 mem_compute ];
  Tables.add_row t [ "paper"; ""; ""; "~87" ];
  { table = t; summary = [ ("memory_plus_compute_energy_pct", mem_compute) ] }

(* ------------------------------------------------------------------ *)
(* Figure 14: M-64 vs single core and DynaSpAM.                        *)

let fig14 ?jobs ?kernels () =
  let kernels = match kernels with Some ks -> ks | None -> Workloads.dynaspam_shared () in
  let t =
    Tables.create ~title:"Figure 14: speedup vs a single OoO core (M-64 with optimizations)"
      [
        ("benchmark", Tables.Left);
        ("DynaSpAM", Tables.Right);
        ("M-64", Tables.Right);
        ("M-64 +iterative", Tables.Right);
      ]
  in
  let ds = ref [] and m64 = ref [] and m64i = ref [] in
  let measured =
    Pool.with_pool ?jobs (fun pool ->
        kernels
        |> List.map (fun k ->
               ( k,
                 Pool.submit pool (fun () -> Runner.single_core k),
                 Pool.submit pool (fun () ->
                     Runner.dynaspam
                       ~config:{ Dynaspam.default_config with Dynaspam.window = 24 }
                       k),
                 Pool.submit pool (fun () ->
                     fst (Runner.mesa ~grid:Grid.m64 ~iterative:false k)),
                 Pool.submit pool (fun () ->
                     fst (Runner.mesa ~grid:Grid.m64 ~iterative:true k)) ))
        |> List.map (fun (k, b, d, x, y) ->
               (k, Pool.await b, Pool.await d, Pool.await x, Pool.await y)))
  in
  List.iter
    (fun ((k : Kernel.t), base, dyn, a, b) ->
      let sd = Runner.speedup ~baseline:base dyn in
      let sa = Runner.speedup ~baseline:base a in
      let sb = Runner.speedup ~baseline:base b in
      ds := sd :: !ds;
      m64 := sa :: !m64;
      m64i := sb :: !m64i;
      Tables.add_row t
        [ k.Kernel.name; Tables.xcell sd; Tables.xcell sa; Tables.xcell sb ])
    measured;
  let g1 = Stats.geomean !ds and g2 = Stats.geomean !m64 and g3 = Stats.geomean !m64i in
  Tables.add_rule t;
  Tables.add_row t [ "geomean"; Tables.xcell g1; Tables.xcell g2; Tables.xcell g3 ];
  Tables.add_row t [ "paper (avg)"; "1.42x"; "1.86x"; "2.01x" ];
  {
    table = t;
    summary =
      [ ("dynaspam_geomean", g1); ("m64_geomean", g2); ("m64_iterative_geomean", g3) ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 15: PE scaling for nn.                                       *)

let fig15 ?jobs ?(n = 2048) () =
  let pe_counts = [ 16; 32; 64; 128; 256; 512 ] in
  let k = Workloads.nn ~n () in
  let measure ?mem_ports pes =
    fst (Runner.mesa ~grid:(Grid.of_pe_count pes) ?mem_ports k)
  in
  let base_default, base_ideal, points =
    Pool.with_pool ?jobs (fun pool ->
        let bd = Pool.submit pool (fun () -> measure 16) in
        let bi = Pool.submit pool (fun () -> measure ~mem_ports:1024 16) in
        let pts =
          List.map
            (fun pes ->
              ( pes,
                Pool.submit pool (fun () -> measure pes),
                Pool.submit pool (fun () -> measure ~mem_ports:1024 pes) ))
            pe_counts
        in
        ( Pool.await bd,
          Pool.await bi,
          List.map (fun (pes, d, i) -> (pes, Pool.await d, Pool.await i)) pts ))
  in
  let t =
    Tables.create ~title:"Figure 15: MESA performance scaling with PE count (nn kernel)"
      [
        ("PEs", Tables.Right);
        ("default", Tables.Right);
        ("ideal memory", Tables.Right);
        ("ideal scaling", Tables.Right);
      ]
  in
  let last_default = ref 1.0 in
  List.iter
    (fun (pes, md, mi) ->
      let d = Runner.speedup ~baseline:base_default md in
      let i = Runner.speedup ~baseline:base_ideal mi in
      last_default := d;
      Tables.add_row t
        [
          string_of_int pes;
          Tables.xcell d;
          Tables.xcell i;
          Tables.xcell (float_of_int pes /. 16.0);
        ])
    points;
  Tables.add_rule t;
  Tables.add_row t [ "paper"; "flattens past 128 PEs"; "keeps scaling"; "linear" ];
  { table = t; summary = [ ("default_512pe_speedup", !last_default) ] }

(* ------------------------------------------------------------------ *)
(* Figure 16: per-iteration energy amortization for nn.                *)

let fig16 ?jobs ?(n = 2048) () =
  ignore (jobs : int option);  (* a single measurement; nothing to fan out *)
  let k = Workloads.nn ~n () in
  let _, report = Runner.mesa ~grid:Grid.m128 k in
  let grid = Grid.m128 in
  let accel = Energy_model.accel_energy ~grid report.Controller.activity in
  let iterations = report.Controller.activity.Activity.iterations in
  let e_iter = accel.Energy_model.total_nj /. float_of_int (max 1 iterations) in
  let e_config =
    Energy_model.mesa_energy_nj ~busy_cycles:report.Controller.mesa_busy_cycles
  in
  let t =
    Tables.create
      ~title:"Figure 16: average energy per iteration (nJ) vs iterations elapsed (nn)"
      [
        ("iterations", Tables.Right);
        ("energy/iter (nJ)", Tables.Right);
        ("config share %", Tables.Right);
      ]
  in
  let amortized = ref max_int in
  List.iter
    (fun iters ->
      let avg = ((e_config +. (float_of_int iters *. e_iter)) /. float_of_int iters) in
      let share = 100.0 *. e_config /. (e_config +. (float_of_int iters *. e_iter)) in
      if share < 50.0 && !amortized = max_int then amortized := iters;
      Tables.add_row t
        [ string_of_int iters; Tables.fcell1 avg; Tables.fcell1 share ])
    [ 1; 2; 5; 10; 20; 30; 50; 70; 100; 150; 300 ];
  let breakeven = e_config /. e_iter in
  Tables.add_rule t;
  Tables.add_row t
    [ "break-even"; Tables.fcell1 breakeven; "(paper: ~70 iterations)" ];
  { table = t; summary = [ ("breakeven_iterations", breakeven) ] }

(* ------------------------------------------------------------------ *)
(* Table 1: hardware area and power breakdown.                         *)

let table1 ?jobs () =
  ignore (jobs : int option);  (* analytic, no simulation to fan out *)
  let entries = Area_model.full_table ~capacity:512 ~grid:Grid.m128 in
  let t =
    Tables.create ~title:"Table 1: area and power by component (128 PEs, capacity 512)"
      [ ("component", Tables.Left); ("area", Tables.Right); ("power", Tables.Right) ]
  in
  List.iter
    (fun (en : Area_model.entry) ->
      let pad = String.concat "" (List.init en.Area_model.indent (fun _ -> "- ")) in
      let area =
        if en.Area_model.area_um2 >= 1e6 then
          Printf.sprintf "%.3f mm2" (en.Area_model.area_um2 /. 1e6)
        else Printf.sprintf "%.1f um2" en.Area_model.area_um2
      in
      let power =
        if en.Area_model.power_mw >= 1000.0 then
          Printf.sprintf "%.2f W" (en.Area_model.power_mw /. 1e3)
        else Printf.sprintf "%.3f mW" en.Area_model.power_mw
      in
      Tables.add_row t [ pad ^ en.Area_model.component; area; power ])
    entries;
  Tables.add_rule t;
  let frac = Area_model.mesa_area_fraction_of_core ~capacity:512 in
  Tables.add_row t
    [ "MESA / core area"; Printf.sprintf "%.1f%%" (100.0 *. frac); "(paper: <10%)" ];
  List.iter
    (fun grid ->
      let acc = Area_model.accelerator ~grid in
      Tables.add_row t
        [
          grid.Grid.name ^ " accelerator total";
          Printf.sprintf "%.2f mm2" (Area_model.total_area_mm2 acc);
          Printf.sprintf "%.2f W" (Area_model.total_power_w acc);
        ])
    [ Grid.m64; Grid.m512 ];
  { table = t; summary = [ ("mesa_core_area_fraction", frac) ] }

(* ------------------------------------------------------------------ *)
(* Table 2: configuration latency comparison.                          *)

let table2 ?jobs () =
  let t =
    Tables.create ~title:"Table 2: configuration latency and approach comparison"
      [
        ("work", Tables.Left);
        ("config latency", Tables.Left);
        ("targets", Tables.Left);
        ("optimizations", Tables.Left);
      ]
  in
  Tables.add_row t [ "TRIPS"; "AOT"; "2D Spatial"; "H-Block (EDGE)" ];
  Tables.add_row t [ "CCA"; "-"; "1D FF"; "N/A" ];
  Tables.add_row t [ "DynaSpAM"; "JIT (ns)"; "1D FF"; "Out-of-order" ];
  Tables.add_row t [ "DORA"; "JIT (ms)"; "2D Spatial"; "Vect., Unroll, Deepen" ];
  (* Measured MESA translation latency across the suite. *)
  let cycles =
    Pool.run ?jobs
      (fun k ->
        match Runner.dfg_of_kernel k with
        | dfg -> (
          match Runner.placement_of ~grid:Grid.m128 k with
          | Ok placement ->
            let config = Accel_config.plain placement in
            Some
              (float_of_int
                 (Config_manager.translation_cycles dfg config))
          | Error _ -> None)
        | exception _ -> None)
      (Workloads.all ())
    |> List.filter_map Fun.id
  in
  let lo = List.fold_left Float.min infinity cycles in
  let hi = List.fold_left Float.max 0.0 cycles in
  Tables.add_row t
    [
      "MESA (this repo, measured)";
      Printf.sprintf "JIT (%.0f-%.0f cycles)" lo hi;
      "2D Spatial";
      "Dynamic, Tile, Pipeline";
    ];
  Tables.add_rule t;
  Tables.add_row t
    [ "paper"; "JIT (ns-us, 10^3-10^4 cycles)"; "2D Spatial"; "Dynamic, Tile, Pipeline" ];
  { table = t; summary = [ ("config_cycles_min", lo); ("config_cycles_max", hi) ] }
