let check = Alcotest.check

let dfg_of_kernel name = Runner.dfg_of_kernel (Workloads.find name)

let maps_every_kernel_every_grid () =
  List.iter
    (fun (k : Kernel.t) ->
      let dfg = Runner.dfg_of_kernel k in
      List.iter
        (fun grid ->
          let model = Perf_model.create dfg in
          match Mapper.map ~grid ~kind:Interconnect.Mesh_noc model with
          | Ok p ->
            check Alcotest.bool
              (Printf.sprintf "%s on %s valid" k.Kernel.name grid.Grid.name)
              true
              (Placement.validate dfg p = Ok ())
          | Error e -> Alcotest.failf "%s on %s: %s" k.Kernel.name grid.Grid.name e)
        [ Grid.m64; Grid.m128; Grid.m512 ])
    (Workloads.all ())

let mapping_deterministic () =
  let dfg = dfg_of_kernel "nn" in
  let p1 = Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc (Perf_model.create dfg)) in
  let p2 = Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc (Perf_model.create dfg)) in
  check Alcotest.bool "same placement" true (p1.Placement.assign = p2.Placement.assign)

let consumers_placed_near_producers () =
  (* The greedy objective should keep single-consumer chains tight: most
     data edges land within the local-link reach. *)
  let dfg = dfg_of_kernel "nn" in
  let p = Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc (Perf_model.create dfg)) in
  let compute_edges =
    List.filter
      (fun (i, j, k) ->
        (match k with Dfg.Data _ -> true | _ -> false)
        && (not (Isa.is_memory dfg.Dfg.nodes.(i).Dfg.instr))
        && not (Isa.is_memory dfg.Dfg.nodes.(j).Dfg.instr))
      (Dfg.edges dfg)
  in
  let close =
    List.filter (fun (i, j, _) -> Placement.transfer p i j <= 2) compute_edges
  in
  check Alcotest.bool "most compute edges within 2 hops" true
    (2 * List.length close >= List.length compute_edges)

let fails_when_grid_too_small () =
  let dfg = dfg_of_kernel "kmeans" in
  (* ~30 compute nodes cannot fit a 3x2 grid. *)
  let tiny = Grid.make ~rows:3 ~cols:2 () in
  let model = Perf_model.create dfg in
  check Alcotest.bool "mapping fails" true
    (Result.is_error (Mapper.map ~grid:tiny ~kind:Interconnect.Mesh_noc model))

let fails_without_ls_entries () =
  let dfg = dfg_of_kernel "nn" in
  let g = Grid.m64 in
  let starved = { g with Grid.ls_entries = 1 } in
  let model = Perf_model.create dfg in
  check Alcotest.bool "LS starvation fails" true
    (Result.is_error (Mapper.map ~grid:starved ~kind:Interconnect.Mesh_noc model))

let installs_transfer_estimates () =
  let dfg = dfg_of_kernel "gaussian" in
  let model = Perf_model.create dfg in
  let p = Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model) in
  List.iter
    (fun (i, j, _) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "edge %d->%d estimate" i j)
        (float_of_int (Placement.transfer p i j))
        (Perf_model.transfer model i j))
    (Dfg.edges dfg)

let data_driven_anchoring () =
  (* Make one load extremely slow; the remap should not be worse under the
     new weights than the naive map evaluated under the same weights. *)
  let dfg = dfg_of_kernel "gaussian" in
  let naive = Perf_model.create dfg in
  let naive_p = Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc naive) in
  ignore naive_p;
  let naive_latency = Perf_model.iteration_latency naive in
  let informed = Perf_model.create dfg in
  (* Find the first load and report a 60-cycle AMAT for it. *)
  Array.iteri
    (fun i nd -> if Isa.is_load nd.Dfg.instr then Perf_model.observe_op informed i 60.0)
    dfg.Dfg.nodes;
  let _ = Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc informed) in
  let informed_latency = Perf_model.iteration_latency informed in
  check Alcotest.bool "informed map no worse than naive + measurement" true
    (informed_latency >= naive_latency)

let window_fallback_large_graph () =
  (* A wide graph (many independent chains) forces the window to overflow
     and exercises the global-scan fallback; the result must stay valid. *)
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  for i = 0 to 20 do
    Asm.addi b (6 + (i mod 10)) (6 + ((i + 1) mod 10)) i
  done;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a3 "loop";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let region =
    {
      Region.entry = Program.base prog;
      back_branch_addr = Program.base prog + (4 * 22);
      instrs = Array.sub (Program.code prog) 0 23;
      pragma = None;
      observed_iterations = 8;
    }
  in
  let dfg = Ldfg.build_exn region in
  let tiny = Grid.make ~rows:6 ~cols:4 () in
  let model = Perf_model.create dfg in
  match Mapper.map ~grid:tiny ~kind:Interconnect.Mesh_noc model with
  | Ok p -> check Alcotest.bool "fallback placement valid" true (Placement.validate dfg p = Ok ())
  | Error e -> Alcotest.failf "unexpected failure: %s" e

let map_cycles_model () =
  let dfg = dfg_of_kernel "nn" in
  let c = Mapper.map_cycles dfg in
  (* Figure 8: a handful of FSM stages per instruction. *)
  check Alcotest.int "9 cycles per instruction" (9 * Dfg.node_count dfg) c

let mapper_random_loops =
  QCheck2.Test.make ~name:"mapper valid on random loops" ~count:100
    ~print:Gen.loop_spec_print Gen.loop_spec (fun spec ->
      let prog, _ = Gen.build_loop spec in
      let code = Program.code prog in
      let n_loop =
        1
        + (Array.to_list code
          |> List.mapi (fun i x -> (i, x))
          |> List.find (fun (_, x) ->
                 match x with Isa.Branch (_, _, _, o) -> o < 0 | _ -> false)
          |> fst)
      in
      let region =
        {
          Region.entry = Program.base prog;
          back_branch_addr = Program.base prog + (4 * (n_loop - 1));
          instrs = Array.sub code 0 n_loop;
          pragma = None;
          observed_iterations = 8;
        }
      in
      match Ldfg.build region with
      | Error _ -> false
      | Ok dfg -> (
        match Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc (Perf_model.create dfg) with
        | Ok p -> Placement.validate dfg p = Ok ()
        | Error _ -> false))

let suites =
  [
    ( "mapper",
      [
        Alcotest.test_case "maps all kernels on all grids" `Quick maps_every_kernel_every_grid;
        Alcotest.test_case "deterministic" `Quick mapping_deterministic;
        Alcotest.test_case "locality objective" `Quick consumers_placed_near_producers;
        Alcotest.test_case "fails when grid too small" `Quick fails_when_grid_too_small;
        Alcotest.test_case "fails without LS entries" `Quick fails_without_ls_entries;
        Alcotest.test_case "installs transfer estimates" `Quick installs_transfer_estimates;
        Alcotest.test_case "data-driven anchoring" `Quick data_driven_anchoring;
        Alcotest.test_case "window fallback" `Quick window_fallback_large_graph;
        Alcotest.test_case "map cycles model" `Quick map_cycles_model;
        QCheck_alcotest.to_alcotest mapper_random_loops;
      ] );
  ]
