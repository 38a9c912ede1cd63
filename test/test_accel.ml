let check = Alcotest.check

(* -------------------- grid -------------------- *)

let grid_presets () =
  check Alcotest.int "M-64" 64 (Grid.pe_count Grid.m64);
  check Alcotest.int "M-128" 128 (Grid.pe_count Grid.m128);
  check Alcotest.int "M-512" 512 (Grid.pe_count Grid.m512);
  check Alcotest.int "M-128 is 16x8" 16 Grid.m128.Grid.rows;
  check Alcotest.int "M-512 is 64x8" 64 Grid.m512.Grid.rows;
  check Alcotest.int "M-64 is 16x4" 4 Grid.m64.Grid.cols;
  check Alcotest.int "LS entries are half the array" 64 Grid.m128.Grid.ls_entries

let grid_fp_half () =
  (* Exactly half the PEs carry FP logic (interleaved 2x2 slices). *)
  List.iter
    (fun g ->
      let fp = ref 0 in
      Grid.iter_coords g (fun c -> if Grid.supports g c Isa.C_fmul then incr fp);
      check Alcotest.int (g.Grid.name ^ " FP count") (Grid.pe_count g / 2) !fp)
    [ Grid.m64; Grid.m128; Grid.m512 ]

let grid_capabilities () =
  let g = Grid.m128 in
  let fp_pe = ref None and int_pe = ref None in
  Grid.iter_coords g (fun c ->
      let fp = Grid.supports g c Isa.C_fmul in
      if fp && !fp_pe = None then fp_pe := Some c;
      if (not fp) && !int_pe = None then int_pe := Some c);
  let fp_pe = Option.get !fp_pe and int_pe = Option.get !int_pe in
  check Alcotest.bool "alu anywhere" true (Grid.supports g int_pe Isa.C_alu);
  check Alcotest.bool "fp on fp PE" true (Grid.supports g fp_pe Isa.C_fmul);
  check Alcotest.bool "no fp on int PE" false (Grid.supports g int_pe Isa.C_fmul);
  check Alcotest.bool "no loads on PEs" false (Grid.supports g fp_pe Isa.C_load);
  check Alcotest.bool "out of bounds" false (Grid.supports g (Grid.coord (-1) 0) Isa.C_alu)

let grid_of_pe_count () =
  check Alcotest.int "256" 256 (Grid.pe_count (Grid.of_pe_count 256));
  check Alcotest.int "16" 16 (Grid.pe_count (Grid.of_pe_count 16));
  check Alcotest.int "8 cols at 64+" 8 (Grid.of_pe_count 64).Grid.cols

let grid_manhattan () =
  check Alcotest.int "zero" 0 (Grid.manhattan (Grid.coord 1 1) (Grid.coord 1 1));
  check Alcotest.int "diagonal" 2 (Grid.manhattan (Grid.coord 0 0) (Grid.coord 1 1));
  check Alcotest.int "far" 10 (Grid.manhattan (Grid.coord 0 0) (Grid.coord 8 2))

(* -------------------- interconnect -------------------- *)

let interconnect_figure4_example1 () =
  (* Example 1 of Figure 4: hierarchical rows — 1 cycle within a row,
     3 cycles across rows. *)
  let g = Grid.m128 in
  let lat = Interconnect.latency g Interconnect.Hierarchical_rows in
  check Alcotest.int "same row" 1 (lat (Grid.coord 2 0) (Grid.coord 2 7));
  check Alcotest.int "across rows" 3 (lat (Grid.coord 2 0) (Grid.coord 3 0))

let interconnect_figure4_example2 () =
  (* Example 2: pure mesh — Manhattan distance. *)
  let g = Grid.m128 in
  let lat = Interconnect.latency g Interconnect.Pure_mesh in
  check Alcotest.int "neighbour" 1 (lat (Grid.coord 0 0) (Grid.coord 0 1));
  check Alcotest.int "diagonal" 2 (lat (Grid.coord 0 0) (Grid.coord 1 1));
  check Alcotest.int "self" 1 (lat (Grid.coord 0 0) (Grid.coord 0 0))

let interconnect_mesh_noc () =
  let g = Grid.m128 in
  let lat = Interconnect.latency g Interconnect.Mesh_noc in
  check Alcotest.int "neighbour local" 1 (lat (Grid.coord 0 0) (Grid.coord 0 1));
  check Alcotest.bool "far uses NoC" true (lat (Grid.coord 0 0) (Grid.coord 15 7) > 3);
  check Alcotest.bool "noc beats raw distance" true
    (lat (Grid.coord 0 0) (Grid.coord 15 7) < 22);
  check Alcotest.bool "route classification" true
    (Interconnect.route g Interconnect.Mesh_noc (Grid.coord 0 0) (Grid.coord 15 7)
     = Interconnect.Noc);
  check Alcotest.bool "neighbour is local" true
    (Interconnect.route g Interconnect.Mesh_noc (Grid.coord 0 0) (Grid.coord 0 1)
     = Interconnect.Local)

let interconnect_ls_coords () =
  let g = Grid.m128 in
  let c = Interconnect.ls_coord g 5 in
  check Alcotest.int "left edge" (-1) c.Grid.col;
  check Alcotest.int "row wraps" 5 c.Grid.row;
  let c2 = Interconnect.ls_coord g (5 + g.Grid.rows) in
  check Alcotest.int "wraps by rows" 5 c2.Grid.row

(* -------------------- placement -------------------- *)

let simple_region () =
  {
    Region.entry = 0x1000;
    back_branch_addr = 0x1000 + 24;
    instrs =
      [|
        Isa.Load (Isa.LW, 6, 10, 0);
        Isa.Ftype (Isa.FADD, 1, 2, 3);
        Isa.Rtype (Isa.ADD, 7, 6, 6);
        Isa.Store (Isa.SW, 7, 11, 0);
        Isa.Itype (Isa.ADDI, 10, 10, 4);
        Isa.Itype (Isa.ADDI, 5, 5, 1);
        Isa.Branch (Isa.BLT, 5, 13, -24);
      |];
    pragma = None;
    observed_iterations = 8;
  }

let mapped_placement () =
  let dfg = Ldfg.build_exn (simple_region ()) in
  let model = Perf_model.create dfg in
  match Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model with
  | Ok p -> (dfg, p)
  | Error e -> Alcotest.failf "map failed: %s" e

let placement_valid_and_typed () =
  let dfg, p = mapped_placement () in
  check Alcotest.bool "validates" true (Placement.validate dfg p = Ok ());
  (* Memory nodes on LS entries, others on PEs. *)
  Array.iteri
    (fun i nd ->
      match (Isa.is_memory nd.Dfg.instr, Placement.loc_of p i) with
      | true, Placement.Ls _ | false, Placement.Pe _ -> ()
      | _ -> Alcotest.failf "node %d mislocated" i)
    dfg.Dfg.nodes

let placement_rejects_double_booking () =
  let dfg, p = mapped_placement () in
  let assign = Array.copy p.Placement.assign in
  (* Nodes 1 and 2 are compute: force them onto the same PE. *)
  assign.(2) <- assign.(5);
  let bad = Placement.make p.Placement.grid p.Placement.kind assign in
  check Alcotest.bool "double booking rejected" true
    (Result.is_error (Placement.validate dfg bad))

let placement_rejects_fp_on_int_pe () =
  let dfg, p = mapped_placement () in
  let g = p.Placement.grid in
  (* Find an int-only PE not already used. *)
  let used = Hashtbl.create 16 in
  Array.iter
    (function Placement.Pe c -> Hashtbl.replace used (c.Grid.row, c.Grid.col) () | _ -> ())
    p.Placement.assign;
  let int_pe = ref None in
  Grid.iter_coords g (fun c ->
      if
        (not (Grid.supports g c Isa.C_fmul))
        && (not (Hashtbl.mem used (c.Grid.row, c.Grid.col)))
        && !int_pe = None
      then int_pe := Some c);
  let assign = Array.copy p.Placement.assign in
  assign.(1) <- Placement.Pe (Option.get !int_pe);
  (* node 1 is the fadd *)
  let bad = Placement.make g p.Placement.kind assign in
  check Alcotest.bool "fp op on int PE rejected" true
    (Result.is_error (Placement.validate dfg bad))

let placement_transfer_consistency () =
  let _, p = mapped_placement () in
  check Alcotest.bool "transfer positive" true (Placement.transfer p 0 2 >= 1);
  check Alcotest.bool "used PEs counted" true
    (String.starts_with ~prefix:"M-128 placement (5 PEs used):"
       (Format.asprintf "%a" Placement.pp p))

(* -------------------- accel config -------------------- *)

let config_bitstream_scaling () =
  let dfg = Ldfg.build_exn (simple_region ()) in
  let _, p = mapped_placement () in
  let plain = Accel_config.plain p in
  let tiled = Accel_config.with_opts ~tiling:4 p in
  check Alcotest.bool "tiling scales bits" true
    (Accel_config.bitstream_bits tiled dfg = 4 * Accel_config.bitstream_bits plain dfg);
  check Alcotest.bool "config cycles in the paper's band" true
    (let c = Accel_config.config_cycles plain dfg in
     c >= 500 && c <= 10000);
  check Alcotest.bool "multicast: tiled config far below 4x" true
    (Accel_config.config_cycles tiled dfg
    < 2 * Accel_config.config_cycles plain dfg)

let config_validation () =
  let _, p = mapped_placement () in
  Alcotest.check_raises "tiling >= 1"
    (Invalid_argument "Accel_config.with_opts: tiling must be >= 1") (fun () ->
      ignore (Accel_config.with_opts ~tiling:0 p))

let activity_accumulation () =
  let a = Activity.create () and b = Activity.create () in
  a.Activity.int_ops <- 3;
  b.Activity.int_ops <- 4;
  b.Activity.noc_transfers <- 7;
  Activity.add a b;
  check Alcotest.int "summed" 7 a.Activity.int_ops;
  check Alcotest.int "noc" 7 a.Activity.noc_transfers;
  let reg = Stats.registry () in
  Activity.register_stats a (Stats.group reg "fabric");
  check Alcotest.(option int) "total ops" (Some 7)
    (Stats.find_int (Stats.snapshot reg) "fabric.total_ops")

let suites =
  [
    ( "grid",
      [
        Alcotest.test_case "presets" `Quick grid_presets;
        Alcotest.test_case "FP covers half" `Quick grid_fp_half;
        Alcotest.test_case "capabilities (F_op)" `Quick grid_capabilities;
        Alcotest.test_case "of_pe_count" `Quick grid_of_pe_count;
        Alcotest.test_case "manhattan" `Quick grid_manhattan;
      ] );
    ( "interconnect",
      [
        Alcotest.test_case "Figure 4 example 1 (rows)" `Quick interconnect_figure4_example1;
        Alcotest.test_case "Figure 4 example 2 (mesh)" `Quick interconnect_figure4_example2;
        Alcotest.test_case "mesh + NoC" `Quick interconnect_mesh_noc;
        Alcotest.test_case "LS entry coords" `Quick interconnect_ls_coords;
      ] );
    ( "placement",
      [
        Alcotest.test_case "valid and typed" `Quick placement_valid_and_typed;
        Alcotest.test_case "double booking rejected" `Quick placement_rejects_double_booking;
        Alcotest.test_case "FP capability enforced" `Quick placement_rejects_fp_on_int_pe;
        Alcotest.test_case "transfer consistency" `Quick placement_transfer_consistency;
      ] );
    ( "accel_config",
      [
        Alcotest.test_case "bitstream scaling" `Quick config_bitstream_scaling;
        Alcotest.test_case "validation" `Quick config_validation;
        Alcotest.test_case "activity accumulation" `Quick activity_accumulation;
      ] );
  ]
