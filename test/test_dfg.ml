let check = Alcotest.check

let node ?(guards = []) ?hidden ?prev_store ~addr instr srcs =
  { Dfg.instr; addr; srcs = Array.of_list srcs; guards; hidden; prev_store }

(* The worked example of Figure 2: five instructions, add = 3 cycles,
   mul = 5 cycles, transfer latency = Manhattan distance (1 for neighbours,
   2 along the diagonal). The paper's table gives completions
   i1=3, i2=9, i5=15 with {i1, i4, i5} on the critical path and a total of
   15 cycles. *)
let figure2_dfg () =
  let r r = Dfg.Reg_in (r, Dfg.X) in
  {
    Dfg.nodes =
      [|
        node ~addr:0x0 (Isa.Rtype (Isa.ADD, 5, 1, 2)) [ r 1; r 2 ];
        node ~addr:0x4 (Isa.Rtype (Isa.MUL, 6, 5, 3)) [ Dfg.Node 0; r 3 ];
        node ~addr:0x8 (Isa.Rtype (Isa.ADD, 7, 6, 4)) [ Dfg.Node 1; r 4 ];
        node ~addr:0xc (Isa.Rtype (Isa.MUL, 28, 5, 8)) [ Dfg.Node 0; r 8 ];
        node ~addr:0x10 (Isa.Rtype (Isa.ADD, 29, 28, 9)) [ Dfg.Node 3; r 9 ];
      |];
    live_in_x = [ 1; 2; 3; 4; 8; 9 ];
    live_in_f = [];
    live_out_x = [ (29, Dfg.Node 4) ];
    live_out_f = [];
    back_branch = 4;
    entry_addr = 0x0;
    exit_addr = 0x14;
  }

let fig2_transfer i j =
  match (i, j) with
  | 0, 1 -> 1.0 (* neighbours *)
  | 1, 2 -> 1.0
  | 0, 3 -> 2.0 (* diagonal *)
  | 3, 4 -> 2.0
  | _ -> 1.0

let fig2_op dfg i =
  float_of_int (Latency.accel (Isa.op_class dfg.Dfg.nodes.(i).Dfg.instr))

let figure2_latency_table () =
  let dfg = figure2_dfg () in
  let compl_ =
    Dfg.completion_times dfg ~op_latency:(fig2_op dfg) ~transfer:fig2_transfer
  in
  check (Alcotest.array (Alcotest.float 1e-9)) "paper's table"
    [| 3.0; 9.0; 13.0; 10.0; 15.0 |] compl_;
  check (Alcotest.float 1e-9) "15 cycles total" 15.0
    (Dfg.iteration_latency dfg ~op_latency:(fig2_op dfg) ~transfer:fig2_transfer)

let figure2_critical_path () =
  let dfg = figure2_dfg () in
  let path = Dfg.critical_path dfg ~op_latency:(fig2_op dfg) ~transfer:fig2_transfer in
  check (Alcotest.list Alcotest.int) "i1 -> i4 -> i5" [ 0; 3; 4 ] path

let edges_and_children () =
  let dfg = figure2_dfg () in
  let edges = Dfg.edges dfg in
  check Alcotest.int "four data edges" 4 (List.length edges);
  check Alcotest.bool "0->1 present" true
    (List.exists (fun (i, j, k) -> i = 0 && j = 1 && k = Dfg.Data 0) edges);
  let children i = List.filter_map (fun (s, d, _) -> if s = i then Some d else None) edges in
  check (Alcotest.list Alcotest.int) "children of 0" [ 1; 3 ] (children 0);
  check (Alcotest.list Alcotest.int) "children of 4" [] (children 4);
  check (Alcotest.array Alcotest.int) "arrival deps of 4" [| 3 |] (Dfg.arrival_deps dfg).(4)

let node_count_and_kinds () =
  let dfg = figure2_dfg () in
  check Alcotest.int "five nodes" 5 (Dfg.node_count dfg);
  check Alcotest.bool "no memory nodes" false (Isa.is_memory dfg.Dfg.nodes.(0).Dfg.instr);
  check Alcotest.bool "back branch is not a real branch here" false
    (Isa.op_class dfg.Dfg.nodes.(4).Dfg.instr = Isa.C_branch)

let validate_catches_forward_source () =
  let r r = Dfg.Reg_in (r, Dfg.X) in
  let dfg =
    {
      (figure2_dfg ()) with
      Dfg.nodes =
        [|
          node ~addr:0x0 (Isa.Rtype (Isa.ADD, 5, 1, 2)) [ Dfg.Node 1; r 2 ];
          node ~addr:0x4 (Isa.Branch (Isa.BNE, 5, 0, -4)) [ r 5; r 0 ];
        |];
      back_branch = 1;
    }
  in
  check Alcotest.bool "forward source rejected" true (Result.is_error (Dfg.validate dfg))

let validate_catches_bad_back_branch () =
  let dfg = figure2_dfg () in
  check Alcotest.bool "non-branch back edge rejected" true
    (Result.is_error (Dfg.validate dfg))

let validate_accepts_real_loop () =
  let r r = Dfg.Reg_in (r, Dfg.X) in
  let dfg =
    {
      (figure2_dfg ()) with
      Dfg.nodes =
        [|
          node ~addr:0x0 (Isa.Itype (Isa.ADDI, 5, 5, 1)) [ r 5 ];
          node ~addr:0x4 (Isa.Branch (Isa.BLT, 5, 10, -4)) [ Dfg.Node 0; r 10 ];
        |];
      live_in_x = [ 5; 10 ];
      live_out_x = [ (5, Dfg.Node 0) ];
      back_branch = 1;
    }
  in
  (match Dfg.validate dfg with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "carried induction" [ (5, true) ]
    (List.map (fun (r, f, _) -> (r, f = Dfg.X)) (Dfg.loop_carried dfg))

let guard_edges_weighted () =
  (* A guarded node must wait for its guard's enable signal. *)
  let r r = Dfg.Reg_in (r, Dfg.X) in
  let dfg =
    {
      (figure2_dfg ()) with
      Dfg.nodes =
        [|
          node ~addr:0x0 (Isa.Branch (Isa.BEQ, 1, 0, 8)) [ r 1; r 0 ];
          node ~addr:0x4
            ~guards:[ (0, true) ]
            ~hidden:(Dfg.Reg_in (5, Dfg.X))
            (Isa.Itype (Isa.ADDI, 5, 5, 1))
            [ r 5 ];
        |];
      back_branch = 0;
    }
  in
  let compl_ =
    Dfg.completion_times dfg
      ~op_latency:(fun _ -> 2.0)
      ~transfer:(fun _ _ -> 3.0)
  in
  (* Node 1 waits for guard (2.0) + transfer (3.0) then executes (2.0). *)
  check (Alcotest.float 1e-9) "guard delays" 7.0 compl_.(1)

let dot_and_pp () =
  let dfg = figure2_dfg () in
  let dot = Dfg.to_dot dfg in
  check Alcotest.bool "digraph" true (String.length dot > 7 && String.sub dot 0 7 = "digraph");
  check Alcotest.bool "mentions nodes" true
    (String.split_on_char '\n' dot |> List.exists (fun l -> l = "  n0 -> n1;"));
  let s = Format.asprintf "%a" Dfg.pp dfg in
  check Alcotest.bool "pp nonempty" true (String.length s > 50)

(* -------------------- perf model -------------------- *)

let perf_model_defaults_and_measurement () =
  let dfg = figure2_dfg () in
  let model = Perf_model.create dfg in
  check (Alcotest.float 1e-9) "default add" 3.0 (Perf_model.op_latency model 0);
  check (Alcotest.float 1e-9) "default mul" 5.0 (Perf_model.op_latency model 1);
  Perf_model.observe_op model 0 7.0;
  Perf_model.observe_op model 0 9.0;
  check (Alcotest.float 1e-9) "measured mean wins" 8.0 (Perf_model.op_latency model 0)

let perf_model_transfers () =
  let dfg = figure2_dfg () in
  let model = Perf_model.create dfg in
  check (Alcotest.float 1e-9) "default transfer" 1.0 (Perf_model.transfer model 0 1);
  Perf_model.set_transfer_estimate model 0 1 4.0;
  check (Alcotest.float 1e-9) "estimate" 4.0 (Perf_model.transfer model 0 1);
  Perf_model.observe_transfer model 0 1 6.0;
  check (Alcotest.float 1e-9) "measurement beats estimate" 6.0 (Perf_model.transfer model 0 1);
  Perf_model.set_transfer_estimate model 0 1 2.0;
  check (Alcotest.float 1e-9) "new estimate clears stale measurement" 2.0
    (Perf_model.transfer model 0 1)

let perf_model_latency_consistency () =
  let dfg = figure2_dfg () in
  let model = Perf_model.create dfg in
  List.iter
    (fun (i, j, _) ->
      Perf_model.set_transfer_estimate model i j (fig2_transfer i j))
    (Dfg.edges dfg);
  check (Alcotest.float 1e-9) "matches direct computation" 15.0
    (Perf_model.iteration_latency model);
  check (Alcotest.list Alcotest.int) "critical path via model" [ 0; 3; 4 ]
    (Perf_model.critical_path model)

let suites =
  [
    ( "dfg",
      [
        Alcotest.test_case "Figure 2 latency table" `Quick figure2_latency_table;
        Alcotest.test_case "Figure 2 critical path" `Quick figure2_critical_path;
        Alcotest.test_case "edges and children" `Quick edges_and_children;
        Alcotest.test_case "node kinds" `Quick node_count_and_kinds;
        Alcotest.test_case "validate forward source" `Quick validate_catches_forward_source;
        Alcotest.test_case "validate back branch" `Quick validate_catches_bad_back_branch;
        Alcotest.test_case "validate real loop" `Quick validate_accepts_real_loop;
        Alcotest.test_case "guard edges weighted" `Quick guard_edges_weighted;
        Alcotest.test_case "dot and pp" `Quick dot_and_pp;
      ] );
    ( "perf_model",
      [
        Alcotest.test_case "defaults and measurement" `Quick perf_model_defaults_and_measurement;
        Alcotest.test_case "transfer estimates" `Quick perf_model_transfers;
        Alcotest.test_case "latency consistency" `Quick perf_model_latency_consistency;
      ] );
  ]
