let check = Alcotest.check

(* Build a region directly from a list of instructions (entry at 0x1000).
   The last instruction must be the backward branch. *)
let region_of instrs ?pragma () =
  let arr = Array.of_list instrs in
  {
    Region.entry = 0x1000;
    back_branch_addr = 0x1000 + (4 * (Array.length arr - 1));
    instrs = arr;
    pragma;
    observed_iterations = 8;
  }

let simple_loop =
  (* lw t1, 0(a0); add t2, t1, t1; sw t2, 0(a1); addi a0, a0, 4;
     addi a1, a1, 4; addi t0, t0, 1; blt t0, a3, loop *)
  [
    Isa.Load (Isa.LW, 6, 10, 0);
    Isa.Rtype (Isa.ADD, 7, 6, 6);
    Isa.Store (Isa.SW, 7, 11, 0);
    Isa.Itype (Isa.ADDI, 10, 10, 4);
    Isa.Itype (Isa.ADDI, 11, 11, 4);
    Isa.Itype (Isa.ADDI, 5, 5, 1);
    Isa.Branch (Isa.BLT, 5, 13, -24);
  ]

let renaming_builds_dependencies () =
  let dfg = Ldfg.build_exn (region_of simple_loop ()) in
  check Alcotest.int "seven nodes" 7 (Dfg.node_count dfg);
  (* add reads the load's output twice. *)
  check Alcotest.bool "add depends on load" true
    (dfg.Dfg.nodes.(1).Dfg.srcs = [| Dfg.Node 0; Dfg.Node 0 |]);
  (* store data comes from the add; its base is a live-in. *)
  check Alcotest.bool "store sources" true
    (dfg.Dfg.nodes.(2).Dfg.srcs = [| Dfg.Node 1; Dfg.Reg_in (11, Dfg.X) |]);
  (* branch reads the incremented induction register. *)
  check Alcotest.bool "branch reads induction" true
    (dfg.Dfg.nodes.(6).Dfg.srcs = [| Dfg.Node 5; Dfg.Reg_in (13, Dfg.X) |])

let live_sets () =
  let dfg = Ldfg.build_exn (region_of simple_loop ()) in
  check (Alcotest.list Alcotest.int) "live-ins" [ 5; 10; 11; 13 ] dfg.Dfg.live_in_x;
  let outs = List.map fst dfg.Dfg.live_out_x |> List.sort compare in
  check (Alcotest.list Alcotest.int) "live-outs" [ 5; 6; 7; 10; 11 ] outs;
  check Alcotest.int "back branch last" 6 dfg.Dfg.back_branch;
  check Alcotest.int "entry" 0x1000 dfg.Dfg.entry_addr;
  check Alcotest.int "exit" (0x1000 + 28) dfg.Dfg.exit_addr

let store_order_chain () =
  let instrs =
    [
      Isa.Store (Isa.SW, 6, 10, 0);
      Isa.Store (Isa.SW, 6, 10, 4);
      Isa.Load (Isa.LW, 7, 10, 0);
      Isa.Itype (Isa.ADDI, 5, 5, 1);
      Isa.Branch (Isa.BLT, 5, 13, -16);
    ]
  in
  let dfg = Ldfg.build_exn (region_of instrs ()) in
  check (Alcotest.option Alcotest.int) "first store unchained" None
    dfg.Dfg.nodes.(0).Dfg.prev_store;
  check (Alcotest.option Alcotest.int) "second store chained" (Some 0)
    dfg.Dfg.nodes.(1).Dfg.prev_store;
  check (Alcotest.option Alcotest.int) "loads not statically chained" None
    dfg.Dfg.nodes.(2).Dfg.prev_store

let forward_branch_guards () =
  (* beq t1, zero, +12 skips the two middle instructions. *)
  let instrs =
    [
      Isa.Branch (Isa.BEQ, 6, 0, 12),  (* node 0: guard opener *)
      false;
      Isa.Itype (Isa.ADDI, 7, 7, 1), true;
      Isa.Itype (Isa.ADDI, 28, 28, 2), true;
      Isa.Itype (Isa.ADDI, 5, 5, 1), false;
      Isa.Branch (Isa.BLT, 5, 13, -16), false;
    ]
  in
  let dfg = Ldfg.build_exn (region_of (List.map fst instrs) ()) in
  List.iteri
    (fun i (_, guarded) ->
      let has_guard = dfg.Dfg.nodes.(i).Dfg.guards <> [] in
      check Alcotest.bool (Printf.sprintf "node %d guard" i) guarded has_guard)
    instrs;
  (* Guarded nodes carry the previous producer as hidden value. *)
  check Alcotest.bool "hidden is live-in" true
    (dfg.Dfg.nodes.(1).Dfg.hidden = Some (Dfg.Reg_in (7, Dfg.X)));
  check Alcotest.bool "guard polarity: disabled when taken" true
    (dfg.Dfg.nodes.(1).Dfg.guards = [ (0, true) ])

let nested_guards () =
  let instrs =
    [
      Isa.Branch (Isa.BEQ, 6, 0, 16);  (* outer: skips nodes 1-3 *)
      Isa.Branch (Isa.BNE, 7, 0, 8);   (* inner: skips node 2 *)
      Isa.Itype (Isa.ADDI, 28, 28, 1);
      Isa.Itype (Isa.ADDI, 29, 29, 1);
      Isa.Itype (Isa.ADDI, 5, 5, 1);
      Isa.Branch (Isa.BLT, 5, 13, -20);
    ]
  in
  let dfg = Ldfg.build_exn (region_of instrs ()) in
  check Alcotest.int "node 2 has two guards" 2 (List.length dfg.Dfg.nodes.(2).Dfg.guards);
  check Alcotest.int "node 3 has one guard" 1 (List.length dfg.Dfg.nodes.(3).Dfg.guards);
  check Alcotest.int "node 4 unguarded" 0 (List.length dfg.Dfg.nodes.(4).Dfg.guards);
  (* The inner branch itself sits under the outer guard. *)
  check Alcotest.bool "inner branch guarded" true (dfg.Dfg.nodes.(1).Dfg.guards = [ (0, true) ])

let rejects_jumps () =
  let instrs = [ Isa.Jal (1, 8); Isa.Branch (Isa.BLT, 5, 13, -4) ] in
  check Alcotest.bool "jal rejected" true (Result.is_error (Ldfg.build (region_of instrs ())))

let x0_reads_are_not_live_ins () =
  let instrs =
    [ Isa.Rtype (Isa.ADD, 6, 0, 0); Isa.Branch (Isa.BNE, 6, 0, -4) ]
  in
  let dfg = Ldfg.build_exn (region_of instrs ()) in
  check (Alcotest.list Alcotest.int) "x0 not live-in" [] dfg.Dfg.live_in_x

let rename_table_basics () =
  let t = Rename_table.create () in
  check Alcotest.bool "initial lookup is live-in" true
    (Rename_table.lookup t Dfg.X 7 = Dfg.Reg_in (7, Dfg.X));
  Rename_table.write t Dfg.X 7 3;
  check Alcotest.bool "renamed to node" true (Rename_table.lookup t Dfg.X 7 = Dfg.Node 3);
  Rename_table.write t Dfg.X 0 5;
  check Alcotest.bool "x0 never renamed" true
    (Rename_table.lookup t Dfg.X 0 = Dfg.Reg_in (0, Dfg.X));
  check (Alcotest.list Alcotest.int) "live-ins tracked" [ 7 ]
    (Rename_table.live_ins t Dfg.X);
  check Alcotest.int "live-outs tracked" 1 (List.length (Rename_table.live_outs t Dfg.X))

let fp_file_separate () =
  let t = Rename_table.create () in
  Rename_table.write t Dfg.X 4 1;
  check Alcotest.bool "fp file untouched" true
    (Rename_table.lookup t Dfg.F 4 = Dfg.Reg_in (4, Dfg.F))

(* Property: every Ldfg built from a generated loop satisfies the DFG
   invariants and has its backward branch last. *)
let ldfg_invariants =
  QCheck2.Test.make ~name:"ldfg invariants on random loops" ~count:200
    ~print:Gen.loop_spec_print Gen.loop_spec (fun spec ->
      let prog, _ = Gen.build_loop spec in
      let code = Program.code prog in
      let n_loop =
        (* everything up to and including the backward branch *)
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
      | Ok dfg ->
        Dfg.validate dfg = Ok ()
        && dfg.Dfg.back_branch = Dfg.node_count dfg - 1
        && List.for_all
             (fun (r, _) -> r <> 0)
             dfg.Dfg.live_out_x)

let suites =
  [
    ( "rename_table",
      [
        Alcotest.test_case "basics" `Quick rename_table_basics;
        Alcotest.test_case "separate files" `Quick fp_file_separate;
      ] );
    ( "ldfg",
      [
        Alcotest.test_case "renaming builds dependencies" `Quick renaming_builds_dependencies;
        Alcotest.test_case "live sets" `Quick live_sets;
        Alcotest.test_case "store order chain" `Quick store_order_chain;
        Alcotest.test_case "forward branch guards" `Quick forward_branch_guards;
        Alcotest.test_case "nested guards" `Quick nested_guards;
        Alcotest.test_case "rejects jumps" `Quick rejects_jumps;
        Alcotest.test_case "x0 not live-in" `Quick x0_reads_are_not_live_ins;
        QCheck_alcotest.to_alcotest ldfg_invariants;
      ] );
  ]
