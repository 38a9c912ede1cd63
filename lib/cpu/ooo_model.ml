type config = {
  width : int;
  rob_size : int;
  mispredict_penalty : int;
  alu_units : int;
  mul_units : int;
  div_units : int;
  fp_units : int;
  mem_ports : int;
  latencies : Latency.table;
}

let default_config =
  {
    width = 4;
    rob_size = 192;
    mispredict_penalty = 12;
    alu_units = 4;
    mul_units = 2;
    div_units = 1;
    fp_units = 2;
    mem_ports = 2;
    latencies = Latency.cpu;
  }

type summary = {
  cycles : int;
  instructions : int;
  mispredicts : int;
  loads : int;
  stores : int;
  int_ops : int;
  fp_ops : int;
  branches : int;
  load_latency_sum : int;
  rob_stalls : int;
  fetch_refills : int;
}

type t = {
  cfg : config;
  hier : Hierarchy.t;
  predictor : Predictor.t;
  int_ready : int array;  (* completion cycle of last writer per int reg *)
  fp_ready : int array;
  alu_free : int array;   (* next-free cycle per unit *)
  mul_free : int array;
  div_free : int array;
  fp_free : int array;
  port_free : int array;
  commit_ring : int array; (* commit cycles of the last rob_size instrs *)
  mutable seq : int;
  mutable fetch_cycle : int;
  mutable fetched_this_cycle : int;
  mutable last_commit : int;
  mutable commit_cycle : int;
  mutable committed_this_cycle : int;
  mutable loads : int;
  mutable stores : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable branches : int;
  mutable load_latency_sum : int;
  mutable rob_stalls : int;
  mutable fetch_refills : int;
}

let create cfg hier =
  let int_ready = Array.make Reg.count 0 and fp_ready = Array.make Reg.count 0 in
  {
    cfg;
    hier;
    predictor = Predictor.create ();
    int_ready;
    fp_ready;
    alu_free = Array.make cfg.alu_units 0;
    mul_free = Array.make cfg.mul_units 0;
    div_free = Array.make cfg.div_units 0;
    fp_free = Array.make cfg.fp_units 0;
    port_free = Array.make cfg.mem_ports 0;
    commit_ring = Array.make cfg.rob_size 0;
    seq = 0;
    fetch_cycle = 0;
    fetched_this_cycle = 0;
    last_commit = 0;
    commit_cycle = 0;
    committed_this_cycle = 0;
    loads = 0;
    stores = 0;
    int_ops = 0;
    fp_ops = 0;
    branches = 0;
    load_latency_sum = 0;
    rob_stalls = 0;
    fetch_refills = 0;
  }

(* Claim the earliest-free unit from a pool; mark it busy until
   [issue + occupancy] and return the earliest cycle the op can issue given
   unit availability. *)
let claim_unit pool ~not_before ~occupancy =
  let best = ref 0 in
  for i = 1 to Array.length pool - 1 do
    if pool.(i) < pool.(!best) then best := i
  done;
  let issue = Int.max not_before pool.(!best) in
  pool.(!best) <- issue + occupancy;
  issue

let fetch_time t =
  if t.fetched_this_cycle >= t.cfg.width then begin
    t.fetch_cycle <- t.fetch_cycle + 1;
    t.fetched_this_cycle <- 0
  end;
  t.fetched_this_cycle <- t.fetched_this_cycle + 1;
  t.fetch_cycle

let commit_time t ~complete =
  let target = Int.max complete t.last_commit in
  if target > t.commit_cycle then begin
    t.commit_cycle <- target;
    t.committed_this_cycle <- 0
  end;
  if t.committed_this_cycle >= t.cfg.width then begin
    t.commit_cycle <- t.commit_cycle + 1;
    t.committed_this_cycle <- 0
  end;
  t.committed_this_cycle <- t.committed_this_cycle + 1;
  t.last_commit <- t.commit_cycle;
  t.commit_cycle

(* Cycle at which [instr]'s source operands ({!Isa.reads}) are ready,
   matched directly: no list, no callback. *)
let operands_ready t instr =
  let x = t.int_ready and f = t.fp_ready in
  match instr with
  | Isa.Rtype (_, _, rs1, rs2) | Isa.Branch (_, rs1, rs2, _) -> Int.max x.(rs1) x.(rs2)
  | Isa.Store (_, src, base, _) -> Int.max x.(src) x.(base)
  | Isa.Itype (_, _, rs1, _) | Isa.Load (_, _, rs1, _) | Isa.Jalr (_, rs1, _)
  | Isa.Flw (_, rs1, _) | Isa.Fcvt_s_w (_, rs1) | Isa.Fmv_w_x (_, rs1) ->
    x.(rs1)
  | Isa.Lui (_, _) | Isa.Auipc (_, _) | Isa.Jal (_, _) | Isa.Ecall | Isa.Ebreak
  | Isa.Fence ->
    0
  | Isa.Ftype (Isa.FSQRT, _, fs1, _) | Isa.Fcvt_w_s (_, fs1) | Isa.Fmv_x_w (_, fs1) ->
    f.(fs1)
  | Isa.Ftype (_, _, fs1, fs2) | Isa.Fcmp (_, _, fs1, fs2) -> Int.max f.(fs1) f.(fs2)
  | Isa.Fsw (fsrc, base, _) -> Int.max f.(fsrc) x.(base)

(* Mark [instr]'s destination register ready at [complete] ([x0] never
   is): {!Isa.writes_int} and {!Isa.writes_fp} without their options. *)
let write_back t instr complete =
  match instr with
  | Isa.Rtype (_, rd, _, _) | Isa.Itype (_, rd, _, _) | Isa.Load (_, rd, _, _)
  | Isa.Lui (rd, _) | Isa.Auipc (rd, _) | Isa.Jal (rd, _) | Isa.Jalr (rd, _, _)
  | Isa.Fcmp (_, rd, _, _) | Isa.Fcvt_w_s (rd, _) | Isa.Fmv_x_w (rd, _) ->
    if rd <> 0 then t.int_ready.(rd) <- complete
  | Isa.Ftype (_, fd, _, _) | Isa.Flw (fd, _, _) | Isa.Fcvt_s_w (fd, _)
  | Isa.Fmv_w_x (fd, _) ->
    t.fp_ready.(fd) <- complete
  | Isa.Store _ | Isa.Branch _ | Isa.Fsw _ | Isa.Ecall | Isa.Ebreak | Isa.Fence -> ()

let feed t (ev : Interp.event) =
  let cfg = t.cfg in
  let cls = Isa.op_class ev.instr in
  (* Operand readiness. *)
  let ready = operands_ready t ev.instr in
  (* Structural constraints: fetch slot and ROB space. *)
  let fetched = fetch_time t in
  let rob_slot = t.commit_ring.(t.seq mod cfg.rob_size) in
  if rob_slot > ready && rob_slot > fetched then t.rob_stalls <- t.rob_stalls + 1;
  let not_before = Int.max (Int.max ready fetched) rob_slot in
  (* Functional unit and latency. *)
  let issue, latency =
    match cls with
    | Isa.C_alu | Isa.C_branch | Isa.C_jump | Isa.C_system ->
      (claim_unit t.alu_free ~not_before ~occupancy:1, cfg.latencies cls)
    | Isa.C_mul -> (claim_unit t.mul_free ~not_before ~occupancy:1, cfg.latencies cls)
    | Isa.C_div ->
      let occ = Latency.occupancy_cpu Isa.C_div in
      (claim_unit t.div_free ~not_before ~occupancy:occ, cfg.latencies cls)
    | Isa.C_fadd | Isa.C_fmul ->
      (claim_unit t.fp_free ~not_before ~occupancy:1, cfg.latencies cls)
    | Isa.C_fdiv ->
      let occ = Latency.occupancy_cpu Isa.C_fdiv in
      (claim_unit t.fp_free ~not_before ~occupancy:occ, cfg.latencies cls)
    | Isa.C_load ->
      let addr = Option.value ev.mem_addr ~default:0 in
      let lat = Hierarchy.load_latency t.hier addr in
      t.load_latency_sum <- t.load_latency_sum + lat;
      (claim_unit t.port_free ~not_before ~occupancy:1, lat)
    | Isa.C_store ->
      let addr = Option.value ev.mem_addr ~default:0 in
      (* Stores retire into the store buffer; cache state is updated but the
         latency is off the critical path. *)
      ignore (Hierarchy.store_latency t.hier addr);
      (claim_unit t.port_free ~not_before ~occupancy:1, 1)
  in
  let complete = issue + latency in
  (* Destination readiness. *)
  write_back t ev.instr complete;
  (* Branch resolution and misprediction. *)
  (match (cls, ev.taken) with
  | Isa.C_branch, Some actual ->
    t.branches <- t.branches + 1;
    let correct = Predictor.predict_and_update t.predictor ev.addr actual in
    (* A zero penalty models predicated execution (no control speculation at
       all); otherwise a wrong prediction refetches after resolution. *)
    if (not correct) && cfg.mispredict_penalty > 0 then begin
      let resume = complete + cfg.mispredict_penalty in
      if resume > t.fetch_cycle then begin
        t.fetch_refills <- t.fetch_refills + 1;
        t.fetch_cycle <- resume;
        t.fetched_this_cycle <- 0
      end
    end
  | _ -> ());
  (* Class accounting. *)
  (match cls with
  | Isa.C_load -> t.loads <- t.loads + 1
  | Isa.C_store -> t.stores <- t.stores + 1
  | Isa.C_fadd | Isa.C_fmul | Isa.C_fdiv -> t.fp_ops <- t.fp_ops + 1
  | Isa.C_alu | Isa.C_mul | Isa.C_div -> t.int_ops <- t.int_ops + 1
  | Isa.C_branch | Isa.C_jump | Isa.C_system -> ());
  (* In-order commit bounds ROB reuse. *)
  let commit = commit_time t ~complete in
  t.commit_ring.(t.seq mod cfg.rob_size) <- commit;
  t.seq <- t.seq + 1

let summary t =
  {
    cycles = t.last_commit;
    instructions = t.seq;
    mispredicts = Predictor.mispredicts t.predictor;
    loads = t.loads;
    stores = t.stores;
    int_ops = t.int_ops;
    fp_ops = t.fp_ops;
    branches = t.branches;
    load_latency_sum = t.load_latency_sum;
    rob_stalls = t.rob_stalls;
    fetch_refills = t.fetch_refills;
  }

let ipc s = if s.cycles = 0 then 0.0 else float_of_int s.instructions /. float_of_int s.cycles

(* Wire the live model into a stats group: probes read the mutable fields
   at snapshot time, so the timing hot path is untouched. *)
let register_stats t grp =
  Stats.int_probe grp "cycles" (fun () -> t.last_commit);
  Stats.int_probe grp "instructions" (fun () -> t.seq);
  Stats.int_probe grp "mispredicts" (fun () -> Predictor.mispredicts t.predictor);
  Stats.int_probe grp "branches" (fun () -> t.branches);
  Stats.int_probe grp "loads" (fun () -> t.loads);
  Stats.int_probe grp "stores" (fun () -> t.stores);
  Stats.int_probe grp "int_ops" (fun () -> t.int_ops);
  Stats.int_probe grp "fp_ops" (fun () -> t.fp_ops);
  Stats.int_probe grp "load_latency_sum" (fun () -> t.load_latency_sum);
  Stats.int_probe grp "rob_stalls" (fun () -> t.rob_stalls);
  Stats.int_probe grp "fetch_refills" (fun () -> t.fetch_refills);
  Stats.derived grp "ipc" (fun () -> ipc (summary t));
  Stats.derived grp "amat" (fun () ->
      if t.loads = 0 then 0.0
      else float_of_int t.load_latency_sum /. float_of_int t.loads)

let register_summary_stats s grp =
  Stats.int_probe grp "cycles" (fun () -> s.cycles);
  Stats.int_probe grp "instructions" (fun () -> s.instructions);
  Stats.int_probe grp "mispredicts" (fun () -> s.mispredicts);
  Stats.int_probe grp "branches" (fun () -> s.branches);
  Stats.int_probe grp "loads" (fun () -> s.loads);
  Stats.int_probe grp "stores" (fun () -> s.stores);
  Stats.int_probe grp "int_ops" (fun () -> s.int_ops);
  Stats.int_probe grp "fp_ops" (fun () -> s.fp_ops);
  Stats.int_probe grp "load_latency_sum" (fun () -> s.load_latency_sum);
  Stats.int_probe grp "rob_stalls" (fun () -> s.rob_stalls);
  Stats.int_probe grp "fetch_refills" (fun () -> s.fetch_refills);
  Stats.derived grp "ipc" (fun () -> ipc s)
