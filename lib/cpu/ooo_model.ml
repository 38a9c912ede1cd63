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

(* The decoded program: [stride] ints per code slot, read by [retire]
   instead of matching the instruction. Built once per [create] from the
   run's config, so nothing per instruction re-derives a class, a latency
   or a register. *)
let stride = 8
let f_pool = 0   (* unit pool: the [pool_*] index into [pools] *)
let f_latency = 1
let f_occupancy = 2
let f_src1 = 3   (* readiness slots in [ready] *)
let f_src2 = 4
let f_dst = 5
let f_kind = 6   (* the [kind_*] accounting class *)

let pool_alu = 0
let pool_mul = 1
let pool_div = 2
let pool_fp = 3
let pool_port = 4

let kind_none = 0   (* jumps and system instructions: no class counter *)
let kind_int = 1
let kind_fp = 2
let kind_load = 3
let kind_store = 4
let kind_branch = 5

(* Readiness slots: integer register [r] at [r], FP register [r] at
   [fp_slot + r], and a sink that destination-less instructions (and
   writes to [x0]) write and nothing reads. [x0]'s slot is never written,
   so it stays 0 and serves as the source slot of a missing operand. *)
let fp_slot = Reg.count
let sink = 2 * Reg.count

type t = {
  cfg : config;
  hier : Hierarchy.t;
  predictor : Predictor.t;
  decoded : int array;     (* [stride] fields per code slot *)
  ready : int array;       (* completion cycle of the last writer per slot *)
  pools : int array array; (* next-free cycle per unit, per [pool_*] *)
  commit_ring : int array; (* commit cycles of the last rob_size instrs *)
  mutable seq : int;
  mutable rob_head : int;  (* [seq mod rob_size], kept without a divide *)
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

(* Source readiness slots ({!Isa.reads}) and destination slot
   ({!Isa.writes_int}, {!Isa.writes_fp}) of [instr]. *)
let sources = function
  | Isa.Rtype (_, _, rs1, rs2) | Isa.Branch (_, rs1, rs2, _) -> (rs1, rs2)
  | Isa.Store (_, src, base, _) -> (src, base)
  | Isa.Itype (_, _, rs1, _) | Isa.Load (_, _, rs1, _) | Isa.Jalr (_, rs1, _)
  | Isa.Flw (_, rs1, _) | Isa.Fcvt_s_w (_, rs1) | Isa.Fmv_w_x (_, rs1) ->
    (rs1, 0)
  | Isa.Lui (_, _) | Isa.Auipc (_, _) | Isa.Jal (_, _) | Isa.Ecall | Isa.Ebreak
  | Isa.Fence ->
    (0, 0)
  | Isa.Ftype (Isa.FSQRT, _, fs1, _) | Isa.Fcvt_w_s (_, fs1) | Isa.Fmv_x_w (_, fs1) ->
    (fp_slot + fs1, 0)
  | Isa.Ftype (_, _, fs1, fs2) | Isa.Fcmp (_, _, fs1, fs2) ->
    (fp_slot + fs1, fp_slot + fs2)
  | Isa.Fsw (fsrc, base, _) -> (fp_slot + fsrc, base)

let destination = function
  | Isa.Rtype (_, rd, _, _) | Isa.Itype (_, rd, _, _) | Isa.Load (_, rd, _, _)
  | Isa.Lui (rd, _) | Isa.Auipc (rd, _) | Isa.Jal (rd, _) | Isa.Jalr (rd, _, _)
  | Isa.Fcmp (_, rd, _, _) | Isa.Fcvt_w_s (rd, _) | Isa.Fmv_x_w (rd, _) ->
    if rd <> 0 then rd else sink
  | Isa.Ftype (_, fd, _, _) | Isa.Flw (fd, _, _) | Isa.Fcvt_s_w (fd, _)
  | Isa.Fmv_w_x (fd, _) ->
    fp_slot + fd
  | Isa.Store _ | Isa.Branch _ | Isa.Fsw _ | Isa.Ecall | Isa.Ebreak | Isa.Fence -> sink

let decode cfg code =
  let d = Array.make (stride * Array.length code) 0 in
  Array.iteri
    (fun i instr ->
      let cls = Isa.op_class instr in
      let pool, kind =
        match cls with
        | Isa.C_alu -> (pool_alu, kind_int)
        | Isa.C_branch -> (pool_alu, kind_branch)
        | Isa.C_jump | Isa.C_system -> (pool_alu, kind_none)
        | Isa.C_mul -> (pool_mul, kind_int)
        | Isa.C_div -> (pool_div, kind_int)
        | Isa.C_fadd | Isa.C_fmul | Isa.C_fdiv -> (pool_fp, kind_fp)
        | Isa.C_load -> (pool_port, kind_load)
        | Isa.C_store -> (pool_port, kind_store)
      in
      (* A load's latency is the hierarchy's, read per access; a store
         retires into the store buffer in one cycle. *)
      let latency = if cls = Isa.C_store then 1 else cfg.latencies cls in
      let src1, src2 = sources instr in
      let o = stride * i in
      d.(o + f_pool) <- pool;
      d.(o + f_latency) <- latency;
      d.(o + f_occupancy) <- Latency.occupancy_cpu cls;
      d.(o + f_src1) <- src1;
      d.(o + f_src2) <- src2;
      d.(o + f_dst) <- destination instr;
      d.(o + f_kind) <- kind)
    code;
  d

let create cfg hier prog =
  let pools = Array.make 5 [||] in
  pools.(pool_alu) <- Array.make cfg.alu_units 0;
  pools.(pool_mul) <- Array.make cfg.mul_units 0;
  pools.(pool_div) <- Array.make cfg.div_units 0;
  pools.(pool_fp) <- Array.make cfg.fp_units 0;
  pools.(pool_port) <- Array.make cfg.mem_ports 0;
  {
    cfg;
    hier;
    predictor = Predictor.create ();
    decoded = decode cfg (Program.code prog);
    ready = Array.make (sink + 1) 0;
    pools;
    commit_ring = Array.make cfg.rob_size 0;
    seq = 0;
    rob_head = 0;
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
let[@inline] claim_unit pool ~not_before ~occupancy =
  let best = ref 0 in
  for i = 1 to Array.length pool - 1 do
    if pool.(i) < pool.(!best) then best := i
  done;
  let issue = Int.max not_before pool.(!best) in
  pool.(!best) <- issue + occupancy;
  issue

let[@inline] fetch_time t =
  if t.fetched_this_cycle >= t.cfg.width then begin
    t.fetch_cycle <- t.fetch_cycle + 1;
    t.fetched_this_cycle <- 0
  end;
  t.fetched_this_cycle <- t.fetched_this_cycle + 1;
  t.fetch_cycle

let[@inline] commit_time t ~complete =
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

let retire t slot ~pc ~mem_addr ~taken =
  let cfg = t.cfg and d = t.decoded and o = stride * slot in
  if slot < 0 || o >= Array.length d then
    invalid_arg "Ooo_model.retire: slot outside the program";
  (* With the slot checked, every field read below is inside [d], and the
     decoder writes only readiness slots inside [ready]: no access to
     either needs a bounds check. *)
  let ready =
    Int.max
      (Array.unsafe_get t.ready (Array.unsafe_get d (o + f_src1)))
      (Array.unsafe_get t.ready (Array.unsafe_get d (o + f_src2)))
  in
  (* Structural constraints: fetch slot and ROB space. *)
  let fetched = fetch_time t in
  let rob_slot = t.commit_ring.(t.rob_head) in
  if rob_slot > ready && rob_slot > fetched then t.rob_stalls <- t.rob_stalls + 1;
  let not_before = Int.max (Int.max ready fetched) rob_slot in
  (* Functional unit and latency. *)
  let issue =
    claim_unit
      t.pools.(Array.unsafe_get d (o + f_pool))
      ~not_before
      ~occupancy:(Array.unsafe_get d (o + f_occupancy))
  in
  let kind = Array.unsafe_get d (o + f_kind) in
  let latency =
    if kind = kind_load then begin
      let lat = Hierarchy.load_latency t.hier mem_addr in
      t.load_latency_sum <- t.load_latency_sum + lat;
      lat
    end
    else begin
      (* Stores retire into the store buffer; cache state is updated but
         the latency is off the critical path. *)
      if kind = kind_store then ignore (Hierarchy.store_latency t.hier mem_addr);
      Array.unsafe_get d (o + f_latency)
    end
  in
  let complete = issue + latency in
  (* Destination readiness. *)
  Array.unsafe_set t.ready (Array.unsafe_get d (o + f_dst)) complete;
  (* Class accounting, and branch resolution and misprediction. *)
  if kind = kind_load then t.loads <- t.loads + 1
  else if kind = kind_store then t.stores <- t.stores + 1
  else if kind = kind_int then t.int_ops <- t.int_ops + 1
  else if kind = kind_fp then t.fp_ops <- t.fp_ops + 1
  else if kind = kind_branch then begin
    t.branches <- t.branches + 1;
    let correct = Predictor.predict_and_update t.predictor pc taken in
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
  end;
  (* In-order commit bounds ROB reuse. *)
  let commit = commit_time t ~complete in
  t.commit_ring.(t.rob_head) <- commit;
  t.seq <- t.seq + 1;
  t.rob_head <- (if t.rob_head + 1 = cfg.rob_size then 0 else t.rob_head + 1)

let cycles t = t.last_commit

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
