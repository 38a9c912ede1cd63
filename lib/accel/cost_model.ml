(* The analytical twin of the engine's timing loop: same arrival folds, same
   contention tables, same II rule — but no functional execution, no cache,
   no stats. Guards are assumed enabled and store-to-load aliasing ignored,
   which is exactly the value-independent fragment of the engine semantics;
   the property suite pins where (and by how much) that diverges. *)

type t = {
  cycles : int;
  iter_latency : float;
  ii : float;
  ii_rec : float;
  ii_mem : float;
  ii_fu : float;
  critical : int list;
  simulated : int;
  steady : bool;
}

let default_op_latency (dfg : Dfg.t) j =
  float_of_int (Latency.accel (Isa.op_class dfg.Dfg.nodes.(j).Dfg.instr))

let default_mem_latency =
  float_of_int Hierarchy.default_config.Hierarchy.l1.Cache.hit_latency

let estimate ?op_latency ?mem_latency ?(iterations = 1) ?(extrapolate = true)
    ~(config : Accel_config.t) ~(dfg : Dfg.t) () =
  let n = Dfg.node_count dfg in
  let pl = config.Accel_config.placement in
  let grid = pl.Placement.grid in
  let nodes = dfg.Dfg.nodes in
  let iterations = max 1 iterations in
  let op_latency =
    match op_latency with Some f -> f | None -> default_op_latency dfg
  in
  let mem_latency =
    match mem_latency with Some f -> f | None -> fun _ -> default_mem_latency
  in
  let cls_of = Array.map (fun nd -> Isa.op_class nd.Dfg.instr) nodes in
  let is_mem = Array.map (fun nd -> Isa.is_memory nd.Dfg.instr) nodes in
  let is_load = Array.map (fun nd -> Isa.is_load nd.Dfg.instr) nodes in
  let deps = Dfg.arrival_deps dfg in
  let carried_nodes =
    Dfg.loop_carried dfg
    |> List.filter_map (fun (_, _, src) ->
           match src with Dfg.Node p -> Some p | Dfg.Reg_in _ -> None)
    |> Array.of_list
  in
  let forwarded = Array.make n false in
  List.iter (fun (load, _) -> forwarded.(load) <- true) config.Accel_config.forwarding;
  let vector_member = Array.make n false in
  List.iter
    (function
      | [] -> ()
      | _leader :: members -> List.iter (fun m -> vector_member.(m) <- true) members)
    config.Accel_config.vector_groups;
  let ports_cap = max 1 grid.Grid.mem_ports in
  let ports = Contention.create ~capacity:ports_cap in
  let tiling = max 1 config.Accel_config.tiling in
  let nslices = Interconnect.slices grid in
  let noc : Contention.t option array = Array.make (tiling * nslices) None in
  let noc_slot inst slice =
    let idx = (inst * nslices) + slice in
    match noc.(idx) with
    | Some c -> c
    | None ->
      let c = Contention.create ~capacity:1 in
      noc.(idx) <- Some c;
      c
  in
  let completes = Array.make n 0.0 in
  let crit_dep = Array.make n (-1) in
  let inst_next = Array.make tiling 0.0 in
  (* Fixed-point detection. The system state at a round boundary is exactly
     (a) each instance's relative completion vector and II, and (b) the
     pending contention bookings at cycles at or beyond the time frontier —
     bookings behind the frontier can never be probed again (claims only
     look at cycles >= their ready time >= the frontier). If both repeat,
     shifted by one round, the schedule is provably periodic and the tail
     can be extrapolated. Comparing schedules alone is NOT enough: on an
     exactly port-saturated loop the backlog drifts by a fraction of a
     cycle per round while the relative vectors repeat for many rounds.
     [shadow] mirrors every booking the model makes ((table, cycle) ->
     claims) so the pending set is observable. *)
  let prev_completes = Array.init tiling (fun _ -> Array.make n Float.nan) in
  let prev_lat = Array.make tiling Float.nan in
  let prev_ii = Array.make tiling Float.nan in
  let stable = Array.make tiling false in
  let ran = Array.make tiling 0 in
  let shadow : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* Detection pays a Hashtbl write per claim and a snapshot per round; on
     a loop that never settles (drifting backlog) that cost buys nothing,
     so give up after a bounded number of round boundaries and simulate
     the rest flat out. *)
  let detect = ref extrapolate in
  let boundaries = ref 0 in
  let max_boundaries = 128 in
  (* Snapshots are only taken at boundary pairs (2^k, 2^k + 1): comparing
     any two consecutive equal-state boundaries proves periodicity, and the
     exponential spacing keeps snapshot work logarithmic in the warmup
     length instead of paying a prune + sort at every boundary. *)
  let snap_at b = b > 0 && (b land (b - 1) = 0 || (b - 1) land (b - 2) = 0) in
  let book tid issue =
    if !detect then begin
      let key = (tid, int_of_float issue) in
      Hashtbl.replace shadow key
        (1 + Option.value ~default:0 (Hashtbl.find_opt shadow key))
    end
  in
  let max_pending = 1024 in
  let pending_snapshot frontier =
    (* Prune bookings behind the frontier, then the pending multiset as a
       sorted (table, cycle - frontier, claims) array — or [None] when the
       backlog is too deep to be worth comparing. *)
    let floor_c = int_of_float (Float.ceil frontier) in
    let stale =
      Hashtbl.fold
        (fun ((_, c) as key) _ acc -> if c < floor_c then key :: acc else acc)
        shadow []
    in
    List.iter (Hashtbl.remove shadow) stale;
    if Hashtbl.length shadow > max_pending then None
    else begin
      let xs =
        Hashtbl.fold
          (fun (tid, c) count acc -> (tid, float_of_int c -. frontier, count) :: acc)
          shadow []
      in
      Some (List.sort compare xs)
    end
  in
  let prev_pending = ref None in
  let end_time = ref 0.0 in
  let last_lat = ref 0.0 in
  let last_ii = ref 0.0 in
  let last_rec = ref 0.0 in
  let last_mem = ref 0.0 in
  let last_fu = ref 0.0 in
  let simulated = ref 0 in
  let steady = ref false in
  let k = ref 0 in
  while !k < iterations && not !steady do
    let inst = !k mod tiling in
    if !detect && inst = 0 && !k > 0 then begin
      incr boundaries;
      if !boundaries > max_boundaries then begin
        detect := false;
        Hashtbl.reset shadow
      end
      else if snap_at !boundaries then begin
        (* Round boundary: the frontier is the earliest next initiation —
           no claim in this or any later round can probe behind it. *)
        let frontier = Array.fold_left Float.min inst_next.(0) inst_next in
        let state =
          match pending_snapshot frontier with
          | None -> None
          | Some pending ->
            let phases =
              Array.to_list (Array.map (fun t -> t -. frontier) inst_next)
            in
            Some (phases, pending)
        in
        if
          state <> None
          && snap_at (!boundaries - 1)
          && !prev_pending = state
          && Array.for_all (fun s -> s) stable
          && Array.for_all (fun r -> r >= 2) ran
        then steady := true;
        prev_pending := state
      end
    end;
    if not !steady then begin
    let iter_start = inst_next.(inst) in
    let fu_bound = ref 1.0 in
    let mem_accesses = ref 0 in
    for j = 0 to n - 1 do
      let arrival = ref 0.0 in
      crit_dep.(j) <- -1;
      let ds = deps.(j) in
      for d = 0 to Array.length ds - 1 do
        let i = ds.(d) in
        let base = float_of_int (Placement.transfer pl i j) in
        let lat =
          match Placement.route pl i j with
          | Interconnect.Local -> base
          | Interconnect.Noc ->
            let slice = Interconnect.noc_slice grid (Placement.coord_of pl i) in
            let abs_out = iter_start +. completes.(i) in
            let inject = Contention.claim (noc_slot inst slice) abs_out in
            book (1 + (inst * nslices) + slice) inject;
            base +. (inject -. abs_out)
        in
        if completes.(i) +. lat > !arrival then begin
          arrival := completes.(i) +. lat;
          crit_dep.(j) <- i
        end
      done;
      let oplat =
        if is_mem.(j) then begin
          incr mem_accesses;
          if is_load.(j) && forwarded.(j) then 2.0
          else if is_load.(j) && vector_member.(j) then 1.0
          else begin
            let ready = iter_start +. !arrival in
            let issue = Contention.claim ports ready in
            book 0 issue;
            (issue -. ready) +. mem_latency j
          end
        end
        else op_latency j
      in
      (match cls_of.(j) with
      | Isa.C_div | Isa.C_fdiv -> fu_bound := Float.max !fu_bound oplat
      | _ -> ());
      completes.(j) <- !arrival +. oplat
    done;
    let iter_latency = Array.fold_left Float.max 0.0 completes in
    end_time := Float.max !end_time (iter_start +. iter_latency);
    let ii_rec =
      Array.fold_left (fun acc p -> Float.max acc completes.(p)) 1.0 carried_nodes
    in
    let ii_mem = float_of_int (Stats.div_ceil !mem_accesses ports_cap) in
    let ii =
      if config.Accel_config.pipelined then
        Float.max (Float.max ii_rec ii_mem) !fu_bound
      else iter_latency +. 1.0
    in
    inst_next.(inst) <- iter_start +. ii;
    last_lat := iter_latency;
    last_ii := ii;
    last_rec := (if config.Accel_config.pipelined then ii_rec else ii);
    last_mem := (if config.Accel_config.pipelined then ii_mem else 0.0);
    last_fu := (if config.Accel_config.pipelined then !fu_bound else 0.0);
    (* Fixed-point bookkeeping for this instance. *)
    let same =
      ran.(inst) > 0
      && prev_lat.(inst) = iter_latency
      && prev_ii.(inst) = ii
      &&
      let eq = ref true in
      for j = 0 to n - 1 do
        if prev_completes.(inst).(j) <> completes.(j) then eq := false
      done;
      !eq
    in
    stable.(inst) <- same;
    if not same then Array.blit completes 0 prev_completes.(inst) 0 n;
    prev_lat.(inst) <- iter_latency;
    prev_ii.(inst) <- ii;
    ran.(inst) <- ran.(inst) + 1;
    incr k;
    simulated := !k
    end
  done;
  (* Extrapolate the un-simulated tail: in the periodic regime instance [j]
     initiates its remaining iterations II apart from [inst_next.(j)]. *)
  if !steady then begin
    let w = !simulated in
    for j = 0 to tiling - 1 do
      let k0 = w + ((((j - w) mod tiling) + tiling) mod tiling) in
      if k0 < iterations then begin
        let m = ((iterations - 1 - k0) / tiling) + 1 in
        let last_start = inst_next.(j) +. (float_of_int (m - 1) *. prev_ii.(j)) in
        end_time := Float.max !end_time (last_start +. prev_lat.(j))
      end
    done
  end;
  let critical =
    let best = ref 0 in
    for j = 1 to n - 1 do
      if completes.(j) > completes.(!best) then best := j
    done;
    let rec walk j acc = if j < 0 then acc else walk crit_dep.(j) (j :: acc) in
    walk !best []
  in
  {
    cycles = int_of_float (Float.ceil !end_time);
    iter_latency = !last_lat;
    ii = !last_ii;
    ii_rec = !last_rec;
    ii_mem = !last_mem;
    ii_fu = !last_fu;
    critical;
    simulated = !simulated;
    steady = !steady;
  }

(* ------------------------------------------------------------------ *)
(* Modeled activity counters: what the engine would tally with every guard
   enabled. Transfers count one per arrival-fold dependency visit, exactly
   like the engine's [transfer_in] call sites. *)

let predicted_activity ~(config : Accel_config.t) ~(dfg : Dfg.t) ~iterations
    ~cycles =
  let act = Activity.create () in
  let pl = config.Accel_config.placement in
  let n = Dfg.node_count dfg in
  let deps = Dfg.arrival_deps dfg in
  let forwarded = Array.make n false in
  List.iter (fun (load, _) -> forwarded.(load) <- true) config.Accel_config.forwarding;
  let int_ops = ref 0
  and fp_ops = ref 0
  and mem_ops = ref 0
  and branch_ops = ref 0
  and fwd = ref 0
  and local = ref 0
  and noc = ref 0 in
  for j = 0 to n - 1 do
    (match dfg.Dfg.nodes.(j).Dfg.instr with
    | Isa.Rtype _ | Isa.Itype _ | Isa.Lui _ | Isa.Auipc _ | Isa.Fmv_x_w _
    | Isa.Fmv_w_x _ ->
      incr int_ops
    | Isa.Load _ | Isa.Flw _ | Isa.Store _ | Isa.Fsw _ ->
      incr mem_ops;
      if forwarded.(j) then incr fwd
    | Isa.Branch _ -> incr branch_ops
    | Isa.Ftype _ | Isa.Fcmp _ | Isa.Fcvt_w_s _ | Isa.Fcvt_s_w _ -> incr fp_ops
    | Isa.Jal _ | Isa.Jalr _ | Isa.Ecall | Isa.Ebreak | Isa.Fence -> ());
    Array.iter
      (fun i ->
        match Placement.route pl i j with
        | Interconnect.Local -> incr local
        | Interconnect.Noc -> incr noc)
      deps.(j)
  done;
  let iters = max 0 iterations in
  act.Activity.int_ops <- !int_ops * iters;
  act.Activity.fp_ops <- !fp_ops * iters;
  act.Activity.mem_ops <- !mem_ops * iters;
  act.Activity.branch_ops <- !branch_ops * iters;
  act.Activity.forwarded_loads <- !fwd * iters;
  act.Activity.local_transfers <- !local * iters;
  act.Activity.noc_transfers <- !noc * iters;
  act.Activity.iterations <- iters;
  act.Activity.cycles <- max 0 cycles;
  act

(* ------------------------------------------------------------------ *)
(* Oracles over an engine window's measured snapshot. *)

let hist_mean_of snapshot path =
  match Stats.find_hist snapshot path with
  | Some h when h.Stats.hcount > 0 -> Some (Stats.hist_mean h)
  | Some _ | None -> None

let op_oracle_of_measured snapshot =
  fun j ->
    match hist_mean_of snapshot (Printf.sprintf "node.%d.latency" j) with
    | Some m -> m
    | None -> 1.0

let mem_oracle_of_measured snapshot =
  let queue_mean =
    Option.value ~default:0.0
      (hist_mean_of snapshot "contention.port_queue_delay")
  in
  fun j ->
    match hist_mean_of snapshot (Printf.sprintf "node.%d.amat" j) with
    | Some amat -> Float.max 1.0 (amat -. queue_mean)
    | None -> default_mem_latency
