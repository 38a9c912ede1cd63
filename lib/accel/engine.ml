(* The event-driven engine core.

   The legacy engine (the test-only [Engine_reference] oracle) re-derives
   everything on every fabric iteration: it re-walks each node's dependence
   list through the placement tables, re-folds arrival times from scratch,
   scans the iteration's store list linearly on every access, and allocates
   closures and pairs along the way. This implementation compiles the loop
   once and then advances an event clock:

   - the firing schedule is static — nodes are topologically indexed and a
     node's wake condition is "all compiled in-edges done", so the wake list
     is the node order itself and per-iteration work is driven entirely by
     precompiled edge records (source, transfer latency, router slice,
     cached histogram) instead of placement lookups;
   - time advances in batched jumps: per-instance initiation clocks
     ([inst_next]) jump by a whole II per iteration, and the contention
     tables skip runs of full cycles via union-find pointers
     ({!Contention.claim_issue}) rather than stepping cycle by cycle;
   - steady-state arrival folds are memoized: a node whose guard status is
     unchanged and whose producers' completion times did not move this
     iteration replays its cached arrival instead of re-folding (memory and
     NoC-fed nodes never replay — cache state and router claims are side
     effects the replay must not skip);
   - store-to-load disambiguation uses a word-indexed, generation-stamped
     table reused across iterations instead of a per-iteration list scan.

   Every observation hook fires exactly as in the reference engine — same
   Stats observes with the same values in the same order, same Activity
   counts, same Attribution charges, same fault strikes — so cycle counts,
   memory checksums and profiler bucket sums are bit-identical to
   [Engine_reference.execute]. The differential qcheck harness enforces
   this. *)

type detection = Engine_core.detection = {
  d_kinds : Fault.kind list;
  d_latency : int;
  d_watchdog : bool;
}

type result = Engine_core.result = {
  cycles : int;
  iterations : int;
  completed : bool;
  budget_exhausted : bool;
  fault : detection option;
  exit_pc : int;
  activity : Activity.t;
  measured : Stats.snapshot;
}

exception Exec_fail = Engine_core.Exec_fail

let u32 = Engine_core.u32
let s32 = Engine_core.s32

(* Fibonacci multiplicative hash for the store-disambiguation table. *)
let[@inline] word_hash w mask = (w * 0x2545F4914F6CDD1D) land max_int land mask

let execute_event ?(max_iterations = 4_000_000) ?stop_after ?fault
    ?(watchdog_window = 512) ?attribution ~(config : Accel_config.t)
    ~(dfg : Dfg.t) ~(machine : Machine.t) ~(hier : Hierarchy.t) () =
  match Placement.validate dfg config.placement with
  | Error e -> Error ("invalid placement: " ^ e)
  | Ok () -> (
    let n = Dfg.node_count dfg in
    let pl = config.placement in
    let grid = pl.Placement.grid in
    let nodes = dfg.Dfg.nodes in
    let mem = machine.Machine.mem in
    (* ------------------------------------------------------------------
       Compilation: static per-node tables, built once per execution. *)
    let cls_of = Array.map (fun nd -> Isa.op_class nd.Dfg.instr) nodes in
    let cls_lat = Array.map (fun cls -> float_of_int (Latency.accel cls)) cls_of in
    let guards_of = Array.map (fun nd -> Array.of_list nd.Dfg.guards) nodes in
    let is_mem =
      Array.map
        (fun nd ->
          match nd.Dfg.instr with
          | Isa.Load _ | Isa.Flw _ | Isa.Store _ | Isa.Fsw _ -> true
          | _ -> false)
        nodes
    in
    (* Compiled in-edges, in exactly the order the reference engine's
       arrival fold visits them: operand sources, hidden value, guards,
       memory-order link. Each edge carries its source node, the static
       transfer latency, and its router slice (-1 = PE-local). *)
    let deps_of = Dfg.arrival_deps dfg in
    let ebase =
      Array.mapi
        (fun j deps ->
          Array.map (fun i -> float_of_int (Placement.transfer pl i j)) deps)
        deps_of
    in
    let eslice =
      Array.mapi
        (fun j deps ->
          Array.map
            (fun i ->
              match Placement.route pl i j with
              | Interconnect.Local -> -1
              | Interconnect.Noc ->
                Interconnect.noc_slice grid (Placement.coord_of pl i))
            deps)
        deps_of
    in
    let has_noc =
      Array.map (fun slices -> Array.exists (fun s -> s >= 0) slices) eslice
    in
    (* Lazily-created edge histograms, cached per compiled edge. Creation
       still goes through the shared find-or-create path so first-use
       registration order (and thus snapshot ordering) matches the
       reference engine exactly, including dynamic alias edges. *)
    let ehist = Array.map (fun deps -> Array.make (Array.length deps) None) deps_of in
    (* Cycle attribution: pure observation — charging never feeds back into
       timing, so a profiled run is bit-identical to an unprofiled one. *)
    let prof = Option.is_some attribution in
    let lane_of =
      match attribution with
      | None -> [||]
      | Some a ->
        Array.init n (fun i ->
            match Placement.loc_of pl i with
            | Placement.Pe c -> Attribution.pe_lane a c
            | Placement.Ls e -> Attribution.ls_lane a e)
    in
    let live_out_x = Array.of_list dfg.Dfg.live_out_x in
    let live_out_f = Array.of_list dfg.Dfg.live_out_f in
    let carried_nodes =
      Dfg.loop_carried dfg
      |> List.filter_map (fun (_, _, src) ->
             match src with Dfg.Node p -> Some p | Dfg.Reg_in _ -> None)
      |> Array.of_list
    in
    let forwarded = Array.make n false in
    List.iter (fun (load, _) -> forwarded.(load) <- true) config.forwarding;
    let vector_member = Array.make n false in
    List.iter
      (function
        | [] -> ()
        | _leader :: members -> List.iter (fun m -> vector_member.(m) <- true) members)
      config.vector_groups;
    let prefetched = Array.make n false in
    List.iter (fun l -> prefetched.(l) <- true) config.prefetched;
    let vx = Array.make n 0 in
    let vf = Array.make n 0.0 in
    let in_x = Array.init Reg.count (Machine.get_x machine) in
    let in_f = Array.init Reg.count (Machine.get_f machine) in
    let pe_coord =
      Array.init n (fun i ->
          match Placement.loc_of pl i with
          | Placement.Pe c -> Some c
          | Placement.Ls _ -> None)
    in
    (match fault with
    | Some f ->
      Fault.begin_window f
        ~used:(List.filter_map Fun.id (Array.to_list pe_coord))
    | None -> ());
    let effective_ports =
      let lost = match fault with Some f -> Fault.ports_lost f | None -> 0 in
      max 1 (grid.Grid.mem_ports - lost)
    in
    (* Timing state. [completes] doubles as the arrival-fold memo: a node
       replays when no producer's entry moved this iteration. *)
    let completes = Array.make n 0.0 in
    let changed = Array.make n false in
    let arr_cache = Array.make n 0.0 in
    let dis_prev = Array.make n false in
    let acquired = ref [] in
    let acquire ~capacity =
      let c =
        match Engine_core.scratch_take () with
        | Some c ->
          Contention.reset ~capacity c;
          c
        | None -> Contention.create ~capacity
      in
      acquired := c :: !acquired;
      c
    in
    let ports = acquire ~capacity:effective_ports in
    let tiling = max 1 config.tiling in
    let nslices = Interconnect.slices grid in
    let noc : Contention.t option array = Array.make (tiling * nslices) None in
    let noc_slot inst slice =
      let idx = (inst * nslices) + slice in
      match noc.(idx) with
      | Some c -> c
      | None ->
        let c = acquire ~capacity:1 in
        noc.(idx) <- Some c;
        c
    in
    let inst_next = Array.make tiling 0.0 in
    (* Word-indexed store-to-load disambiguation table (replaces the
       reference engine's per-iteration association list). Generation
       stamps make clearing an O(1) counter bump; slots only fill within a
       generation, so linear probing needs no tombstones. Newest store to a
       word wins, as in the list's newest-first scan. *)
    let st_size =
      let stores =
        Array.fold_left
          (fun acc nd -> if Isa.is_store nd.Dfg.instr then acc + 1 else acc)
          0 nodes
      in
      let rec pow2 s = if s >= max 8 (4 * stores) then s else pow2 (s * 2) in
      pow2 8
    in
    let st_mask = st_size - 1 in
    let st_gen = Array.make st_size 0 in
    let st_word = Array.make st_size 0 in
    let st_node = Array.make st_size 0 in
    let cur_gen = ref 0 in
    let store_record j addr =
      let w = addr lsr 2 in
      let i = ref (word_hash w st_mask) in
      while st_gen.(!i) = !cur_gen && st_word.(!i) <> w do
        i := (!i + 1) land st_mask
      done;
      st_gen.(!i) <- !cur_gen;
      st_word.(!i) <- w;
      st_node.(!i) <- j
    in
    (* Index of the newest same-word store this iteration, or -1. *)
    let store_lookup addr =
      let w = addr lsr 2 in
      let i = ref (word_hash w st_mask) in
      while st_gen.(!i) = !cur_gen && st_word.(!i) <> w do
        i := (!i + 1) land st_mask
      done;
      if st_gen.(!i) = !cur_gen then st_node.(!i) else -1
    in
    (* Measurements: creation order below matches the reference engine
       statement for statement — registry order is snapshot order and the
       golden JSONs pin it. *)
    let reg = Stats.registry () in
    let node_grp = Stats.group reg "node" in
    let node_subgrps = Array.init n (fun i -> Stats.subgroup node_grp (string_of_int i)) in
    let node_lat = Array.map (fun g -> Stats.histogram g "latency") node_subgrps in
    let amat = Array.map (fun g -> Stats.histogram g "amat") node_subgrps in
    let edge_grp = Stats.group reg "edge" in
    let edge_subgrps : (int, Stats.group) Hashtbl.t = Hashtbl.create 16 in
    let edge_lat : (int * int, Stats.histogram) Hashtbl.t = Hashtbl.create 64 in
    let contention_grp = Stats.group reg "contention" in
    let noc_queue = Stats.histogram contention_grp "noc_queue_delay" in
    let port_queue = Stats.histogram contention_grp "port_queue_delay" in
    let ii_achieved = Stats.histogram (Stats.group reg "ii") "achieved" in
    let act = Activity.create () in
    let val_i = function
      | Dfg.Node i -> vx.(i)
      | Dfg.Reg_in (r, Dfg.X) -> in_x.(r)
      | Dfg.Reg_in (r, Dfg.F) ->
        raise (Exec_fail (Printf.sprintf "int read of FP live-in f%d" r))
    in
    let val_f = function
      | Dfg.Node i -> vf.(i)
      | Dfg.Reg_in (r, Dfg.F) -> in_f.(r)
      | Dfg.Reg_in (r, Dfg.X) ->
        raise (Exec_fail (Printf.sprintf "FP read of int live-in %s" (Reg.name r)))
    in
    (* Find-or-create an edge histogram; shared by compiled edges (which
       then cache the result) and dynamic alias edges. *)
    let edge_hist i j =
      match Hashtbl.find_opt edge_lat (i, j) with
      | Some h -> h
      | None ->
        let sub =
          match Hashtbl.find_opt edge_subgrps i with
          | Some g -> g
          | None ->
            let g = Stats.subgroup edge_grp (string_of_int i) in
            Hashtbl.add edge_subgrps i g;
            g
        in
        let h = Stats.histogram sub (string_of_int j) in
        Hashtbl.add edge_lat (i, j) h;
        h
    in
    (* Per-iteration cursor state, hoisted so the hot closures below are
       built once per execution rather than once per node firing. *)
    let cur_inst = ref 0 in
    let cur_start = ref 0.0 in
    let arrival = ref 0.0 in
    let arr_nonoc = ref 0.0 in
    let mem_accesses = ref 0 in
    let fu_bound = ref 1.0 in
    (* Dynamic (alias) dependence: a load waiting on a same-word store
       discovered this iteration. Rare — takes the uncompiled path through
       the placement tables, exactly like the reference engine's [dep]. *)
    let dep_dyn i j =
      let base = float_of_int (Placement.transfer pl i j) in
      match Placement.route pl i j with
      | Interconnect.Local ->
        act.Activity.local_transfers <- act.Activity.local_transfers + 1;
        Stats.observe (edge_hist i j) base;
        arrival := Float.max !arrival (completes.(i) +. base);
        if prof then arr_nonoc := Float.max !arr_nonoc (completes.(i) +. base)
      | Interconnect.Noc ->
        let slice = Interconnect.noc_slice grid (Placement.coord_of pl i) in
        let abs_out = !cur_start +. completes.(i) in
        let inject = Contention.claim (noc_slot !cur_inst slice) abs_out in
        act.Activity.noc_transfers <- act.Activity.noc_transfers + 1;
        Stats.observe noc_queue (inject -. abs_out);
        let lat = base +. (inject -. abs_out) in
        Stats.observe (edge_hist i j) lat;
        arrival := Float.max !arrival (completes.(i) +. lat);
        if prof then arr_nonoc := Float.max !arr_nonoc (completes.(i) +. base)
    in
    let claim_port abs_ready =
      let issue = Contention.claim_issue ports abs_ready in
      let delay = issue -. abs_ready in
      Stats.observe port_queue delay;
      delay
    in
    let corrupt_latch j ~value ~stuck =
      let nd = nodes.(j) in
      if cls_of.(j) = Isa.C_branch then begin
        let old = vx.(j) in
        vx.(j) <- (if stuck then 1 else if old <> 0 then 0 else 1);
        vx.(j) <> old
      end
      else if Isa.writes_int nd.Dfg.instr <> None then begin
        let old = vx.(j) in
        vx.(j) <- s32 (if stuck then value else old lxor value);
        vx.(j) <> old
      end
      else if Isa.writes_fp nd.Dfg.instr <> None then begin
        let old = vf.(j) in
        let bits = Interp.Alu.fmv_x_w old in
        vf.(j) <- Interp.Alu.fmv_w_x (if stuck then value else bits lxor value);
        vf.(j) <> old
      end
      else false
    in
    let run () =
      let iterations = ref 0 in
      let end_time = ref 0.0 in
      let exit_reached = ref false in
      let paused = ref false in
      let budget_hit = ref false in
      let watchdog_fired = ref false in
      let first_corrupt = ref None in
      let corrupt_iters = ref 0 in
      while not !exit_reached do
        let inst = !iterations mod tiling in
        let iter_start = inst_next.(inst) in
        cur_inst := inst;
        cur_start := iter_start;
        incr cur_gen;
        let strikes =
          match fault with None -> [] | Some f -> (Fault.tick f).Fault.strikes
        in
        let first = !iterations = 0 in
        fu_bound := 1.0;
        mem_accesses := 0;
        for j = 0 to n - 1 do
          let nd = nodes.(j) in
          let cls = cls_of.(j) in
          (* Guard evaluation: a branch node's value is 1 when taken. *)
          let gs = guards_of.(j) in
          let ng = Array.length gs in
          let disabled =
            if ng = 0 then false
            else begin
              let d = ref false in
              let k = ref 0 in
              while (not !d) && !k < ng do
                let b, dis = gs.(!k) in
                if (vx.(b) <> 0) = dis then d := true;
                incr k
              done;
              !d
            end
          in
          let deps = deps_of.(j) in
          let ndeps = Array.length deps in
          let bases = ebase.(j) in
          let hists = ehist.(j) in
          (* Replay decision: the arrival fold is pure arithmetic over the
             producers' completion times and static transfer latencies, so
             it can be replayed from [arr_cache] when none of them moved.
             Memory nodes (stateful hierarchy + port claims), NoC-fed nodes
             (router-slice claims) and guard flips always recompute. *)
          let dirty =
            first || is_mem.(j) || has_noc.(j) || disabled <> dis_prev.(j)
            ||
            let d = ref false in
            let k = ref 0 in
            while (not !d) && !k < ndeps do
              if changed.(deps.(!k)) then d := true;
              incr k
            done;
            !d
          in
          if dirty then begin
            (* Arrival of inputs (Equation 2, with contention). [arr_nonoc]
               shadows the fold with NoC queueing deducted — the profiler's
               NoC-stall share of the arrival gap. *)
            arrival := 0.0;
            arr_nonoc := 0.0;
            let slices = eslice.(j) in
            for d = 0 to ndeps - 1 do
              let i = deps.(d) in
              let base = bases.(d) in
              let slice = slices.(d) in
              let lat =
                if slice < 0 then begin
                  act.Activity.local_transfers <- act.Activity.local_transfers + 1;
                  if prof then
                    arr_nonoc := Float.max !arr_nonoc (completes.(i) +. base);
                  base
                end
                else begin
                  let abs_out = iter_start +. completes.(i) in
                  let inject = Contention.claim (noc_slot inst slice) abs_out in
                  act.Activity.noc_transfers <- act.Activity.noc_transfers + 1;
                  Stats.observe noc_queue (inject -. abs_out);
                  if prof then
                    arr_nonoc := Float.max !arr_nonoc (completes.(i) +. base);
                  base +. (inject -. abs_out)
                end
              in
              (match hists.(d) with
              | Some h -> Stats.observe h lat
              | None ->
                let h = edge_hist i j in
                hists.(d) <- Some h;
                Stats.observe h lat);
              arrival := Float.max !arrival (completes.(i) +. lat)
            done
          end
          else begin
            (* Replay: same edge observations (all PE-local, static
               latency), memoized fold result. *)
            act.Activity.local_transfers <- act.Activity.local_transfers + ndeps;
            for d = 0 to ndeps - 1 do
              match hists.(d) with
              | Some h -> Stats.observe h bases.(d)
              | None ->
                let h = edge_hist deps.(d) j in
                hists.(d) <- Some h;
                Stats.observe h bases.(d)
            done;
            arrival := arr_cache.(j);
            if prof then arr_nonoc := !arrival
          end;
          (* Functional execution + operation latency. *)
          let oplat = ref 1.0 in
          let pq = ref 0.0 in
          if disabled then begin
            act.Activity.disabled_ops <- act.Activity.disabled_ops + 1;
            (match (Isa.writes_int nd.Dfg.instr, nd.Dfg.hidden) with
            | Some _, Some h -> vx.(j) <- val_i h
            | Some _, None -> vx.(j) <- 0
            | None, _ -> ());
            (match (Isa.writes_fp nd.Dfg.instr, nd.Dfg.hidden) with
            | Some _, Some h -> vf.(j) <- val_f h
            | Some _, None -> vf.(j) <- 0.0
            | None, _ -> ());
            if cls = Isa.C_branch then vx.(j) <- 0
          end
          else begin
            let mem_access ~load ~addr =
              incr mem_accesses;
              act.Activity.mem_ops <- act.Activity.mem_ops + 1;
              (* Dynamic disambiguation: an aliasing earlier store forwards
                 through the LSU broadcast; wait for it. *)
              if load then begin
                let s = store_lookup addr in
                if s >= 0 then dep_dyn s j
              end;
              if load && forwarded.(j) then begin
                act.Activity.forwarded_loads <- act.Activity.forwarded_loads + 1;
                oplat := 2.0
              end
              else if load && vector_member.(j) then oplat := 1.0
              else begin
                let queue = claim_port (iter_start +. !arrival) in
                let cache =
                  if load then Hierarchy.load_latency hier addr
                  else Hierarchy.store_latency hier addr
                in
                let lat =
                  if load && prefetched.(j) then
                    (* Issued an iteration ahead: only the hit path shows. *)
                    queue +. float_of_int (Hierarchy.min_latency hier)
                  else queue +. float_of_int cache
                in
                Stats.observe amat.(j) lat;
                oplat := lat;
                pq := queue;
                match attribution with
                | Some a ->
                  Attribution.note_port_access a ~port:(Contention.last_slot ports)
                    ~issue:(iter_start +. !arrival +. queue)
                    ~service:(lat -. queue)
                | None -> ()
              end
            in
            match nd.Dfg.instr with
            | Isa.Rtype (op, _, _, _) ->
              act.Activity.int_ops <- act.Activity.int_ops + 1;
              vx.(j) <- Interp.Alu.rtype op (val_i nd.Dfg.srcs.(0)) (val_i nd.Dfg.srcs.(1));
              oplat := cls_lat.(j)
            | Isa.Itype (op, _, _, imm) ->
              act.Activity.int_ops <- act.Activity.int_ops + 1;
              vx.(j) <- Interp.Alu.itype op (val_i nd.Dfg.srcs.(0)) imm;
              oplat := cls_lat.(j)
            | Isa.Lui (_, imm) ->
              act.Activity.int_ops <- act.Activity.int_ops + 1;
              vx.(j) <- s32 imm;
              oplat := cls_lat.(j)
            | Isa.Auipc (_, imm) ->
              act.Activity.int_ops <- act.Activity.int_ops + 1;
              vx.(j) <- s32 (nd.Dfg.addr + imm);
              oplat := cls_lat.(j)
            | Isa.Load (op, _, _, off) ->
              let addr = u32 (val_i nd.Dfg.srcs.(0) + off) in
              vx.(j) <-
                (match op with
                | LB -> Main_memory.load_byte mem addr
                | LBU -> Main_memory.load_byte_u mem addr
                | LH -> Main_memory.load_half mem addr
                | LHU -> Main_memory.load_half_u mem addr
                | LW -> Main_memory.load_word mem addr);
              mem_access ~load:true ~addr
            | Isa.Flw (_, _, off) ->
              let addr = u32 (val_i nd.Dfg.srcs.(0) + off) in
              vf.(j) <- Main_memory.load_float32 mem addr;
              mem_access ~load:true ~addr
            | Isa.Store (op, _, _, off) ->
              let addr = u32 (val_i nd.Dfg.srcs.(1) + off) in
              let v = val_i nd.Dfg.srcs.(0) in
              (match op with
              | SB -> Main_memory.store_byte mem addr v
              | SH -> Main_memory.store_half mem addr v
              | SW -> Main_memory.store_word mem addr v);
              store_record j addr;
              mem_access ~load:false ~addr
            | Isa.Fsw (_, _, off) ->
              let addr = u32 (val_i nd.Dfg.srcs.(1) + off) in
              Main_memory.store_float32 mem addr (val_f nd.Dfg.srcs.(0));
              store_record j addr;
              mem_access ~load:false ~addr
            | Isa.Branch (op, _, _, _) ->
              act.Activity.branch_ops <- act.Activity.branch_ops + 1;
              let taken =
                Interp.Alu.branch_taken op (val_i nd.Dfg.srcs.(0)) (val_i nd.Dfg.srcs.(1))
              in
              vx.(j) <- (if taken then 1 else 0);
              oplat := cls_lat.(j)
            | Isa.Ftype (op, _, _, _) ->
              act.Activity.fp_ops <- act.Activity.fp_ops + 1;
              let a = val_f nd.Dfg.srcs.(0) in
              let b = if Array.length nd.Dfg.srcs > 1 then val_f nd.Dfg.srcs.(1) else 0.0 in
              vf.(j) <- Interp.Alu.ftype op a b;
              oplat := cls_lat.(j)
            | Isa.Fcmp (op, _, _, _) ->
              act.Activity.fp_ops <- act.Activity.fp_ops + 1;
              vx.(j) <- Interp.Alu.fcmp op (val_f nd.Dfg.srcs.(0)) (val_f nd.Dfg.srcs.(1));
              oplat := cls_lat.(j)
            | Isa.Fcvt_w_s (_, _) ->
              act.Activity.fp_ops <- act.Activity.fp_ops + 1;
              vx.(j) <- Interp.Alu.fcvt_w_s (val_f nd.Dfg.srcs.(0));
              oplat := cls_lat.(j)
            | Isa.Fcvt_s_w (_, _) ->
              act.Activity.fp_ops <- act.Activity.fp_ops + 1;
              vf.(j) <- Interp.Alu.fcvt_s_w (val_i nd.Dfg.srcs.(0));
              oplat := cls_lat.(j)
            | Isa.Fmv_x_w (_, _) ->
              act.Activity.int_ops <- act.Activity.int_ops + 1;
              vx.(j) <- Interp.Alu.fmv_x_w (val_f nd.Dfg.srcs.(0));
              oplat := cls_lat.(j)
            | Isa.Fmv_w_x (_, _) ->
              act.Activity.int_ops <- act.Activity.int_ops + 1;
              vf.(j) <- Interp.Alu.fmv_w_x (val_i nd.Dfg.srcs.(0));
              oplat := cls_lat.(j)
            | Isa.Jal _ | Isa.Jalr _ | Isa.Ecall | Isa.Ebreak | Isa.Fence ->
              raise
                (Exec_fail
                   (Printf.sprintf "node %d (%s) not executable on the fabric" j
                      (Format.asprintf "%a" Isa.pp nd.Dfg.instr)))
          end;
          Stats.observe node_lat.(j) !oplat;
          (match cls with
          | Isa.C_div | Isa.C_fdiv -> fu_bound := Float.max !fu_bound !oplat
          | _ -> ());
          let comp = !arrival +. !oplat in
          changed.(j) <- comp <> completes.(j);
          completes.(j) <- comp;
          arr_cache.(j) <- !arrival;
          dis_prev.(j) <- disabled;
          (match attribution with
          | Some a ->
            Attribution.charge_op a ~lane:lane_of.(j)
              ~start:(iter_start +. !arrival)
              ~noc_wait:(!arrival -. !arr_nonoc)
              ~port_wait:!pq
              ~service:(!oplat -. !pq)
              ~long_op:(match cls with Isa.C_div | Isa.C_fdiv -> true | _ -> false)
          | None -> ());
          (* Fault application: the latch corrupts after the node fires, so
             same-iteration consumers already see the bad value. *)
          (match (fault, pe_coord.(j)) with
          | Some f, Some c ->
            let applied =
              match List.find_opt (fun (d, _, _) -> d = c) (Fault.dead f) with
              | Some (_, k, v) ->
                if corrupt_latch j ~value:v ~stuck:true then Some k else None
              | None -> (
                match List.find_opt (fun s -> s.Fault.s_coord = c) strikes with
                | Some s ->
                  if corrupt_latch j ~value:s.Fault.s_value ~stuck:false then
                    Some Fault.Transient_pe
                  else None
                | None -> None)
            in
            (match applied with
            | Some k ->
              Fault.note_corruption f k;
              if !first_corrupt = None then first_corrupt := Some iter_start
            | None -> ())
          | _ -> ())
        done;
        let iter_latency = Array.fold_left Float.max 0.0 completes in
        incr iterations;
        act.Activity.iterations <- act.Activity.iterations + 1;
        end_time := Float.max !end_time (iter_start +. iter_latency);
        let continue_loop = vx.(dfg.Dfg.back_branch) <> 0 in
        (* Next iteration's live-ins are this iteration's live-outs. *)
        for k = 0 to Array.length live_out_x - 1 do
          let r, src = live_out_x.(k) in
          if r <> 0 then in_x.(r) <- val_i src
        done;
        for k = 0 to Array.length live_out_f - 1 do
          let r, src = live_out_f.(k) in
          in_f.(r) <- val_f src
        done;
        (* Initiation of this instance's next iteration: the event clock
           jumps a whole II at once. *)
        (if config.pipelined then begin
           let ii_rec = ref 1.0 in
           for k = 0 to Array.length carried_nodes - 1 do
             ii_rec := Float.max !ii_rec completes.(carried_nodes.(k))
           done;
           let ii_mem =
             float_of_int (Stats.div_ceil !mem_accesses effective_ports)
           in
           let ii = Float.max (Float.max !ii_rec ii_mem) !fu_bound in
           Stats.observe ii_achieved ii;
           (match attribution with
           | Some a ->
             Attribution.observe_ii a ~rec_:!ii_rec ~mem:ii_mem ~fu:!fu_bound
               ~achieved:ii
           | None -> ());
           inst_next.(inst) <- iter_start +. ii
         end
         else begin
           Stats.observe ii_achieved (iter_latency +. 1.0);
           (match attribution with
           | Some a ->
             (* Non-pipelined: the full iteration latency is the recurrence. *)
             Attribution.observe_ii a ~rec_:(iter_latency +. 1.0) ~mem:0.0
               ~fu:0.0 ~achieved:(iter_latency +. 1.0)
           | None -> ());
           inst_next.(inst) <- iter_start +. iter_latency +. 1.0
         end);
        if not continue_loop then exit_reached := true
        else begin
          (* Watchdog: a corrupted window that keeps spinning is cut off
             after [watchdog_window] further iterations — the forward-
             progress bound a damaged back branch would otherwise defeat. *)
          (match fault with
          | Some f when Fault.window_corrupted f ->
            incr corrupt_iters;
            if !corrupt_iters >= watchdog_window then begin
              watchdog_fired := true;
              paused := true
            end
          | Some _ | None -> ());
          (match stop_after with
          | Some k when !iterations >= k -> paused := true
          | Some _ | None -> ());
          if !iterations >= max_iterations then begin
            budget_hit := true;
            paused := true
          end;
          if !paused then exit_reached := true
        end
      done;
      (* Architectural writeback: loop live-outs, and either the exit PC or
         (when pausing mid-loop) the entry PC so execution can resume. *)
      Array.iter (fun (r, src) -> Machine.set_x machine r (val_i src)) live_out_x;
      Array.iter (fun (r, src) -> Machine.set_f machine r (val_f src)) live_out_f;
      machine.Machine.pc <- (if !paused then dfg.Dfg.entry_addr else dfg.Dfg.exit_addr);
      act.Activity.cycles <- int_of_float (Float.ceil !end_time);
      (* Window-end profiler readouts: per-slice NoC contention (tiled
         instances fold onto their physical slice), shared-port totals, and
         the closing charge of every lane's uncovered tail. *)
      (match attribution with
      | Some a ->
        Array.iteri
          (fun idx c ->
            match c with
            | Some c ->
              Attribution.note_noc_slice a ~slice:(idx mod nslices)
                ~claims:(Contention.claimed c) ~busy:(Contention.busy_cycles c)
            | None -> ())
          noc;
        Attribution.note_port_totals a ~claims:(Contention.claimed ports)
          ~busy:(Contention.busy_cycles ports);
        Attribution.end_window a ~grid ~cycles:act.Activity.cycles
          ~iterations:!iterations
      | None -> ());
      let detection =
        match fault with
        | Some f when Fault.window_corrupted f ->
          let fc = Option.value !first_corrupt ~default:!end_time in
          Some
            {
              d_kinds = Fault.window_kinds f;
              d_latency = max 0 (int_of_float (Float.ceil (!end_time -. fc)));
              d_watchdog = !watchdog_fired;
            }
        | Some _ | None -> None
      in
      {
        cycles = act.Activity.cycles;
        iterations = !iterations;
        completed = not !paused;
        budget_exhausted = !budget_hit;
        fault = detection;
        exit_pc = machine.Machine.pc;
        activity = act;
        measured = Stats.snapshot reg;
      }
    in
    Fun.protect
      ~finally:(fun () -> Engine_core.scratch_park !acquired)
      (fun () -> try Ok (run ()) with Exec_fail msg -> Error msg))

let execute ?max_iterations ?stop_after ?fault ?watchdog_window ?attribution
    ~config ~dfg ~machine ~hier () =
  let r =
    execute_event ?max_iterations ?stop_after ?fault ?watchdog_window
      ?attribution ~config ~dfg ~machine ~hier ()
  in
  (match r with Ok res -> Sim_meter.add res.cycles | Error _ -> ());
  r
