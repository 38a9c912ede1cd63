(* The legacy engine: every DFG node re-evaluated on every fabric
   iteration, arrival folds recomputed from scratch each time. Kept verbatim
   as the differential oracle for the event-driven engine in [Engine]: the
   qcheck harness in the test suite runs both implementations and asserts
   bit-identical cycles, memory, registers, stats and attribution sums. It
   returns [Engine]'s own result records. Not used on any production path;
   prefer [Engine.execute]. *)

open Engine

let u32 = Machine.to_u32
let s32 = Machine.to_s32

exception Exec_fail of string

let execute ?(max_iterations = 4_000_000) ?stop_after ?fault ?(watchdog_window = 512)
    ?attribution ~(config : Accel_config.t) ~(dfg : Dfg.t)
    ~(machine : Machine.t) ~(hier : Hierarchy.t) () =
  match Placement.validate dfg config.placement with
  | Error e -> Error ("invalid placement: " ^ e)
  | Ok () -> (
    let n = Dfg.node_count dfg in
    let pl = config.placement in
    let grid = pl.Placement.grid in
    let nodes = dfg.Dfg.nodes in
    let mem = machine.Machine.mem in
    let debug = Sys.getenv_opt "MESA_ENGINE_DEBUG" <> None in
    (* Static per-node tables, hoisted out of the iteration loop: operation
       class and fabric latency, guard predicates, and the arrival
       dependencies (operand sources, hidden value, guards, memory-order
       link — in exactly the order the arrival fold visits them). *)
    let cls_of = Array.map (fun nd -> Isa.op_class nd.Dfg.instr) nodes in
    let cls_lat = Array.map (fun cls -> float_of_int (Latency.accel cls)) cls_of in
    let guards_of = Array.map (fun nd -> Array.of_list nd.Dfg.guards) nodes in
    let deps_of =
      Array.map
        (fun nd ->
          let ds = ref [] in
          Array.iter
            (function Dfg.Node i -> ds := i :: !ds | Dfg.Reg_in _ -> ())
            nd.Dfg.srcs;
          (match nd.Dfg.hidden with
          | Some (Dfg.Node i) -> ds := i :: !ds
          | Some (Dfg.Reg_in _) | None -> ());
          List.iter (fun (b, _) -> ds := b :: !ds) nd.Dfg.guards;
          if Isa.is_store nd.Dfg.instr then
            Option.iter (fun s -> ds := s :: !ds) nd.Dfg.prev_store;
          Array.of_list (List.rev !ds))
        nodes
    in
    (* Cycle attribution (the `mesa profile` collector): pure observation —
       charging never feeds back into any timing computation, so a profiled
       run is bit-identical to an unprofiled one. *)
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
    (* Loop-carried producers bound the pipelined initiation interval. *)
    let carried_nodes =
      Dfg.loop_carried dfg
      |> List.filter_map (fun (_, _, src) ->
             match src with Dfg.Node p -> Some p | Dfg.Reg_in _ -> None)
      |> Array.of_list
    in
    (* Optimization lookup tables. *)
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
    (* Values: one slot per node, in the file its destination lives in. *)
    let vx = Array.make n 0 in
    let vf = Array.make n 0.0 in
    let in_x = Array.init Reg.count (Machine.get_x machine) in
    let in_f = Array.init Reg.count (Machine.get_f machine) in
    (* Fault bookkeeping: PE coordinate per node (LS entries are not fault
       targets) and the effective cache-port count after degradation. Port
       loss is sampled at window start; a mid-window ports event takes
       effect from the next window. *)
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
    (* Timing state. *)
    let completes = Array.make n 0.0 in
    let scratch = Contention.scratch () in
    let ports = Contention.acquire scratch effective_ports in
    let tiling = max 1 config.tiling in
    (* Tiled instances occupy disjoint physical regions, so each gets its
       own router slices; slot [inst * nslices + slice] serves (instance,
       slice). Slices are claimed lazily — most stay unused. *)
    let nslices = Interconnect.slices grid in
    let noc : Contention.t option array = Array.make (tiling * nslices) None in
    let noc_slot inst slice =
      let idx = (inst * nslices) + slice in
      match noc.(idx) with
      | Some c -> c
      | None ->
        let c = Contention.acquire scratch 1 in
        noc.(idx) <- Some c;
        c
    in
    let inst_next = Array.make tiling 0.0 in
    (* Measurements: one fresh registry per profiling window, snapshotted
       into the result. The hardware counters the optimizer reads (§5.2)
       live here; arrays/hashtable keep the hot-loop path at one observe. *)
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
    let record_edge i j lat =
      let h =
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
      Stats.observe h lat
    in
    (* One data/control transfer from node [i] to node [j], with NoC
       contention applied at the producer's router slice. [last_noc_queue]
       lets the profiler split arrival gaps into NoC vs dependence wait. *)
    let last_noc_queue = ref 0.0 in
    let transfer_in inst iter_start i j =
      let base = float_of_int (Placement.transfer pl i j) in
      match Placement.route pl i j with
      | Interconnect.Local ->
        act.Activity.local_transfers <- act.Activity.local_transfers + 1;
        last_noc_queue := 0.0;
        record_edge i j base;
        base
      | Interconnect.Noc ->
        let slice = Interconnect.noc_slice grid (Placement.coord_of pl i) in
        let abs_out = iter_start +. completes.(i) in
        let inject = Contention.claim (noc_slot inst slice) abs_out in
        act.Activity.noc_transfers <- act.Activity.noc_transfers + 1;
        Stats.observe noc_queue (inject -. abs_out);
        last_noc_queue := inject -. abs_out;
        let lat = base +. (inject -. abs_out) in
        record_edge i j lat;
        lat
    in
    (* Claim a memory port: returns queuing delay given absolute readiness.
       [last_port_slot] records which sub-slot of the issue cycle was taken
       — the profiler's deterministic port-lane index. *)
    let last_port_slot = ref 0 in
    let claim_port abs_ready =
      let issue, slot = Contention.claim_slot ports abs_ready in
      let delay = issue -. abs_ready in
      last_port_slot := slot;
      Stats.observe port_queue delay;
      delay
    in
    (* Corrupt node [j]'s output latch: stuck-at [value] for permanent
       damage, xor-flip for a transient strike. Branch latches stick at /
       flip toward "taken" so a damaged back branch spins (the watchdog
       scenario). Returns whether the latched value actually changed. *)
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
      (* Stores observed so far in the current iteration, newest first. *)
      let iter_stores = ref [] in
      while not !exit_reached do
        let inst = !iterations mod tiling in
        let iter_start = inst_next.(inst) in
        iter_stores := [];
        let strikes =
          match fault with None -> [] | Some f -> (Fault.tick f).Fault.strikes
        in
        (* Iterative (non-pipelined) units bound reuse of their PE; all other
           PEs are internally pipelined. *)
        let fu_bound = ref 1.0 in
        let mem_accesses = ref 0 in
        for j = 0 to n - 1 do
          let nd = nodes.(j) in
          let cls = cls_of.(j) in
          (* Guard evaluation: a branch node's value is 1 when taken. *)
          let disabled =
            Array.exists (fun (b, dis) -> (vx.(b) <> 0) = dis) guards_of.(j)
          in
          (* Arrival of inputs (Equation 2, with contention). [arr_nonoc]
             shadows the arrival fold with NoC queueing deducted; the
             difference is the profiler's NoC-stall share of the gap. *)
          let arrival = ref 0.0 in
          let arr_nonoc = ref 0.0 in
          let dep i =
            let lat = transfer_in inst iter_start i j in
            arrival := Float.max !arrival (completes.(i) +. lat);
            if prof then
              arr_nonoc := Float.max !arr_nonoc (completes.(i) +. lat -. !last_noc_queue)
          in
          let deps = deps_of.(j) in
          for d = 0 to Array.length deps - 1 do
            dep deps.(d)
          done;
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
              (match
                 List.find_opt (fun (_, a) -> a lsr 2 = addr lsr 2) !iter_stores
               with
              | Some (s, _) when load -> dep s
              | Some _ | None -> ());
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
                  Attribution.note_port_access a ~port:!last_port_slot
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
              iter_stores := (j, addr) :: !iter_stores;
              mem_access ~load:false ~addr
            | Isa.Fsw (_, _, off) ->
              let addr = u32 (val_i nd.Dfg.srcs.(1) + off) in
              Main_memory.store_float32 mem addr (val_f nd.Dfg.srcs.(0));
              iter_stores := (j, addr) :: !iter_stores;
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
          completes.(j) <- !arrival +. !oplat;
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
        if debug && !iterations < 40 then
          Printf.eprintf "iter=%d inst=%d start=%.1f lat=%.1f fu=%.1f\n" !iterations
            inst iter_start iter_latency !fu_bound;
        incr iterations;
        act.Activity.iterations <- act.Activity.iterations + 1;
        end_time := Float.max !end_time (iter_start +. iter_latency);
        let continue_loop = vx.(dfg.Dfg.back_branch) <> 0 in
        (* Next iteration's live-ins are this iteration's live-outs. *)
        Array.iter (fun (r, src) -> if r <> 0 then in_x.(r) <- val_i src) live_out_x;
        Array.iter (fun (r, src) -> in_f.(r) <- val_f src) live_out_f;
        (* Initiation of this instance's next iteration. *)
        (if config.pipelined then begin
           let ii_rec =
             Array.fold_left
               (fun acc p -> Float.max acc completes.(p))
               1.0 carried_nodes
           in
           let ii_mem =
             float_of_int (Stats.div_ceil !mem_accesses effective_ports)
           in
           let ii = Float.max (Float.max ii_rec ii_mem) !fu_bound in
           Stats.observe ii_achieved ii;
           (match attribution with
           | Some a ->
             Attribution.observe_ii a ~rec_:ii_rec ~mem:ii_mem ~fu:!fu_bound
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
      ~finally:(fun () -> Contention.park scratch)
      (fun () -> try Ok (run ()) with Exec_fail msg -> Error msg))
