(* The event-driven engine core: the value plane over {!Timing}.

   Timing (the compiled schedule, the Eq.-2 arrival fold with router-slice
   claims, the cache-port issue rule and the II rule) lives in {!Timing},
   shared with the cost model. This module adds what depends on values or
   observes: register and memory values, guards, dynamic store-to-load
   aliasing, the live cache hierarchy, faults, and the Stats / Activity /
   Attribution hooks. Compared with the legacy engine (the test-only
   [Engine_reference] oracle), which re-derives everything on every
   fabric iteration, it runs an event clock over the compiled loop:

   - the firing schedule is static — nodes are topologically indexed and a
     node's wake condition is "all compiled in-edges done", so the wake list
     is the node order itself and per-iteration work is driven entirely by
     the compiled edge tables instead of placement lookups;
   - time advances in batched jumps: per-instance initiation clocks jump by
     a whole II per iteration, and the contention tables skip runs of full
     cycles via union-find pointers rather than stepping cycle by cycle;
   - each iteration is one {!Timing.step} over the compiled arrays, and
     this module supplies only its per-node [fire]; every node folds every
     iteration, since skipping a fold would still observe every edge and
     so saves only a few float maxes;
   - store-to-load disambiguation uses a word-indexed, generation-stamped
     table reused across iterations instead of a per-iteration list scan.

   Every observation hook fires exactly as in the reference engine — same
   Stats observes with the same values in the same order, same Activity
   counts, same Attribution charges, same fault strikes — so cycle counts,
   memory checksums and profiler bucket sums are bit-identical to
   [Engine_reference.execute]. The differential qcheck harness enforces
   this. *)

type detection = {
  d_kinds : Fault.kind list;
  d_latency : int;
  d_watchdog : bool;
}

type result = {
  cycles : int;
  iterations : int;
  completed : bool;
  budget_exhausted : bool;
  fault : detection option;
  exit_pc : int;
  activity : Activity.t;
  measured : Stats.snapshot;
}

exception Exec_fail of string

let u32 = Machine.to_u32
let s32 = Machine.to_s32

(* Fibonacci multiplicative hash for the store-disambiguation table. *)
let[@inline] word_hash w mask = (w * 0x2545F4914F6CDD1D) land max_int land mask

(* Operand slots. A window resolves each {!Dfg.src} once into a slot of
   the int value file [vx] and one of the float value file [vf]: node [i]
   at slot [i], live-in register [r] at [n + r]. A source read from the
   wrong file gets the negative slot [-(r + 1)], which fails the read with
   the message a direct read would give. Slot [n] of [vx] is [x0], always
   0; the extra last slot of [vf] holds 0.0 and is never written. *)
let int_slot n = function
  | Dfg.Node i -> i
  | Dfg.Reg_in (r, Dfg.X) -> n + r
  | Dfg.Reg_in (r, Dfg.F) -> -(r + 1)

let fp_slot n = function
  | Dfg.Node i -> i
  | Dfg.Reg_in (r, Dfg.F) -> n + r
  | Dfg.Reg_in (r, Dfg.X) -> -(r + 1)

let int_read_fail s =
  raise (Exec_fail (Printf.sprintf "int read of FP live-in f%d" (-s - 1)))

let fp_read_fail s =
  raise (Exec_fail (Printf.sprintf "FP read of int live-in %s" (Reg.name (-s - 1))))

let[@inline] read_x vx s = if s >= 0 then vx.(s) else int_read_fail s
let[@inline] read_f (vf : float array) s = if s >= 0 then vf.(s) else fp_read_fail s

let execute ?(max_iterations = 4_000_000) ?stop_after ?fault
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
    let sched = Timing.compile ~config ~dfg in
    let guards_of = Array.map (fun nd -> Array.of_list nd.Dfg.guards) nodes in
    (* Lazily-created edge histograms, cached per compiled edge. Creation
       still goes through the shared find-or-create path so first-use
       registration order (and thus snapshot ordering) matches the
       reference engine exactly, including dynamic alias edges. *)
    let ehist =
      Array.map (fun deps -> Array.make (Array.length deps) None) sched.Timing.deps
    in
    (* Cycle attribution: pure observation — charging never feeds back into
       timing, so a profiled run is bit-identical to an unprofiled one. *)
    let lane_of =
      match attribution with
      | None -> [||]
      | Some a ->
        Array.init n (fun i ->
            match Placement.loc_of pl i with
            | Placement.Pe c -> Attribution.pe_lane a c
            | Placement.Ls e -> Attribution.ls_lane a e)
    in
    (* The value files and every node's operand slots, resolved once. *)
    let vx = Array.make (n + Reg.count) 0 in
    let vf = Array.make (n + Reg.count + 1) 0.0 in
    for r = 0 to Reg.count - 1 do
      vx.(n + r) <- Machine.get_x machine r;
      vf.(n + r) <- Machine.get_f machine r
    done;
    let x_zero = n and f_zero = n + Reg.count in
    let operand slot zero k =
      Array.map
        (fun nd -> if Array.length nd.Dfg.srcs > k then slot n nd.Dfg.srcs.(k) else zero)
        nodes
    in
    let xa = operand int_slot x_zero 0 and xb = operand int_slot x_zero 1 in
    let fa = operand fp_slot f_zero 0 and fb = operand fp_slot f_zero 1 in
    (* What a disabled node writes into its own slot: its hidden value, 0
       without one, itself when it writes no register of that file. *)
    let writes_x = Array.map (fun nd -> Isa.writes_int nd.Dfg.instr <> None) nodes in
    let writes_f = Array.map (fun nd -> Isa.writes_fp nd.Dfg.instr <> None) nodes in
    let hidden slot writes zero =
      Array.mapi
        (fun j nd ->
          if not writes.(j) then j
          else match nd.Dfg.hidden with Some h -> slot n h | None -> zero)
        nodes
    in
    let hid_x = hidden int_slot writes_x x_zero in
    let hid_f = hidden fp_slot writes_f f_zero in
    let live_outs slot l = Array.of_list (List.map (fun (r, src) -> (r, slot n src)) l) in
    let live_out_x = live_outs int_slot dfg.Dfg.live_out_x in
    let live_out_f = live_outs fp_slot dfg.Dfg.live_out_f in
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
    let scratch = Contention.scratch () in
    let st =
      Timing.start ~acquire:(Contention.acquire scratch) sched
        ~ports:effective_ports
    in
    let arrival = st.Timing.arrival and firing = st.Timing.firing in
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
    (* Slot of [w] this generation, or the empty slot it would take. *)
    let store_slot w =
      let i = ref (word_hash w st_mask) in
      while st_gen.(!i) = !cur_gen && st_word.(!i) <> w do
        i := (!i + 1) land st_mask
      done;
      !i
    in
    let store_record j addr =
      let i = store_slot (addr lsr 2) in
      st_gen.(i) <- !cur_gen;
      st_word.(i) <- addr lsr 2;
      st_node.(i) <- j
    in
    (* Index of the newest same-word store this iteration, or -1. *)
    let store_lookup addr =
      let i = store_slot (addr lsr 2) in
      if st_gen.(i) = !cur_gen then st_node.(i) else -1
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
    let new_edge_hist j d =
      let h = edge_hist sched.Timing.deps.(j).(d) j in
      ehist.(j).(d) <- Some h;
      h
    in
    (* Cursor state, hoisted so the hot closures below are built once per
       execution rather than once per node firing: the memory access in
       flight, this iteration's fault strikes and the first corruption. *)
    let cur_load = ref false in
    let cur_addr = ref 0 in
    let strikes = ref [] in
    let first_corrupt = ref None in
    (* Dynamic (alias) dependence: a load waiting on a same-word store
       discovered this iteration. *)
    let dep_dyn ~inst i j =
      let before = st.Timing.nclaims in
      let lat = Timing.alias sched st ~inst i j in
      if st.Timing.nclaims = before then
        act.Activity.local_transfers <- act.Activity.local_transfers + 1
      else begin
        act.Activity.noc_transfers <- act.Activity.noc_transfers + 1;
        Stats.observe noc_queue st.Timing.claim_wait.(before)
      end;
      Stats.observe (edge_hist i j) lat
    in
    (* Cache service time of the access in the cursor. *)
    let service j =
      let cache =
        if !cur_load then Hierarchy.load_latency hier !cur_addr
        else Hierarchy.store_latency hier !cur_addr
      in
      if !cur_load && sched.Timing.prefetched.(j) then
        (* Issued an iteration ahead: only the hit path shows. *)
        float_of_int (Hierarchy.min_latency hier)
      else float_of_int cache
    in
    let mem_access ~inst j ~load ~addr =
      (* Dynamic disambiguation: an aliasing earlier store forwards
         through the LSU broadcast; wait for it. *)
      if load then begin
        let s = store_lookup addr in
        if s >= 0 then dep_dyn ~inst s j
      end;
      cur_load := load;
      cur_addr := addr;
      let before = st.Timing.nclaims in
      let lat = Timing.mem_latency sched st ~inst ~service j in
      if st.Timing.nclaims = before then begin
        if load && sched.Timing.forwarded.(j) then
          act.Activity.forwarded_loads <- act.Activity.forwarded_loads + 1
      end
      else begin
        let queue = st.Timing.claim_wait.(before) in
        Stats.observe port_queue queue;
        Stats.observe amat.(j) lat;
        match attribution with
        | Some a ->
          Attribution.note_port_access a ~port:(Contention.last_slot st.Timing.ports)
            ~issue:(st.Timing.next.(inst) +. arrival.(j) +. queue)
            ~service:(lat -. queue)
        | None -> ()
      end;
      firing.oplat <- lat
    in
    let corrupt_latch j ~value ~stuck =
      if sched.Timing.kind.(j) = Timing.Branch_op then begin
        let old = vx.(j) in
        vx.(j) <- (if stuck then 1 else if old <> 0 then 0 else 1);
        vx.(j) <> old
      end
      else if writes_x.(j) then begin
        let old = vx.(j) in
        vx.(j) <- s32 (if stuck then value else old lxor value);
        vx.(j) <> old
      end
      else if writes_f.(j) then begin
        let old = vf.(j) in
        let bits = Interp.Alu.fmv_x_w old in
        vf.(j) <- Interp.Alu.fmv_w_x (if stuck then value else bits lxor value);
        vf.(j) <> old
      end
      else false
    in
    (* One node firing, after [Timing.step] folded its arrival: guards,
       edge and claim observations, values, memory and aliasing, the
       operation latency, attribution and faults. *)
    let fire ~inst j =
      let nd = nodes.(j) in
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
      (* Observe the fold: per-edge latencies and router-claim queueing. *)
      let ndeps = Array.length sched.Timing.deps.(j) in
      let claims = st.Timing.nclaims in
      act.Activity.local_transfers <- act.Activity.local_transfers + ndeps - claims;
      act.Activity.noc_transfers <- act.Activity.noc_transfers + claims;
      let hists = ehist.(j) in
      for d = 0 to ndeps - 1 do
        let h = match hists.(d) with Some h -> h | None -> new_edge_hist j d in
        Stats.observe h st.Timing.lat.(d)
      done;
      for c = 0 to claims - 1 do
        Stats.observe noc_queue st.Timing.claim_wait.(c)
      done;
      (* Functional execution + operation latency. *)
      if disabled then begin
        firing.oplat <- 1.0;
        act.Activity.disabled_ops <- act.Activity.disabled_ops + 1;
        vx.(j) <- read_x vx hid_x.(j);
        vf.(j) <- read_f vf hid_f.(j);
        if sched.Timing.kind.(j) = Timing.Branch_op then vx.(j) <- 0
      end
      else begin
        Timing.count act sched.Timing.kind.(j) 1;
        firing.oplat <- sched.Timing.cls_lat.(j);
        match nd.Dfg.instr with
        | Isa.Rtype (op, _, _, _) ->
          vx.(j) <- Interp.Alu.rtype op (read_x vx xa.(j)) (read_x vx xb.(j))
        | Isa.Itype (op, _, _, imm) -> vx.(j) <- Interp.Alu.itype op (read_x vx xa.(j)) imm
        | Isa.Lui (_, imm) -> vx.(j) <- s32 imm
        | Isa.Auipc (_, imm) -> vx.(j) <- s32 (nd.Dfg.addr + imm)
        | Isa.Load (op, _, _, off) ->
          let addr = u32 (read_x vx xa.(j) + off) in
          vx.(j) <- Interp.Alu.load op mem addr;
          mem_access ~inst j ~load:true ~addr
        | Isa.Flw (_, _, off) ->
          let addr = u32 (read_x vx xa.(j) + off) in
          vf.(j) <- Main_memory.load_float32 mem addr;
          mem_access ~inst j ~load:true ~addr
        | Isa.Store (op, _, _, off) ->
          let addr = u32 (read_x vx xb.(j) + off) in
          Interp.Alu.store op mem addr (read_x vx xa.(j));
          store_record j addr;
          mem_access ~inst j ~load:false ~addr
        | Isa.Fsw (_, _, off) ->
          let addr = u32 (read_x vx xb.(j) + off) in
          Main_memory.store_float32 mem addr (read_f vf fa.(j));
          store_record j addr;
          mem_access ~inst j ~load:false ~addr
        | Isa.Branch (op, _, _, _) ->
          let taken = Interp.Alu.branch_taken op (read_x vx xa.(j)) (read_x vx xb.(j)) in
          vx.(j) <- (if taken then 1 else 0)
        | Isa.Ftype (op, _, _, _) ->
          let a = read_f vf fa.(j) in
          vf.(j) <- Interp.Alu.ftype op a (read_f vf fb.(j))
        | Isa.Fcmp (op, _, _, _) ->
          vx.(j) <- Interp.Alu.fcmp op (read_f vf fa.(j)) (read_f vf fb.(j))
        | Isa.Fcvt_w_s (_, _) -> vx.(j) <- Interp.Alu.fcvt_w_s (read_f vf fa.(j))
        | Isa.Fcvt_s_w (_, _) -> vf.(j) <- Interp.Alu.fcvt_s_w (read_x vx xa.(j))
        | Isa.Fmv_x_w (_, _) -> vx.(j) <- Interp.Alu.fmv_x_w (read_f vf fa.(j))
        | Isa.Fmv_w_x (_, _) -> vf.(j) <- Interp.Alu.fmv_w_x (read_x vx xa.(j))
        | Isa.Jal _ | Isa.Jalr _ | Isa.Ecall | Isa.Ebreak | Isa.Fence ->
          raise
            (Exec_fail
               (Printf.sprintf "node %d (%s) not executable on the fabric" j
                  (Format.asprintf "%a" Isa.pp nd.Dfg.instr)))
      end;
      let oplat = firing.oplat in
      Stats.observe node_lat.(j) oplat;
      let iter_start = st.Timing.next.(inst) in
      (match attribution with
      | Some a ->
        Attribution.charge_op a ~lane:lane_of.(j)
          ~start:(iter_start +. arrival.(j))
          ~noc_wait:(arrival.(j) -. st.Timing.uncontended.(j))
          ~port_wait:firing.port_wait
          ~service:(oplat -. firing.port_wait)
          ~long_op:sched.Timing.long_op.(j)
      | None -> ());
      (* Fault application: the latch corrupts after the node fires, so
         same-iteration consumers already see the bad value. *)
      match (fault, pe_coord.(j)) with
      | Some f, Some c ->
        let applied =
          match List.find_opt (fun (d, _, _) -> d = c) (Fault.dead f) with
          | Some (_, k, v) ->
            if corrupt_latch j ~value:v ~stuck:true then Some k else None
          | None -> (
            match List.find_opt (fun s -> s.Fault.s_coord = c) !strikes with
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
      | _ -> ()
    in
    let run () =
      let iterations = ref 0 in
      let exit_reached = ref false in
      let paused = ref false in
      let budget_hit = ref false in
      let watchdog_fired = ref false in
      let corrupt_iters = ref 0 in
      while not !exit_reached do
        let inst = !iterations mod sched.Timing.tiling in
        incr cur_gen;
        strikes := (match fault with None -> [] | Some f -> (Fault.tick f).Fault.strikes);
        (* One iteration; its initiation jumps the instance's event clock a
           whole II at once. *)
        Timing.step sched st ~inst ~fire;
        let b = st.Timing.last in
        incr iterations;
        act.Activity.iterations <- act.Activity.iterations + 1;
        Stats.observe ii_achieved b.Timing.ii;
        (match attribution with
        | Some a ->
          Attribution.observe_ii a ~rec_:b.Timing.rec_ ~mem:b.Timing.mem
            ~fu:b.Timing.fu ~achieved:b.Timing.ii
        | None -> ());
        let continue_loop = vx.(dfg.Dfg.back_branch) <> 0 in
        (* Next iteration's live-ins are this iteration's live-outs. *)
        for k = 0 to Array.length live_out_x - 1 do
          let r, s = live_out_x.(k) in
          if r <> 0 then vx.(n + r) <- read_x vx s
        done;
        for k = 0 to Array.length live_out_f - 1 do
          let r, s = live_out_f.(k) in
          vf.(n + r) <- read_f vf s
        done;
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
      Array.iter (fun (r, s) -> Machine.set_x machine r (read_x vx s)) live_out_x;
      Array.iter (fun (r, s) -> Machine.set_f machine r (read_f vf s)) live_out_f;
      machine.Machine.pc <- (if !paused then dfg.Dfg.entry_addr else dfg.Dfg.exit_addr);
      let makespan = st.Timing.last.Timing.makespan in
      act.Activity.cycles <- int_of_float (Float.ceil makespan);
      (* Window-end profiler readouts: per-slice NoC contention (tiled
         instances fold onto their physical slice), shared-port totals, and
         the closing charge of every lane's uncovered tail. *)
      (match attribution with
      | Some a ->
        List.iter
          (fun (slice, claims, busy) ->
            Attribution.note_noc_slice a ~slice ~claims ~busy)
          (Timing.router_use sched st);
        let claims, busy = Timing.port_use st in
        Attribution.note_port_totals a ~claims ~busy;
        Attribution.end_window a ~grid ~cycles:act.Activity.cycles
          ~iterations:!iterations
      | None -> ());
      let detection =
        match fault with
        | Some f when Fault.window_corrupted f ->
          let fc = Option.value !first_corrupt ~default:makespan in
          Some
            {
              d_kinds = Fault.window_kinds f;
              d_latency = max 0 (int_of_float (Float.ceil (makespan -. fc)));
              d_watchdog = !watchdog_fired;
            }
        | Some _ | None -> None
      in
      Sim_meter.add act.Activity.cycles;
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
