(* The timing plane ({!Timing}) driven by latency oracles: the engine's
   arrival fold, contention tables and II rule, with no functional
   execution, no cache and no stats. Guards are assumed enabled and
   store-to-load aliasing ignored, which is exactly the value-independent
   fragment of the engine semantics; the property suite pins where (and by
   how much) that diverges. What is the model's own is the fixed-point
   detection and the tail extrapolation below. *)

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

let default_mem_latency =
  float_of_int Hierarchy.default_config.Hierarchy.l1.Cache.hit_latency

let run ~acquire ?op_latency ?mem_latency ~iterations ~extrapolate
    ~(config : Accel_config.t) ~(dfg : Dfg.t) () =
  let t = Timing.compile ~config ~dfg in
  let n = t.Timing.n in
  let iterations = max 1 iterations in
  let op_latency =
    match op_latency with Some f -> f | None -> fun j -> t.Timing.cls_lat.(j)
  in
  let mem_latency =
    match mem_latency with Some f -> f | None -> fun _ -> default_mem_latency
  in
  let st =
    Timing.start ~acquire t ~ports:config.placement.Placement.grid.Grid.mem_ports
  in
  let tiling = t.Timing.tiling in
  let inst_next = st.Timing.next in
  let completes = st.Timing.completes in
  (* Fixed-point detection. The system state at a round boundary is exactly
     (a) each instance's relative completion vector and II, and (b) the
     pending contention bookings at cycles at or beyond the time frontier —
     bookings behind the frontier can never be probed again (claims only
     look at cycles >= their ready time >= the frontier). If both repeat,
     shifted by one round, the schedule is provably periodic and the tail
     can be extrapolated. Comparing schedules alone is NOT enough: on an
     exactly port-saturated loop the backlog drifts by a fraction of a
     cycle per round while the relative vectors repeat for many rounds.
     The pending set is read straight from the timing state's contention
     tables: every claim issues at the integer cycle it booked, and the
     tables hold every booking since the first claim. *)
  let prev_completes = Array.init tiling (fun _ -> Array.make n Float.nan) in
  let prev_lat = Array.make tiling Float.nan in
  let prev_ii = Array.make tiling Float.nan in
  let stable = Array.make tiling false in
  let ran = Array.make tiling 0 in
  (* Detection pays a comparison per iteration and a snapshot per round; on
     a loop that never settles (drifting backlog) that cost buys nothing,
     so give up after a bounded number of round boundaries and simulate
     the rest flat out. *)
  let detect = ref extrapolate in
  let boundaries = ref 0 in
  let max_boundaries = 128 in
  (* Snapshots are only taken at boundary pairs (2^k, 2^k + 1): comparing
     any two consecutive equal-state boundaries proves periodicity. The
     schedule is part of the model's output, not only its cost: detection
     fires at the first matching pair, so it fixes [simulated] and with
     it the tail extrapolation. *)
  let snap_at b = b > 0 && (b land (b - 1) = 0 || (b - 1) land (b - 2) = 0) in
  let max_pending = 1024 in
  let pending_snapshot frontier =
    (* The bookings at or beyond the frontier as a (table, cycle - frontier,
       claims) list in canonical order — ports (table 0) first, then router
       [idx] as table [1 + idx], each table's cycles ascending — or [None]
       when the backlog is too deep to be worth comparing. *)
    let from = int_of_float (Float.ceil frontier) in
    let pending tid table acc =
      Contention.fold_from table ~from
        (fun c claims acc -> (tid, float_of_int c -. frontier, claims) :: acc)
        acc
    in
    let rev = ref (pending 0 st.Timing.ports []) in
    Array.iteri
      (fun idx -> Option.iter (fun table -> rev := pending (1 + idx) table !rev))
      st.Timing.noc;
    if List.compare_length_with !rev max_pending > 0 then None
    else Some (List.rev !rev)
  in
  let prev_pending = ref None in
  let fire ~inst j =
    st.Timing.firing.oplat <-
      (if t.Timing.kind.(j) = Timing.Mem_op then
         Timing.mem_latency t st ~inst ~service:mem_latency j
       else op_latency j)
  in
  let last = st.Timing.last in
  let steady = ref false in
  let k = ref 0 in
  while !k < iterations && not !steady do
    let inst = !k mod tiling in
    if !detect && inst = 0 && !k > 0 then begin
      incr boundaries;
      if !boundaries > max_boundaries then detect := false
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
    Timing.step t st ~inst ~fire;
    let iter_latency = last.latency and ii = last.ii in
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
    incr k
    end
  done;
  (* Extrapolate the un-simulated tail: in the periodic regime instance [j]
     initiates its remaining iterations II apart from [inst_next.(j)]. *)
  if !steady then begin
    let w = !k in
    for j = 0 to tiling - 1 do
      let k0 = w + ((((j - w) mod tiling) + tiling) mod tiling) in
      if k0 < iterations then begin
        let m = ((iterations - 1 - k0) / tiling) + 1 in
        let last_start = inst_next.(j) +. (float_of_int (m - 1) *. prev_ii.(j)) in
        last.makespan <- Float.max last.makespan (last_start +. prev_lat.(j))
      end
    done
  end;
  let critical =
    let best = ref 0 in
    for j = 1 to n - 1 do
      if completes.(j) > completes.(!best) then best := j
    done;
    let rec walk j acc = if j < 0 then acc else walk st.Timing.argmax.(j) (j :: acc) in
    walk !best []
  in
  {
    cycles = int_of_float (Float.ceil last.makespan);
    iter_latency = last.latency;
    ii = last.ii;
    ii_rec = last.rec_;
    ii_mem = last.mem;
    ii_fu = last.fu;
    critical;
    simulated = !k;
    steady = !steady;
  }

(* The tables come from the engine's recycling pool: a warm estimate
   allocates no ring, and [Contention.reset] zeroes only what the last run
   booked. *)
let estimate ?op_latency ?mem_latency ?(iterations = 1) ?(extrapolate = true)
    ~config ~dfg () =
  let scratch = Engine_core.scratch () in
  Fun.protect
    ~finally:(fun () -> Engine_core.park scratch)
    (run ~acquire:(Engine_core.acquire scratch) ?op_latency ?mem_latency
       ~iterations ~extrapolate ~config ~dfg)

(* ------------------------------------------------------------------ *)
(* Modeled activity counters: what the engine would tally with every guard
   enabled. Transfers count one per arrival-fold dependency visit, exactly
   like the engine's [transfer_in] call sites. *)

let predicted_activity ~(config : Accel_config.t) ~(dfg : Dfg.t) ~iterations
    ~cycles =
  let t = Timing.compile ~config ~dfg in
  let act = Activity.create () in
  let iters = max 0 iterations in
  for j = 0 to t.Timing.n - 1 do
    Timing.count act t.Timing.kind.(j) iters;
    if t.Timing.kind.(j) = Timing.Mem_op && t.Timing.forwarded.(j) then
      act.forwarded_loads <- act.forwarded_loads + iters;
    Array.iter
      (fun s ->
        if s < 0 then act.local_transfers <- act.local_transfers + iters
        else act.noc_transfers <- act.noc_transfers + iters)
      t.Timing.slice.(j)
  done;
  act.iterations <- iters;
  act.cycles <- max 0 cycles;
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
