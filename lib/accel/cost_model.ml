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

(* The fixed-point detector compares at most this many pending bookings;
   a deeper backlog is not worth comparing. *)
let max_pending = 1024

(* One fixed-point snapshot, flat: booking [e < len] is table [tid.(e)],
   cycle [off.(e)] past the frontier, [claims.(e)] claims; [phases.(k)]
   is instance [k]'s next initiation past the frontier. [deep] marks a
   backlog too long to compare, or no snapshot yet. *)
type snapshot = {
  mutable deep : bool;
  mutable len : int;
  tid : int array;
  off : float array;
  claims : int array;
  mutable phases : float array;
}

(* Snapshot buffers are recycled like the contention tables, on a
   per-domain {!Pool.free_list}. Each holds [max_pending] bookings; a fresh
   pair per estimate would put 48 KiB on the major heap per call, and
   buffers grown on demand raised refine's peak RSS by 6%. *)
let snapshot_pool : snapshot Pool.free_list = Pool.free_list ()

let take_snapshot_buffer () =
  match Pool.take snapshot_pool with
  | Some s -> s
  | None ->
    {
      deep = true;
      len = 0;
      tid = Array.make max_pending 0;
      off = Array.make max_pending 0.0;
      claims = Array.make max_pending 0;
      phases = [||];
    }

(* Offsets and phases compare with float [=], like the structural
   equality the detector has always used: its decisions are pinned by the
   golden model outputs. *)
let same_snapshot ~tiling a b =
  (not a.deep) && (not b.deep) && a.len = b.len
  &&
  let eq = ref true in
  for e = 0 to a.len - 1 do
    if a.tid.(e) <> b.tid.(e) || a.off.(e) <> b.off.(e) || a.claims.(e) <> b.claims.(e)
    then eq := false
  done;
  for k = 0 to tiling - 1 do
    if a.phases.(k) <> b.phases.(k) then eq := false
  done;
  !eq

let run ~acquire ~snapshots:(a, b) ?op_latency ?mem_latency ~iterations ~extrapolate
    ~(config : Accel_config.t) ~(dfg : Dfg.t) () =
  let t = Timing.compile ~config ~dfg in
  let n = t.Timing.n in
  let iterations = max 1 iterations in
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
  let take_snapshot s frontier =
    (* The bookings at or beyond the frontier in canonical order — ports
       (table 0) first, then router [idx] as table [1 + idx], each table's
       cycles ascending — and the instance phases; [deep] when the backlog
       is too long to be worth comparing. *)
    let from = Cycle_time.ceil_int frontier in
    s.len <- 0;
    let pending tid table =
      Contention.fold_from table ~from
        (fun c claims () ->
          let e = s.len in
          if e < max_pending then begin
            s.tid.(e) <- tid;
            s.off.(e) <- float_of_int c -. frontier;
            s.claims.(e) <- claims
          end;
          s.len <- Int.min (e + 1) (max_pending + 1))
        ()
    in
    pending 0 st.Timing.ports;
    Array.iteri (fun idx -> Option.iter (pending (1 + idx))) st.Timing.noc;
    s.deep <- s.len > max_pending;
    Array.iteri (fun k next -> s.phases.(k) <- next -. frontier) inst_next
  in
  (* The last two snapshots: [cur] is filled and compared with [prev],
     then they swap. *)
  List.iter
    (fun s ->
      s.deep <- true;
      if Array.length s.phases < tiling then s.phases <- Array.make tiling 0.0)
    [ a; b ];
  let cur = ref a and prev = ref b in
  (* Without an op oracle the static latency is read in place: a call
     through a closure would box the float it returns on every firing. *)
  let fire =
    match op_latency with
    | None ->
      fun ~inst j ->
        st.Timing.firing.oplat <-
          (if t.Timing.kind.(j) = Timing.Mem_op then
             Timing.mem_latency t st ~inst ~service:mem_latency j
           else t.Timing.cls_lat.(j))
    | Some op_latency ->
      fun ~inst j ->
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
        let frontier = ref inst_next.(0) in
        for i = 1 to tiling - 1 do
          frontier := Cycle_time.min !frontier inst_next.(i)
        done;
        let s = !cur in
        take_snapshot s !frontier;
        if
          snap_at (!boundaries - 1)
          && same_snapshot ~tiling s !prev
          && Array.for_all (fun s -> s) stable
          && Array.for_all (fun r -> r >= 2) ran
        then steady := true;
        cur := !prev;
        prev := s
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
        last.makespan <- Cycle_time.max last.makespan (last_start +. prev_lat.(j))
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
    cycles = Cycle_time.ceil_int last.makespan;
    iter_latency = last.latency;
    ii = last.ii;
    ii_rec = last.rec_;
    ii_mem = last.mem;
    ii_fu = last.fu;
    critical;
    simulated = !k;
    steady = !steady;
  }

(* The tables come from {!Contention}'s recycling pool: a warm estimate
   allocates no ring, and [Contention.reset] zeroes only what the last run
   booked. The snapshot buffers are recycled too. *)
let estimate ?op_latency ?mem_latency ?(iterations = 1) ?(extrapolate = true)
    ~config ~dfg () =
  let scratch = Contention.scratch () in
  let a = take_snapshot_buffer () and b = take_snapshot_buffer () in
  Fun.protect
    ~finally:(fun () ->
      Contention.park scratch;
      Pool.give snapshot_pool [ a; b ])
    (run ~acquire:(Contention.acquire scratch) ~snapshots:(a, b) ?op_latency
       ?mem_latency ~iterations ~extrapolate ~config ~dfg)

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
