(* Slot-based contention model.

   The naive model kept a cycle -> occupancy hashtable and, on each claim,
   scanned forward one cycle at a time until it found spare capacity. On an
   oversubscribed resource (a port-bound kernel) the free frontier runs
   ahead of the ready times, so every claim re-walks the same run of full
   cycles: O(iterations^2) over an execution — the single hottest path of
   the whole engine, per profile.

   This implementation keeps the same observable semantics — a claim books
   the first cycle at or after its ready time with spare capacity, and a
   late claim can still fill an earlier idle slot — but jumps over runs of
   full cycles in near-constant amortized time:

   - per-cycle occupancy lives in a power-of-two ring over the live window
     [lo, hi]: cycle [c] sits at slot [c land mask]. Every slot outside the
     window holds 0, so reading a cycle is one bounds test and one load,
     and consecutive cycles share cache lines;
   - every full cycle carries a union-find style skip pointer to the next
     candidate cycle. A cycle can never become non-full (slots are never
     released), so a skip pointer only ever chases forward toward the first
     free cycle, and path compression makes repeated claims into the same
     full run O(inverse Ackermann) amortized — the "batched jump to the
     next ready event" of the event-driven engine core. Invariant: a full
     cycle [c]'s pointer is above [c] (it is set to [c + 1] when [c]
     fills, and compression only moves it forward); the walk checks it on
     every hop and raises on a pointer that does not advance, so a broken
     chain fails fast instead of looping;
   - many claims find their ready cycle itself free (45-77% of them in
     the cost model's estimates of the refine kernels), so [claim_cycle]
     books that case inline, with no walk and no call;
   - a caller that knows no later claim starts below some [floor] (the
     timing plane's frontier) passes it to [claim_cycle]; when the window
     would outgrow the ring, cycles below the floor are zeroed and the ring
     is reused instead of doubled, so it stays the size of the backlog. *)

type t = {
  mutable capacity : int;
  mutable mask : int;  (* ring size - 1; size is a power of two *)
  mutable cnt : int array;  (* operations started that cycle *)
  mutable nxt : int array;  (* skip pointer, meaningful once the cycle is full *)
  mutable lo : int;  (* lowest cycle of the live window *)
  mutable hi : int;  (* highest booked cycle; below [lo] when empty *)
  mutable base : int;  (* cycles below were retired and may not be claimed *)
  mutable occupied : int;  (* distinct cycles with >= 1 operation *)
  mutable claimed : int;
  mutable last_slot : int;  (* sub-slot taken by the most recent claim *)
}

(* Sized for a full engine execution up front so the ring rarely grows;
   recycled executions reuse the same buffers via [reset]. *)
let initial_size = 1024

(* [reset] drops a ring grown past this back to [initial_size]. A ring is
   sized by the span of its claims in flight, not by their number, and on
   the paper suite thousands of port and router rings reach 8 K-16 K
   slots. Parked at that size they held the suite's peak RSS at 54.4 MiB,
   against 51.1 MiB with this cap, with no loss of throughput on the paper
   suite or mesad (three 6 s perfbench runs each, 2-vCPU VM). *)
let max_parked_size = 8192

let create ~capacity =
  if capacity <= 0 then invalid_arg "Contention.create: capacity must be positive";
  {
    capacity;
    mask = initial_size - 1;
    cnt = Array.make initial_size 0;
    nxt = Array.make initial_size 0;
    lo = 0;
    hi = -1;
    base = 0;
    occupied = 0;
    claimed = 0;
    last_slot = 0;
  }

(* Claims started in cycle [c >= base]: cycles in [base, lo) are unbooked,
   and past [lo + mask] the slot belongs to an earlier lap of the ring. *)
let[@inline] count t c =
  let d = c - t.lo in
  if d >= 0 && d <= t.mask then Array.unsafe_get t.cnt (c land t.mask) else 0

(* First cycle >= [start] with spare capacity. Walks the skip chain of full
   cycles, then compresses the whole chain to the answer so the next claim
   lands in O(1). [walk] is top-level so that a claim allocates no
   closure. A full cycle's pointer is set to [cycle + 1] and compression
   only moves it forward, so a hop that does not advance is a corrupt
   chain: raise rather than loop. *)
let rec walk t c =
  if count t c >= t.capacity then begin
    let n = Array.unsafe_get t.nxt (c land t.mask) in
    if n <= c then invalid_arg "Contention: skip pointer does not advance";
    walk t n
  end
  else c

let find_free t start =
  let free = walk t start in
  let c = ref start in
  while !c <> free do
    let i = !c land t.mask in
    let n = t.nxt.(i) in
    t.nxt.(i) <- free;
    c := n
  done;
  free

(* Re-lay the window [lo, hi] into a ring of at least [span] slots. *)
let relayout t span =
  let size = ref ((t.mask + 1) * 2) in
  while !size < span do
    size := !size * 2
  done;
  let mask = !size - 1 in
  let cnt = Array.make !size 0 and nxt = Array.make !size 0 in
  for c = t.lo to t.hi do
    cnt.(c land mask) <- t.cnt.(c land t.mask);
    nxt.(c land mask) <- t.nxt.(c land t.mask)
  done;
  t.mask <- mask;
  t.cnt <- cnt;
  t.nxt <- nxt

(* Zero every cycle below [floor]: no later claim may start there. *)
let retire t floor =
  if floor > t.lo then begin
    for c = t.lo to Int.min (floor - 1) t.hi do
      t.cnt.(c land t.mask) <- 0
    done;
    t.base <- Int.max t.base floor;
    if floor > t.hi then t.hi <- floor - 1;
    t.lo <- floor
  end

(* Widen the window to cover [cycle], a free cycle about to be booked. *)
let cover t ~floor cycle =
  if t.hi < t.lo then begin
    (* Empty window: every slot is 0. *)
    t.lo <- cycle;
    t.hi <- cycle
  end
  else if cycle > t.hi then begin
    if cycle - t.lo > t.mask then begin
      retire t floor;
      if t.hi < t.lo then t.lo <- cycle
      else if cycle - t.lo > t.mask then relayout t (cycle - t.lo + 1)
    end;
    t.hi <- cycle
  end
  else if cycle < t.lo then begin
    (* Only an unbooked cycle below the window is free without a walk. *)
    if cycle < t.base then invalid_arg "Contention: claim below a retired cycle";
    if t.hi - cycle > t.mask then relayout t (t.hi - cycle + 1);
    t.lo <- cycle
  end

(* Tuple-free claim: the sub-slot lands in [last_slot] instead of a
   returned pair. *)
let book t ~floor start =
  let cycle = find_free t (Int.max 0 start) in
  cover t ~floor cycle;
  let i = cycle land t.mask in
  let used = t.cnt.(i) in
  if used = 0 then t.occupied <- t.occupied + 1;
  t.cnt.(i) <- used + 1;
  if used + 1 >= t.capacity then t.nxt.(i) <- cycle + 1;
  t.claimed <- t.claimed + 1;
  t.last_slot <- used;
  cycle

(* The free-slot case inline: [start] lies in the ring span of a
   non-empty window and has spare capacity. There [book] would do exactly
   this: [find_free] returns [start] with no hop to compress, and [cover]
   only raises [hi] when [start] is past it. Everything else (a full
   start, an empty window, a start below [lo] or past the ring span) goes
   through [book]. *)
let[@inline] claim_cycle t ~floor start =
  if start < floor then invalid_arg "Contention.claim_cycle: start below floor";
  let d = start - t.lo in
  if d >= 0 && d <= t.mask && t.hi >= t.lo then begin
    let i = start land t.mask in
    let used = Array.unsafe_get t.cnt i in
    if used < t.capacity then begin
      if start > t.hi then t.hi <- start;
      if used = 0 then t.occupied <- t.occupied + 1;
      Array.unsafe_set t.cnt i (used + 1);
      if used + 1 >= t.capacity then Array.unsafe_set t.nxt i (start + 1);
      t.claimed <- t.claimed + 1;
      t.last_slot <- used;
      start
    end
    else book t ~floor start
  end
  else book t ~floor start

let claim t ready =
  Cycle_time.max ready
    (float_of_int (book t ~floor:min_int (Cycle_time.ceil_int ready)))

let claim_slot t ready =
  let issue = claim t ready in
  (issue, t.last_slot)

let fold_from t ~from f acc =
  let acc = ref acc in
  for c = Int.max from t.lo to t.hi do
    let n = t.cnt.(c land t.mask) in
    if n > 0 then acc := f c n !acc
  done;
  !acc

let last_slot t = t.last_slot
let claimed t = t.claimed
let busy_cycles t = t.occupied

let reset ?capacity t =
  (match capacity with
  | None -> ()
  | Some c ->
    if c <= 0 then invalid_arg "Contention.reset: capacity must be positive";
    t.capacity <- c);
  (* Shrink a ring grown past the parking cap back to the initial
     footprint; otherwise zero only the window and keep the warm buffers. *)
  if t.mask + 1 > max_parked_size then begin
    t.mask <- initial_size - 1;
    t.cnt <- Array.make initial_size 0;
    t.nxt <- Array.make initial_size 0
  end
  else if t.hi - t.lo >= t.mask then Array.fill t.cnt 0 (t.mask + 1) 0
  else
    for c = t.lo to t.hi do
      t.cnt.(c land t.mask) <- 0
    done;
  t.lo <- 0;
  t.hi <- -1;
  t.base <- 0;
  t.occupied <- 0;
  t.claimed <- 0;
  t.last_slot <- 0

(* Tables are recycled per domain: an execution (or a cost-model estimate)
   claims one table per cache-port group and one per active (instance, NoC
   slice) pair, and allocating each ring afresh would cost its whole
   footprint. [reset] zeroes only the window the last run booked. *)
let parked : t Pool.free_list = Pool.free_list ()

type scratch = { mutable acquired : t list }

let scratch () = { acquired = [] }

let acquire s capacity =
  let c =
    match Pool.take parked with
    | Some c ->
      reset ~capacity c;
      c
    | None -> create ~capacity
  in
  s.acquired <- c :: s.acquired;
  c

let park s =
  Pool.give parked s.acquired;
  s.acquired <- []
