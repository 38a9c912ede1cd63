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

   - per-cycle occupancy lives in an open-addressed int->int table (linear
     probing, power-of-two size, multiplicative hashing) instead of a
     polymorphic-hash Hashtbl;
   - every full cycle carries a union-find style skip pointer to the next
     candidate cycle. A cycle can never become non-full (slots are never
     released), so a skip pointer only ever chases forward toward the first
     free cycle, and path compression makes repeated claims into the same
     full run O(inverse Ackermann) amortized — the "batched jump to the
     next ready event" of the event-driven engine core. *)

type t = {
  mutable capacity : int;
  mutable mask : int;  (* table size - 1; size is a power of two *)
  mutable keys : int array;  (* cycle + 1; 0 marks an empty slot *)
  mutable cnt : int array;  (* operations started that cycle *)
  mutable nxt : int array;  (* skip pointer, meaningful once the cycle is full *)
  mutable occupied : int;  (* distinct cycles with >= 1 operation *)
  mutable hi : int;  (* highest booked cycle; -1 when empty *)
  mutable claimed : int;
  mutable last_slot : int;  (* sub-slot taken by the most recent claim *)
}

(* Sized for a full engine execution up front so the table rarely grows;
   recycled executions reuse the same buffers via [reset]. *)
let initial_size = 1024

let create ~capacity =
  if capacity <= 0 then invalid_arg "Contention.create: capacity must be positive";
  {
    capacity;
    mask = initial_size - 1;
    keys = Array.make initial_size 0;
    cnt = Array.make initial_size 0;
    nxt = Array.make initial_size 0;
    occupied = 0;
    hi = -1;
    claimed = 0;
    last_slot = 0;
  }

(* Fibonacci multiplicative hash of a cycle number into the table. *)
let[@inline] hash t k = (k * 0x2545F4914F6CDD1D) land max_int land t.mask

(* Index of cycle [k]'s slot, or of the empty slot where it would insert. *)
let[@inline] probe t k =
  let key = k + 1 in
  let i = ref (hash t k) in
  while
    let kk = t.keys.(!i) in
    kk <> 0 && kk <> key
  do
    i := (!i + 1) land t.mask
  done;
  !i

let grow t =
  let size = (t.mask + 1) * 2 in
  let keys = t.keys and cnt = t.cnt and nxt = t.nxt in
  t.mask <- size - 1;
  t.keys <- Array.make size 0;
  t.cnt <- Array.make size 0;
  t.nxt <- Array.make size 0;
  Array.iteri
    (fun i key ->
      if key <> 0 then begin
        let j = probe t (key - 1) in
        t.keys.(j) <- key;
        t.cnt.(j) <- cnt.(i);
        t.nxt.(j) <- nxt.(i)
      end)
    keys

(* First cycle >= [start] with spare capacity. Walks the skip chain of full
   cycles (iteratively, then compresses the whole chain to the answer so
   the next claim lands in O(1)). [walk] is top-level so that a claim
   allocates no closure. *)
let rec walk t c =
  let i = probe t c in
  if t.keys.(i) <> 0 && t.cnt.(i) >= t.capacity then walk t t.nxt.(i) else c

let find_free t start =
  let free = walk t start in
  (* Path compression: repoint every full cycle on the chain at the answer. *)
  let c = ref start in
  while
    let i = probe t !c in
    if t.keys.(i) <> 0 && t.cnt.(i) >= t.capacity then begin
      let n = t.nxt.(i) in
      t.nxt.(i) <- free;
      c := n;
      !c <> free
    end
    else false
  do
    ()
  done;
  free

(* Tuple-free claim: the sub-slot lands in [last_slot] instead of a
   returned pair. *)
let claim_cycle t start =
  let cycle = find_free t (max 0 start) in
  let i = probe t cycle in
  let used =
    if t.keys.(i) = 0 then begin
      t.keys.(i) <- cycle + 1;
      t.cnt.(i) <- 0;
      t.nxt.(i) <- 0;
      t.occupied <- t.occupied + 1;
      0
    end
    else t.cnt.(i)
  in
  t.cnt.(i) <- used + 1;
  if used + 1 >= t.capacity then t.nxt.(i) <- cycle + 1;
  if cycle > t.hi then t.hi <- cycle;
  t.claimed <- t.claimed + 1;
  t.last_slot <- used;
  (* Keep the load factor under 5/8 so probes stay short (after all slot
     writes: growing rehashes and would invalidate [i]). *)
  if t.occupied * 8 > (t.mask + 1) * 5 then grow t;
  cycle

let claim t ready =
  Float.max ready (float_of_int (claim_cycle t (int_of_float (Float.ceil ready))))

let claim_slot t ready =
  let issue = claim t ready in
  (issue, t.last_slot)

let fold_from t ~from f acc =
  let acc = ref acc in
  for c = max 0 from to t.hi do
    let i = probe t c in
    if t.keys.(i) <> 0 then acc := f c t.cnt.(i) !acc
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
  (* Shrink pathologically grown tables back toward the initial footprint;
     otherwise keep the warm buffers for the next execution. *)
  if t.mask + 1 > 65536 then begin
    t.mask <- initial_size - 1;
    t.keys <- Array.make initial_size 0;
    t.cnt <- Array.make initial_size 0;
    t.nxt <- Array.make initial_size 0
  end
  else Array.fill t.keys 0 (t.mask + 1) 0;
  t.occupied <- 0;
  t.hi <- -1;
  t.claimed <- 0;
  t.last_slot <- 0
