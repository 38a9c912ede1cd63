type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ~size_bytes ~ways ~line_bytes ~hit_latency =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.config: line size must be a power of two";
  if ways <= 0 then invalid_arg "Cache.config: ways must be positive";
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.config: capacity not divisible by ways * line size";
  let sets = size_bytes / (ways * line_bytes) in
  if not (is_pow2 sets) then invalid_arg "Cache.config: set count must be a power of two";
  if hit_latency < 0 then invalid_arg "Cache.config: negative hit latency";
  { size_bytes; ways; line_bytes; hit_latency }

type outcome = Hit | Miss_clean | Miss_dirty

(* Each set's lines live in one block of [3 * ways] ints laid out
   [tags | meta | lru], where [meta] packs the valid (bit 0) and dirty
   (bit 1) flags. A set gets its block on its first access; until then it
   holds the shared zero-length [untouched] block and reads as all-invalid.
   The sets sit in chunks of up to 256 (a minor-heap block of pointers),
   allocated on the first access to one of their sets; until then a slot
   holds the shared empty [absent] chunk. The 8 MiB L2's 16,384 sets need
   64 chunk slots, so creating a cache allocates nothing on the major
   heap, and {!invalidate_all} points every slot back at [absent]. *)
type t = {
  cfg : config;
  chunks : int array array array;
  set_mask : int;
  line_shift : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let chunk_bits = 8
let untouched : int array = [||]
let absent : int array array = [||]

let create cfg =
  let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  let line_shift =
    let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
    go cfg.line_bytes 0
  in
  {
    cfg;
    chunks = Array.make (((nsets - 1) lsr chunk_bits) + 1) absent;
    set_mask = nsets - 1;
    line_shift;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let geometry t = t.cfg

(* First way from [i] of block [b] holding a valid line with this tag, or
   -1. Every variable is a parameter: a local recursive closure over
   [ways], [b] and [tag] would be allocated on every lookup. *)
let rec find_way ways b tag i =
  if i = ways then -1
  else if b.(ways + i) land 1 <> 0 && b.(i) = tag then i
  else find_way ways b tag (i + 1)

(* The first access to a chunk, or to a set, allocates it. *)
let new_chunk t set =
  let c = Array.make (min (1 lsl chunk_bits) (t.set_mask + 1)) untouched in
  t.chunks.(set lsr chunk_bits) <- c;
  c

let new_block c set ways =
  let b = Array.make (3 * ways) 0 in
  c.(set land ((1 lsl chunk_bits) - 1)) <- b;
  b

let access t addr ~write =
  t.clock <- t.clock + 1;
  let tag = addr lsr t.line_shift in
  let set = tag land t.set_mask in
  let ways = t.cfg.ways in
  let c = t.chunks.(set lsr chunk_bits) in
  let c = if Array.length c > 0 then c else new_chunk t set in
  let b = c.(set land ((1 lsl chunk_bits) - 1)) in
  let b = if Array.length b > 0 then b else new_block c set ways in
  let i = find_way ways b tag 0 in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    b.((2 * ways) + i) <- t.clock;
    if write then b.(ways + i) <- b.(ways + i) lor 2;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Choose an invalid way if any, else the LRU way (first strict minimum
       in way order). *)
    let best = ref 0 in
    for k = 0 to ways - 1 do
      if b.(ways + k) land 1 = 0 then begin
        if b.(ways + !best) land 1 <> 0 then best := k
      end
      else if
        b.(ways + !best) land 1 <> 0 && b.((2 * ways) + k) < b.((2 * ways) + !best)
      then best := k
    done;
    let v = !best in
    let dirty_eviction = b.(ways + v) land 3 = 3 in
    if dirty_eviction then t.writebacks <- t.writebacks + 1;
    b.(v) <- tag;
    b.(ways + v) <- (if write then 3 else 1);
    b.((2 * ways) + v) <- t.clock;
    if dirty_eviction then Miss_dirty else Miss_clean
  end

let probe t addr =
  let tag = addr lsr t.line_shift in
  let set = tag land t.set_mask in
  let c = t.chunks.(set lsr chunk_bits) in
  Array.length c > 0
  &&
  let b = c.(set land ((1 lsl chunk_bits) - 1)) in
  Array.length b > 0 && find_way t.cfg.ways b tag 0 >= 0

let invalidate_all t = Array.fill t.chunks 0 (Array.length t.chunks) absent

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let accesses t = t.hits + t.misses

let hit_rate t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let reset t =
  invalidate_all t;
  reset_stats t;
  t.clock <- 0

let register_stats t grp =
  Stats.int_probe grp "hits" (fun () -> t.hits);
  Stats.int_probe grp "misses" (fun () -> t.misses);
  Stats.int_probe grp "writebacks" (fun () -> t.writebacks);
  Stats.int_probe grp "accesses" (fun () -> accesses t);
  Stats.derived grp "hit_rate" (fun () -> hit_rate t)
