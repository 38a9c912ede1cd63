type bucket =
  | Busy
  | Recurrence_wait
  | Mem_port_stall
  | Noc_stall
  | Long_op
  | Config
  | Drain
  | Idle
  | Masked_faulty

let buckets =
  [
    Busy; Recurrence_wait; Mem_port_stall; Noc_stall; Long_op; Config; Drain;
    Idle; Masked_faulty;
  ]

let bucket_count = List.length buckets

let bucket_index = function
  | Busy -> 0
  | Recurrence_wait -> 1
  | Mem_port_stall -> 2
  | Noc_stall -> 3
  | Long_op -> 4
  | Config -> 5
  | Drain -> 6
  | Idle -> 7
  | Masked_faulty -> 8

let bucket_of_index = Array.of_list buckets

let bucket_name = function
  | Busy -> "busy"
  | Recurrence_wait -> "recurrence_wait"
  | Mem_port_stall -> "mem_port_stall"
  | Noc_stall -> "noc_stall"
  | Long_op -> "long_op"
  | Config -> "config"
  | Drain -> "drain"
  | Idle -> "idle"
  | Masked_faulty -> "masked_faulty"

let bucket_of_name name =
  List.find_opt (fun b -> bucket_name b = name) buckets

(* A bounded ring of attributed intervals, for the timeline: [len] live
   entries ending at [head] (exclusive). Times are absolute (wall-clock)
   cycles; durations are positive. The fields sit in parallel arrays, so a
   push stores unboxed floats and allocates nothing. *)
type ring = {
  starts : float array;
  durs : float array;
  kinds : int array;  (* bucket indices *)
  mutable head : int;
  mutable len : int;
}

let ring_create capacity =
  {
    starts = Array.make capacity 0.0;
    durs = Array.make capacity 0.0;
    kinds = Array.make capacity 0;
    head = 0;
    len = 0;
  }

let[@inline] ring_push r start dur kind =
  let cap = Array.length r.starts in
  r.starts.(r.head) <- start;
  r.durs.(r.head) <- dur;
  r.kinds.(r.head) <- kind;
  r.head <- (if r.head + 1 = cap then 0 else r.head + 1);
  if r.len < cap then r.len <- r.len + 1

(* [f start dur kind] over the live entries, oldest first. *)
let ring_to_list r f =
  let cap = Array.length r.starts in
  let out = ref [] in
  for k = 0 to r.len - 1 do
    (* newest first, accumulate into oldest-first list *)
    let i = (r.head - 1 - k + (2 * cap)) mod cap in
    out := f r.starts.(i) r.durs.(i) r.kinds.(i) :: !out
  done;
  !out

type lane = {
  sums : float array;        (* bucket_count float cycles *)
  mutable w_ops : int;       (* firings charged this window *)
  ring : ring;
}

(* State saved at [begin_window] so a faulted window can be discarded. *)
type snapshot = {
  s_sums : float array array;
  s_ring : (int * int) array;       (* (head, len) per lane *)
  s_port_ring : (int * int) array;
  s_engine_cycles : int;
  s_config : int;
  s_windows : int;
  s_iterations : int;
  s_noc_claims : int array;
  s_noc_busy : int array;
  s_port_claims : int;
  s_port_busy : int;
  s_ii : float array;               (* rec/mem/fu/achieved sums *)
  s_ii_counts : int array;          (* iters, rec-, mem-, fu-bound *)
}

type t = {
  grid : Grid.t;
  lanes : lane array;
  cursors : float array;
      (* per lane, the window-relative last attributed time: a float array,
         so that advancing it stores unboxed *)
  port_rings : ring array;
  mutable w_at : float;             (* wall-clock start of current window *)
  mutable engine_cycles : int;
  mutable config : int;
  mutable windows : int;
  mutable iterations : int;
  noc_claims_a : int array;
  noc_busy_a : int array;
  mutable port_claims_n : int;
  mutable port_busy_n : int;
  ii_sums : float array;            (* rec, mem, fu, achieved *)
  ii_counts : int array;            (* iters, rec-bound, mem-bound, fu-bound *)
  mutable snap : snapshot option;
}

let create ?(ring = 256) ~(grid : Grid.t) () =
  if ring <= 0 then invalid_arg "Attribution.create: ring must be positive";
  let nlanes = (grid.Grid.rows * grid.Grid.cols) + grid.Grid.ls_entries in
  {
    grid;
    lanes =
      Array.init nlanes (fun _ ->
          {
            sums = Array.make bucket_count 0.0;
            w_ops = 0;
            ring = ring_create ring;
          });
    cursors = Array.make nlanes 0.0;
    port_rings = Array.init (max 1 grid.Grid.mem_ports) (fun _ -> ring_create ring);
    w_at = 0.0;
    engine_cycles = 0;
    config = 0;
    windows = 0;
    iterations = 0;
    noc_claims_a = Array.make (Interconnect.slices grid) 0;
    noc_busy_a = Array.make (Interconnect.slices grid) 0;
    port_claims_n = 0;
    port_busy_n = 0;
    ii_sums = Array.make 4 0.0;
    ii_counts = Array.make 4 0;
    snap = None;
  }

let grid t = t.grid
let lane_count t = Array.length t.lanes

let pe_lane t (c : Grid.coord) = (c.Grid.row * t.grid.Grid.cols) + c.Grid.col
let ls_lane t e = (t.grid.Grid.rows * t.grid.Grid.cols) + e
let lane_is_pe t lane = lane < t.grid.Grid.rows * t.grid.Grid.cols

let lane_label t lane =
  if lane_is_pe t lane then
    Printf.sprintf "pe_%d_%d" (lane / t.grid.Grid.cols) (lane mod t.grid.Grid.cols)
  else Printf.sprintf "ls_%d" (lane - (t.grid.Grid.rows * t.grid.Grid.cols))

(* ------------------------------------------------------------------ *)
(* Window bracketing. *)

let begin_window t ~at =
  t.w_at <- at;
  Array.fill t.cursors 0 (Array.length t.cursors) 0.0;
  Array.iter (fun ln -> ln.w_ops <- 0) t.lanes;
  t.snap <-
    Some
      {
        s_sums = Array.map (fun ln -> Array.copy ln.sums) t.lanes;
        s_ring = Array.map (fun ln -> (ln.ring.head, ln.ring.len)) t.lanes;
        s_port_ring = Array.map (fun r -> (r.head, r.len)) t.port_rings;
        s_engine_cycles = t.engine_cycles;
        s_config = t.config;
        s_windows = t.windows;
        s_iterations = t.iterations;
        s_noc_claims = Array.copy t.noc_claims_a;
        s_noc_busy = Array.copy t.noc_busy_a;
        s_port_claims = t.port_claims_n;
        s_port_busy = t.port_busy_n;
        s_ii = Array.copy t.ii_sums;
        s_ii_counts = Array.copy t.ii_counts;
      }

let abort_window t =
  match t.snap with
  | None -> ()
  | Some s ->
    Array.iteri
      (fun i ln ->
        Array.blit s.s_sums.(i) 0 ln.sums 0 bucket_count;
        let head, len = s.s_ring.(i) in
        ln.ring.head <- head;
        ln.ring.len <- len;
        ln.w_ops <- 0)
      t.lanes;
    Array.fill t.cursors 0 (Array.length t.cursors) 0.0;
    Array.iteri
      (fun i r ->
        let head, len = s.s_port_ring.(i) in
        r.head <- head;
        r.len <- len)
      t.port_rings;
    t.engine_cycles <- s.s_engine_cycles;
    t.config <- s.s_config;
    t.windows <- s.s_windows;
    t.iterations <- s.s_iterations;
    Array.blit s.s_noc_claims 0 t.noc_claims_a 0 (Array.length t.noc_claims_a);
    Array.blit s.s_noc_busy 0 t.noc_busy_a 0 (Array.length t.noc_busy_a);
    t.port_claims_n <- s.s_port_claims;
    t.port_busy_n <- s.s_port_busy;
    Array.blit s.s_ii 0 t.ii_sums 0 4;
    Array.blit s.s_ii_counts 0 t.ii_counts 0 4;
    t.snap <- None

(* Charge [dur] cycles of [bucket] on [ln] starting at window-relative
   [from]. Inlined, like every function below that takes a float: a call
   that is not inlined boxes each float argument. *)
let[@inline] seg t ln ~from bucket dur =
  if dur > 0.0 then begin
    let b = bucket_index bucket in
    ln.sums.(b) <- ln.sums.(b) +. dur;
    ring_push ln.ring (t.w_at +. from) dur b
  end

let charge_config t cycles =
  if cycles < 0 then invalid_arg "Attribution.charge_config: negative cycles";
  if cycles > 0 then begin
    let d = float_of_int cycles in
    Array.iter (fun ln -> ln.sums.(bucket_index Config) <- ln.sums.(bucket_index Config) +. d)
      t.lanes;
    t.config <- t.config + cycles
  end

(* ------------------------------------------------------------------ *)
(* Engine-side recording. *)

(* [Float.max 0.0 x] and [Float.min a b] for the values charged here,
   which are never NaN, without [Stdlib.Float]'s calls. *)
let[@inline] nonneg x = if x > 0.0 then x else 0.0
let[@inline] fmin (a : float) b = if b < a then b else a

let[@inline] charge_op t ~lane ~start ~noc_wait ~port_wait ~service ~long_op =
  let ln = t.lanes.(lane) and cursors = t.cursors in
  ln.w_ops <- ln.w_ops + 1;
  (if start > cursors.(lane) then begin
     (* Waiting for inputs: the portion attributable to NoC queueing on the
        critical input sits immediately before [start]; anything earlier is
        dependence (recurrence) wait. *)
     let cursor = cursors.(lane) in
     let gap = start -. cursor in
     let noc = fmin gap (nonneg noc_wait) in
     let rec_wait = gap -. noc in
     seg t ln ~from:cursor Recurrence_wait rec_wait;
     seg t ln ~from:(cursor +. rec_wait) Noc_stall noc;
     cursors.(lane) <- start
   end);
  (* The op itself: port queue, then service. Overlap with time already
     attributed (pipelined or tiled firings out of order) is clipped. *)
  let p_end = start +. nonneg port_wait in
  if p_end > cursors.(lane) then begin
    seg t ln ~from:cursors.(lane) Mem_port_stall (p_end -. cursors.(lane));
    cursors.(lane) <- p_end
  end;
  let s_end = start +. nonneg port_wait +. nonneg service in
  if s_end > cursors.(lane) then begin
    seg t ln ~from:cursors.(lane) (if long_op then Long_op else Busy)
      (s_end -. cursors.(lane));
    cursors.(lane) <- s_end
  end

let[@inline] observe_ii t ~rec_ ~mem ~fu ~achieved =
  t.ii_sums.(0) <- t.ii_sums.(0) +. rec_;
  t.ii_sums.(1) <- t.ii_sums.(1) +. mem;
  t.ii_sums.(2) <- t.ii_sums.(2) +. fu;
  t.ii_sums.(3) <- t.ii_sums.(3) +. achieved;
  t.ii_counts.(0) <- t.ii_counts.(0) + 1;
  let d =
    if rec_ >= mem && rec_ >= fu then 1 else if mem >= fu then 2 else 3
  in
  t.ii_counts.(d) <- t.ii_counts.(d) + 1

let note_noc_slice t ~slice ~claims ~busy =
  if slice >= 0 && slice < Array.length t.noc_claims_a then begin
    t.noc_claims_a.(slice) <- t.noc_claims_a.(slice) + claims;
    t.noc_busy_a.(slice) <- t.noc_busy_a.(slice) + busy
  end

let[@inline] note_port_access t ~port ~issue ~service =
  if port >= 0 && port < Array.length t.port_rings then
    ring_push t.port_rings.(port) (t.w_at +. issue) service 0

let note_port_totals t ~claims ~busy =
  t.port_claims_n <- t.port_claims_n + claims;
  t.port_busy_n <- t.port_busy_n + busy

let end_window t ~(grid : Grid.t) ~cycles ~iterations =
  let cf = float_of_int cycles in
  Array.iteri
    (fun i ln ->
      let tail = cf -. t.cursors.(i) in
      let bucket =
        if lane_is_pe t i then begin
          let c = Grid.coord (i / t.grid.Grid.cols) (i mod t.grid.Grid.cols) in
          if Grid.is_masked grid c then Masked_faulty
          else if ln.w_ops = 0 then Idle
          else Drain
        end
        else if ln.w_ops = 0 then Idle
        else Drain
      in
      seg t ln ~from:t.cursors.(i) bucket tail;
      t.cursors.(i) <- cf)
    t.lanes;
  t.engine_cycles <- t.engine_cycles + cycles;
  t.windows <- t.windows + 1;
  t.iterations <- t.iterations + iterations

(* ------------------------------------------------------------------ *)
(* Readout. *)

let windows t = t.windows
let iterations t = t.iterations
let engine_cycles t = t.engine_cycles
let config_cycles t = t.config
let total_cycles t = t.engine_cycles + t.config

(* Largest-remainder quantization: integer cycles per bucket summing to
   exactly [total]. Floors first; the residue (positive from dropped
   fractions, or negative from accumulated float error) is distributed by
   fractional part, ties broken by bucket index — fully deterministic. *)
let quantize ~total sums =
  let n = Array.length sums in
  let floors = Array.map (fun s -> max 0 (int_of_float (Float.floor s))) sums in
  let rem = ref (total - Array.fold_left ( + ) 0 floors) in
  let frac i = sums.(i) -. Float.of_int floors.(i) in
  let order =
    List.sort
      (fun a b ->
        match compare (frac b) (frac a) with 0 -> compare a b | c -> c)
      (List.init n Fun.id)
  in
  let out = Array.copy floors in
  (* Positive residue: award to the largest fractional parts. *)
  let give = List.to_seq order |> Array.of_seq in
  let k = ref 0 in
  while !rem > 0 do
    let i = give.(!k mod n) in
    out.(i) <- out.(i) + 1;
    decr rem;
    incr k
  done;
  (* Negative residue: take from the smallest fractional parts with mass. *)
  let k = ref (n - 1) in
  while !rem < 0 do
    let i = give.(((!k mod n) + n) mod n) in
    if out.(i) > 0 then begin
      out.(i) <- out.(i) - 1;
      incr rem
    end;
    decr k
  done;
  out

let lane_buckets t lane = quantize ~total:(total_cycles t) t.lanes.(lane).sums

let totals t =
  let acc = Array.make bucket_count 0 in
  Array.iteri
    (fun i _ ->
      let b = lane_buckets t i in
      Array.iteri (fun j v -> acc.(j) <- acc.(j) + v) b)
    t.lanes;
  acc

let lane_intervals t lane =
  ring_to_list t.lanes.(lane).ring (fun start dur kind ->
      (start, dur, bucket_of_index.(kind)))

let port_intervals t port =
  ring_to_list t.port_rings.(port) (fun start dur _ -> (start, dur))

let port_count t = Array.length t.port_rings
let noc_claims t = Array.copy t.noc_claims_a
let noc_busy t = Array.copy t.noc_busy_a
let port_claims t = t.port_claims_n
let port_busy t = t.port_busy_n

type ii_summary = {
  ii_iterations : int;
  ii_mean : float;
  ii_rec_mean : float;
  ii_mem_mean : float;
  ii_fu_mean : float;
  ii_rec_bound : int;
  ii_mem_bound : int;
  ii_fu_bound : int;
}

let ii_summary t =
  let n = t.ii_counts.(0) in
  let mean s = if n = 0 then 0.0 else s /. float_of_int n in
  {
    ii_iterations = n;
    ii_mean = mean t.ii_sums.(3);
    ii_rec_mean = mean t.ii_sums.(0);
    ii_mem_mean = mean t.ii_sums.(1);
    ii_fu_mean = mean t.ii_sums.(2);
    ii_rec_bound = t.ii_counts.(1);
    ii_mem_bound = t.ii_counts.(2);
    ii_fu_bound = t.ii_counts.(3);
  }
