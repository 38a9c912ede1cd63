(* The timing plane shared by the event engine and the cost model. Both
   run exactly this arithmetic, so on value-independent loops they agree
   bit for bit; the engine only adds what depends on values (guards,
   dynamic aliasing, the live cache) and what observes (stats, activity,
   attribution, faults). *)

type kind = Int_op | Fp_op | Mem_op | Branch_op | Not_fabric

type t = {
  n : int;
  cls_lat : float array;
  long_op : bool array;
  kind : kind array;
  deps : int array array;
  base : float array array;
  slice : int array array;
  has_noc : bool array;
  carried : int array;
  forwarded : bool array;
  vector_member : bool array;
  claims_port : bool array;
  prefetched : bool array;
  tiling : int;
  nslices : int;
  pipelined : bool;
  placement : Placement.t;
}

let kind_of = function
  | Isa.Rtype _ | Isa.Itype _ | Isa.Lui _ | Isa.Auipc _ | Isa.Fmv_x_w _
  | Isa.Fmv_w_x _ ->
    Int_op
  | Isa.Load _ | Isa.Flw _ | Isa.Store _ | Isa.Fsw _ -> Mem_op
  | Isa.Branch _ -> Branch_op
  | Isa.Ftype _ | Isa.Fcmp _ | Isa.Fcvt_w_s _ | Isa.Fcvt_s_w _ -> Fp_op
  | Isa.Jal _ | Isa.Jalr _ | Isa.Ecall | Isa.Ebreak | Isa.Fence -> Not_fabric

let count (act : Activity.t) kind k =
  match kind with
  | Int_op -> act.int_ops <- act.int_ops + k
  | Fp_op -> act.fp_ops <- act.fp_ops + k
  | Mem_op -> act.mem_ops <- act.mem_ops + k
  | Branch_op -> act.branch_ops <- act.branch_ops + k
  | Not_fabric -> ()

let transfer pl i j = float_of_int (Placement.transfer pl i j)

let slice_of (pl : Placement.t) i j =
  match Placement.route pl i j with
  | Interconnect.Local -> -1
  | Interconnect.Noc -> Interconnect.noc_slice pl.grid (Placement.coord_of pl i)

let compile ~(config : Accel_config.t) ~(dfg : Dfg.t) =
  let pl = config.placement in
  let nodes = dfg.Dfg.nodes in
  let n = Array.length nodes in
  let cls = Array.map (fun nd -> Isa.op_class nd.Dfg.instr) nodes in
  let deps = Dfg.arrival_deps dfg in
  let per_edge f = Array.mapi (fun j ds -> Array.map (fun i -> f pl i j) ds) deps in
  let slice = per_edge slice_of in
  let mark l =
    let a = Array.make n false in
    List.iter (fun i -> a.(i) <- true) l;
    a
  in
  let is_load = Array.map (fun nd -> Isa.is_load nd.Dfg.instr) nodes in
  let forwarded = mark (List.map fst config.forwarding) in
  let vector_member =
    mark (List.concat_map (function [] -> [] | _ :: m -> m) config.vector_groups)
  in
  {
    n;
    cls_lat = Array.map (fun c -> float_of_int (Latency.accel c)) cls;
    long_op = Array.map (function Isa.C_div | Isa.C_fdiv -> true | _ -> false) cls;
    kind = Array.map (fun nd -> kind_of nd.Dfg.instr) nodes;
    deps;
    base = per_edge transfer;
    slice;
    has_noc = Array.map (Array.exists (fun s -> s >= 0)) slice;
    carried =
      Dfg.loop_carried dfg
      |> List.filter_map (fun (_, _, src) ->
             match src with Dfg.Node p -> Some p | Dfg.Reg_in _ -> None)
      |> Array.of_list;
    forwarded;
    vector_member;
    claims_port =
      Array.mapi
        (fun j nd ->
          kind_of nd.Dfg.instr = Mem_op
          && not (is_load.(j) && (forwarded.(j) || vector_member.(j))))
        nodes;
    prefetched = mark config.prefetched;
    tiling = max 1 config.tiling;
    nslices = Interconnect.slices pl.grid;
    pipelined = config.pipelined;
    placement = pl;
  }

(* The placement enters [compile] only through [base] and [slice]. Each
   edge writes its transfer latency, then its router slice renumbered in
   order of first use, plus one (0 for PE-local): one byte below 255, else
   255 and eight more, so the encoding is prefix-free. *)
let schedule_key ~dfg =
  let deps = Dfg.arrival_deps dfg in
  let edges = Array.fold_left (fun k ds -> k + Array.length ds) 0 deps in
  fun (pl : Placement.t) ->
    let key = Buffer.create (2 * edges) in
    let put v =
      if v < 255 then Buffer.add_char key (Char.unsafe_chr v)
      else begin
        Buffer.add_char key '\255';
        Buffer.add_int64_le key (Int64.of_int v)
      end
    in
    let renumbered = Array.make (Interconnect.slices pl.grid) 0 in
    let used = ref 0 in
    Array.iteri
      (fun j ds ->
        Array.iter
          (fun i ->
            put (Placement.transfer pl i j);
            let s = slice_of pl i j in
            if s < 0 then put 0
            else begin
              if renumbered.(s) = 0 then begin
                incr used;
                renumbered.(s) <- !used
              end;
              put renumbered.(s)
            end)
          ds)
      deps;
    Buffer.contents key

type bounds = {
  mutable latency : float;
  mutable rec_ : float;
  mutable mem : float;
  mutable fu : float;
  mutable ii : float;
  mutable makespan : float;
}

type firing = { mutable oplat : float; mutable port_wait : float }

type state = {
  ports : Contention.t;
  port_cap : int;
  noc : Contention.t option array;
  acquire : int -> Contention.t;
  next : float array;
  mutable floor : int;
  mutable floor_due : int;
  completes : float array;
  arrival : float array;
  uncontended : float array;
  argmax : int array;
  lat : float array;
  mutable accesses : int;
  mutable nclaims : int;
  claim_wait : float array;
  firing : firing;
  last : bounds;
}

let start ?(acquire = fun capacity -> Contention.create ~capacity) t ~ports =
  let port_cap = max 1 ports in
  let maxdeg = Array.fold_left (fun m d -> max m (Array.length d)) 0 t.deps in
  (* A firing claims at most one slice per in-edge, one alias edge and one
     port. *)
  let log_size = maxdeg + 2 in
  {
    ports = acquire port_cap;
    port_cap;
    noc = Array.make (t.tiling * t.nslices) None;
    acquire;
    next = Array.make t.tiling 0.0;
    floor = 0;
    floor_due = 0;
    completes = Array.make t.n 0.0;
    arrival = Array.make t.n 0.0;
    uncontended = Array.make t.n 0.0;
    argmax = Array.make t.n (-1);
    lat = Array.make (max 1 maxdeg) 0.0;
    accesses = 0;
    nclaims = 0;
    claim_wait = Array.make log_size 0.0;
    firing = { oplat = 0.0; port_wait = 0.0 };
    last = { latency = 0.0; rec_ = 0.0; mem = 0.0; fu = 0.0; ii = 0.0; makespan = 0.0 };
  }

(* Claim [table] at [ready]; log the queueing delay and return it. This is
   [Contention.claim] with the float arithmetic on this side of the call.
   Every float below is a cycle time, so {!Cycle_time} stands in for
   [Float]'s max, min, ceil and floor, which call C. *)
let[@inline] claim st table ready =
  let cycle = Contention.claim_cycle table ~floor:st.floor (Cycle_time.ceil_int ready) in
  let wait = Cycle_time.max ready (float_of_int cycle) -. ready in
  let k = st.nclaims in
  st.claim_wait.(k) <- wait;
  st.nclaims <- k + 1;
  wait

let router t st inst slice =
  let idx = (inst * t.nslices) + slice in
  match st.noc.(idx) with
  | Some c -> c
  | None ->
    let c = st.acquire 1 in
    st.noc.(idx) <- Some c;
    c

(* Equation 2 over [j]'s compiled in-edges: each edge's latency is its
   static transfer, plus the router queue when it crosses the NoC
   (injected at the producer's absolute completion, one transfer per
   slice per cycle). The running maximum and its producer stay in locals
   from an arrival of 0 with no producer, and each array is written once;
   a strict [>] keeps the first maximal producer. A node whose in-edges
   are all PE-local takes a loop with no router code, and every edge's
   latency is its [base], so its arrival is also its uncontended
   arrival. *)
let fold t st ~inst j =
  st.nclaims <- 0;
  let deps = t.deps.(j) and base = t.base.(j) and completes = st.completes in
  let arrival = ref 0.0 and argmax = ref (-1) in
  if not t.has_noc.(j) then begin
    for d = 0 to Array.length deps - 1 do
      let i = deps.(d) in
      let a = completes.(i) +. base.(d) in
      if a > !arrival then begin
        arrival := a;
        argmax := i
      end
    done;
    st.uncontended.(j) <- !arrival
  end
  else begin
    let slice = t.slice.(j) and ready = st.next.(inst) in
    let uncontended = ref 0.0 in
    for d = 0 to Array.length deps - 1 do
      let i = deps.(d) and b = base.(d) and s = slice.(d) in
      let c = completes.(i) in
      let lat =
        if s < 0 then b
        else begin
          let l = b +. claim st (router t st inst s) (ready +. c) in
          st.lat.(d) <- l;
          l
        end
      in
      if c +. lat > !arrival then begin
        arrival := c +. lat;
        argmax := i
      end;
      uncontended := Cycle_time.max !uncontended (c +. b)
    done;
    st.uncontended.(j) <- !uncontended
  end;
  st.arrival.(j) <- !arrival;
  st.argmax.(j) <- !argmax

(* One more edge after [fold] wrote [j]: the same rule, raising [j]'s
   arrays in place. *)
let[@inline] alias t st ~inst i j =
  let base = transfer t.placement i j and slice = slice_of t.placement i j in
  let c = st.completes.(i) in
  let lat =
    if slice < 0 then base
    else base +. claim st (router t st inst slice) (st.next.(inst) +. c)
  in
  if c +. lat > st.arrival.(j) then begin
    st.arrival.(j) <- c +. lat;
    st.argmax.(j) <- i
  end;
  st.uncontended.(j) <- Cycle_time.max st.uncontended.(j) (c +. base);
  lat

let[@inline] portless_latency t st j =
  st.accesses <- st.accesses + 1;
  if t.forwarded.(j) then 2.0 else 1.0

let[@inline] port_latency st ~inst ~service j =
  st.accesses <- st.accesses + 1;
  let wait = claim st st.ports (st.next.(inst) +. st.arrival.(j)) in
  st.firing.port_wait <- wait;
  wait +. service

(* The II rule given the iteration latency, the largest completion. *)
let[@inline] bound t st ~inst ~fu ~latency =
  let b = st.last in
  b.latency <- latency;
  b.makespan <- Cycle_time.max b.makespan (st.next.(inst) +. latency);
  if t.pipelined then begin
    let r = ref 1.0 in
    for k = 0 to Array.length t.carried - 1 do
      r := Cycle_time.max !r st.completes.(t.carried.(k))
    done;
    let mem = float_of_int (Stats.div_ceil st.accesses st.port_cap) in
    b.rec_ <- !r;
    b.mem <- mem;
    b.fu <- fu;
    b.ii <- Cycle_time.max (Cycle_time.max !r mem) fu
  end
  else begin
    b.ii <- latency +. 1.0;
    b.rec_ <- b.ii;
    b.mem <- 0.0;
    b.fu <- 0.0
  end;
  st.accesses <- 0;
  st.next.(inst) <- st.next.(inst) +. b.ii

let initiate t st ~inst ~fu =
  (* A loop, not [Array.fold_left Cycle_time.max]: the closure would box
     every partial maximum. *)
  let latency = ref 0.0 in
  for j = 0 to t.n - 1 do
    latency := Cycle_time.max !latency st.completes.(j)
  done;
  bound t st ~inst ~fu ~latency:!latency

(* Every claim of an iteration is ready at [next.(inst)] plus an arrival
   or a completion (both >= 0), and [next] only grows, so no claim from
   here on starts below the earliest initiation: the tables may forget the
   cycles behind it. A floor taken earlier stays below every clock, so it
   is rescanned once per [tiling] steps rather than on each: at M-512 a
   loop runs 85 instances, and the per-step scan cost more than the
   iteration's own arithmetic. *)
let set_floor st =
  let m = ref st.next.(0) in
  for k = 1 to Array.length st.next - 1 do
    m := Cycle_time.min !m st.next.(k)
  done;
  st.floor <- Cycle_time.floor_int !m

let step t st ~inst ~fire =
  if st.floor_due = 0 then begin
    set_floor st;
    st.floor_due <- t.tiling
  end;
  st.floor_due <- st.floor_due - 1;
  (* The iteration latency is kept as a running maximum of the
     completions, in node order as [initiate] scans them: each node's
     completion is set once per step. *)
  let fu = ref 1.0 and latency = ref 0.0 in
  for j = 0 to t.n - 1 do
    fold t st ~inst j;
    st.firing.port_wait <- 0.0;
    fire ~inst j;
    let oplat = st.firing.oplat in
    if t.long_op.(j) then fu := Cycle_time.max !fu oplat;
    let c = st.arrival.(j) +. oplat in
    st.completes.(j) <- c;
    latency := Cycle_time.max !latency c
  done;
  bound t st ~inst ~fu:!fu ~latency:!latency

let router_use t st =
  Array.to_list st.noc
  |> List.mapi (fun idx c -> (idx mod t.nslices, c))
  |> List.filter_map (fun (slice, c) ->
         Option.map
           (fun c -> (slice, Contention.claimed c, Contention.busy_cycles c))
           c)

let port_use st = (Contention.claimed st.ports, Contention.busy_cycles st.ports)
