type schedule = {
  ii : int;
  makespan : int;
  slots : (int * int) array;
}

(* OpenCGRA-style FU latencies: pipelined single-cycle integer units, short
   FP pipes, scratchpad-latency memory. *)
let op_latency (cls : Isa.op_class) =
  match cls with
  | Isa.C_alu | Isa.C_branch | Isa.C_jump | Isa.C_system -> 1
  | Isa.C_mul -> 2
  | Isa.C_div -> 12
  | Isa.C_fadd -> 2
  | Isa.C_fmul -> 2
  | Isa.C_fdiv -> 12
  | Isa.C_load | Isa.C_store -> 5

let node_latency (dfg : Dfg.t) j = op_latency (Isa.op_class dfg.Dfg.nodes.(j).Dfg.instr)

let resource_mii dfg ~pes = max 1 (Stats.div_ceil (Dfg.node_count dfg) pes)

let recurrence_mii (dfg : Dfg.t) =
  let compl_ =
    Dfg.completion_times dfg
      ~op_latency:(fun j -> float_of_int (node_latency dfg j))
      ~transfer:(fun _ _ -> 1.0)
  in
  let rec_len =
    List.fold_left
      (fun acc (_, _, src) ->
        match src with
        | Dfg.Node p -> Float.max acc compl_.(p)
        | Dfg.Reg_in _ -> acc)
      1.0 (Dfg.loop_carried dfg)
  in
  int_of_float (Float.ceil rec_len)

(* Try to build a modulo schedule at a fixed II: place nodes in program
   (topological) order, each on the (PE, cycle) pair that starts earliest
   among slots free modulo II, with Manhattan-distance routing delays. *)
let try_ii (dfg : Dfg.t) (grid : Grid.t) ii =
  let n = Dfg.node_count dfg in
  let pes = Grid.pe_count grid in
  let cols = grid.Grid.cols in
  let coord p = (p / cols, p mod cols) in
  let dist a b =
    let ar, ac = coord a and br, bc = coord b in
    abs (ar - br) + abs (ac - bc)
  in
  let used : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let slots = Array.make n (0, 0) in
  let finish = Array.make n 0 in
  let deps = Dfg.arrival_deps dfg in
  let place j =
    let best = ref None in
    for pe = 0 to pes - 1 do
      let ready =
        Array.fold_left
          (fun acc i ->
            let ppe, _ = slots.(i) in
            max acc (finish.(i) + max 1 (dist ppe pe)))
          0 deps.(j)
      in
      (* First free modulo slot at or after [ready], within one full II
         wrap (after that the PE is provably full at every phase). *)
      let rec find t =
        if t >= ready + ii then None
        else if Hashtbl.mem used (pe, t mod ii) then find (t + 1)
        else Some t
      in
      match find ready with
      | None -> ()
      | Some t -> (
        match !best with
        | Some (_, bt) when bt <= t -> ()
        | Some _ | None -> best := Some (pe, t))
    done;
    match !best with
    | None -> None
    | Some (pe, t) ->
      Hashtbl.replace used (pe, t mod ii) ();
      slots.(j) <- (pe, t);
      finish.(j) <- t + node_latency dfg j;
      Some ()
  in
  let rec go j =
    if j = n then
      let makespan = Array.fold_left max 0 finish in
      Some { ii; makespan; slots = Array.copy slots }
    else match place j with Some () -> go (j + 1) | None -> None
  in
  go 0

(* The II search gives up past this bound. *)
let max_ii = 128

let schedule dfg ~grid =
  let mii = max (resource_mii dfg ~pes:(Grid.pe_count grid)) (recurrence_mii dfg) in
  let rec search ii =
    if ii > max_ii then
      Error (Printf.sprintf "no modulo schedule up to II=%d" max_ii)
    else
      match try_ii dfg grid ii with
      | Some s -> Ok s
      | None -> search (ii + 1)
  in
  search (max 1 mii)

let ipc dfg s =
  float_of_int (Dfg.node_count dfg) /. float_of_int (max 1 s.makespan)
