type t = {
  dfg : Dfg.t;
  defaults : float array;              (* static op latency per node *)
  op_measured : Stats.Running.t array;
  transfer_estimate : (int * int, float) Hashtbl.t;
  transfer_measured : (int * int, Stats.Running.t) Hashtbl.t;
}

let create dfg =
  let n = Dfg.node_count dfg in
  {
    dfg;
    defaults =
      Array.init n (fun i ->
          float_of_int (Latency.accel (Isa.op_class dfg.Dfg.nodes.(i).Dfg.instr)));
    op_measured = Array.init n (fun _ -> Stats.Running.create ());
    transfer_estimate = Hashtbl.create 64;
    transfer_measured = Hashtbl.create 64;
  }

let graph t = t.dfg
let op_latency t i = Stats.Running.mean_or t.op_measured.(i) t.defaults.(i)
let observe_op t i x = Stats.Running.add t.op_measured.(i) x

let transfer t i j =
  match Hashtbl.find_opt t.transfer_measured (i, j) with
  | Some r when Stats.Running.count r > 0 -> Stats.Running.mean r
  | Some _ | None -> (
    match Hashtbl.find_opt t.transfer_estimate (i, j) with
    | Some e -> e
    | None -> 1.0)

let set_transfer_estimate t i j e =
  Hashtbl.replace t.transfer_estimate (i, j) e;
  Hashtbl.remove t.transfer_measured (i, j)

let observe_transfer t i j x =
  let r =
    match Hashtbl.find_opt t.transfer_measured (i, j) with
    | Some r -> r
    | None ->
      let r = Stats.Running.create () in
      Hashtbl.add t.transfer_measured (i, j) r;
      r
  in
  Stats.Running.add r x

let iteration_latency t =
  Dfg.iteration_latency t.dfg ~op_latency:(op_latency t) ~transfer:(transfer t)

let completion_times t =
  Dfg.completion_times t.dfg ~op_latency:(op_latency t) ~transfer:(transfer t)

let critical_path t =
  Dfg.critical_path t.dfg ~op_latency:(op_latency t) ~transfer:(transfer t)

