let improvement_threshold = 0.05

(* Counter readouts come in as the engine window's stats snapshot: per-node
   firing histograms under "node.<i>.latency" and per-edge transfer
   histograms under "edge.<i>.<j>". The histogram mean over the window is
   exactly the running mean the old per-window accumulators reported. *)
let absorb model (res : Engine.result) =
  let m = res.Engine.measured in
  let n = Dfg.node_count (Perf_model.graph model) in
  for i = 0 to n - 1 do
    match Stats.find_hist m (Printf.sprintf "node.%d.latency" i) with
    | Some h when h.Stats.hcount > 0 ->
      let lat = Stats.hist_mean h in
      if lat > 0.0 then Perf_model.observe_op model i lat
    | Some _ | None -> ()
  done;
  List.iter
    (fun (rest, h) ->
      match String.split_on_char '.' rest with
      | [ i; j ] when h.Stats.hcount > 0 ->
        (match (int_of_string_opt i, int_of_string_opt j) with
        | Some i, Some j -> Perf_model.observe_transfer model i j (Stats.hist_mean h)
        | _ -> ())
      | _ -> ())
    (Stats.hists_under m "edge")

type outcome =
  | Keep of float
  | Adopt of { config : Accel_config.t; latency : float; previous : float }

let step ~grid ~kind ~model ~(current : Accel_config.t) =
  (* Compare both placements under the same analytic transfer model (with
     measured operation latencies): measured transfer samples embed the old
     placement's contention, which would bias the comparison toward any
     remap. *)
  Placement.seed_transfers current.Accel_config.placement model;
  let current_latency = Perf_model.iteration_latency model in
  match Mapper.map ~grid ~kind model with
  | Error _ ->
    Placement.seed_transfers current.Accel_config.placement model;
    Keep current_latency
  | Ok placement ->
    let candidate_latency = Perf_model.iteration_latency model in
    if candidate_latency < current_latency *. (1.0 -. improvement_threshold) then
      let config = { current with Accel_config.placement } in
      Adopt { config; latency = candidate_latency; previous = current_latency }
    else begin
      Placement.seed_transfers current.Accel_config.placement model;
      Keep current_latency
    end
