type t = {
  kernel : string;
  grid_name : string;
  rows : int;
  cols : int;
  ls_entries : int;
  mem_ports : int;
  total_cycles : int;
  accel_cycles : int;
  config_cycles : int;
  attributed_cycles : int;
  iterations : int;
  windows : int;
  lane_labels : string array;
  lane_buckets : int array array;
  totals : int array;
  ii : Attribution.ii_summary;
  critical_path : int list;
  critical_path_latency : float;
  critical_path_pct : float;
  noc_claims : int array;
  noc_busy : int array;
  port_claims : int;
  port_busy : int;
  mem_levels : (string * int) list;
  dominant : Attribution.bucket;
}

let schema = "mesa-profile-v1"

(* Buckets that count as a bottleneck when naming the dominant stall: time
   doing useful work (Busy), winding down (Drain) or on lanes the SDFG never
   used (Idle/Masked) is not a stall to chase. *)
let stall_buckets =
  Attribution.
    [ Recurrence_wait; Mem_port_stall; Noc_stall; Long_op; Config ]

let dominant_of totals =
  List.fold_left
    (fun best b ->
      let v = totals.(Attribution.bucket_index b) in
      match best with
      | Some (_, bv) when bv >= v -> best
      | _ -> Some (b, v))
    None stall_buckets
  |> Option.get |> fst

(* Everything but the run's total, its memory mix and the critical path
   to report is read off the collector. *)
let build ~kernel ~total_cycles ~mem_levels ~critical_path:(cp_nodes, cp_lat, cp_pct)
    (a : Attribution.t) =
  let grid = Attribution.grid a in
  let nlanes = Attribution.lane_count a in
  let totals = Attribution.totals a in
  {
    kernel;
    grid_name = grid.Grid.name;
    rows = grid.Grid.rows;
    cols = grid.Grid.cols;
    ls_entries = grid.Grid.ls_entries;
    mem_ports = grid.Grid.mem_ports;
    total_cycles;
    accel_cycles = Attribution.engine_cycles a;
    config_cycles = Attribution.config_cycles a;
    attributed_cycles = Attribution.total_cycles a;
    iterations = Attribution.iterations a;
    windows = Attribution.windows a;
    lane_labels = Array.init nlanes (Attribution.lane_label a);
    lane_buckets = Array.init nlanes (Attribution.lane_buckets a);
    totals;
    ii = Attribution.ii_summary a;
    critical_path = cp_nodes;
    critical_path_latency = cp_lat;
    critical_path_pct = cp_pct;
    noc_claims = Attribution.noc_claims a;
    noc_busy = Attribution.noc_busy a;
    port_claims = Attribution.port_claims a;
    port_busy = Attribution.port_busy a;
    mem_levels;
    dominant = dominant_of totals;
  }

let of_report ~kernel (report : Controller.report) =
  match report.Controller.attribution with
  | None -> Error "report carries no attribution (run with profile:true)"
  | Some a ->
    (* The dominant region (most fabric cycles) carries the critical path
       the one-liner reports. *)
    let critical_path =
      let best =
        List.fold_left
          (fun best (r : Controller.region_report) ->
            match best with
            | Some (b : Controller.region_report)
              when b.Controller.accel_cycles >= r.Controller.accel_cycles ->
              best
            | _ -> if r.Controller.accepted then Some r else best)
          None report.Controller.regions
      in
      match best with
      | None -> ([], 0.0, 0.0)
      | Some r ->
        let pct =
          100.0
          *. r.Controller.critical_path_latency
          *. float_of_int r.Controller.accel_iterations
          /. float_of_int (max 1 r.Controller.accel_cycles)
        in
        (r.Controller.critical_path, r.Controller.critical_path_latency, pct)
    in
    Ok
      (build ~kernel ~total_cycles:report.Controller.total_cycles
         ~mem_levels:(Hierarchy.level_counts report.Controller.hier) ~critical_path a)

let of_attribution ~kernel ~critical_path:(cp_nodes, cp_lat) (a : Attribution.t) =
  let cp_pct =
    100.0 *. cp_lat
    *. float_of_int (Attribution.iterations a)
    /. float_of_int (max 1 (Attribution.engine_cycles a))
  in
  build ~kernel ~total_cycles:(Attribution.total_cycles a) ~mem_levels:[]
    ~critical_path:(cp_nodes, cp_lat, cp_pct) a

let closes t =
  Array.for_all
    (fun b -> Array.fold_left ( + ) 0 b = t.attributed_cycles)
    t.lane_buckets
  && Array.fold_left ( + ) 0 t.totals
     = t.attributed_cycles * Array.length t.lane_buckets

(* ------------------------------------------------------------------ *)
(* JSON (the stable mesa-profile-v1 schema). *)

let buckets_json b =
  Json.Assoc
    (List.map
       (fun bk -> (Attribution.bucket_name bk, Json.Int b.(Attribution.bucket_index bk)))
       Attribution.buckets)

let int_array_json a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

let to_json t =
  Json.Assoc
    [
      ("schema", Json.String schema);
      ("kernel", Json.String t.kernel);
      ( "grid",
        Json.Assoc
          [
            ("name", Json.String t.grid_name);
            ("rows", Json.Int t.rows);
            ("cols", Json.Int t.cols);
            ("ls_entries", Json.Int t.ls_entries);
            ("mem_ports", Json.Int t.mem_ports);
          ] );
      ( "cycles",
        Json.Assoc
          [
            ("total", Json.Int t.total_cycles);
            ("accel", Json.Int t.accel_cycles);
            ("config", Json.Int t.config_cycles);
            ("attributed", Json.Int t.attributed_cycles);
          ] );
      ("iterations", Json.Int t.iterations);
      ("windows", Json.Int t.windows);
      ("buckets", buckets_json t.totals);
      ( "lanes",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i b ->
                  Json.Assoc
                    [
                      ("lane", Json.String t.lane_labels.(i));
                      ("buckets", buckets_json b);
                    ])
                t.lane_buckets)) );
      ( "ii",
        Json.Assoc
          [
            ("iterations", Json.Int t.ii.Attribution.ii_iterations);
            ("mean", Json.Float t.ii.Attribution.ii_mean);
            ("rec_mean", Json.Float t.ii.Attribution.ii_rec_mean);
            ("mem_mean", Json.Float t.ii.Attribution.ii_mem_mean);
            ("fu_mean", Json.Float t.ii.Attribution.ii_fu_mean);
            ("rec_bound", Json.Int t.ii.Attribution.ii_rec_bound);
            ("mem_bound", Json.Int t.ii.Attribution.ii_mem_bound);
            ("fu_bound", Json.Int t.ii.Attribution.ii_fu_bound);
          ] );
      ( "critical_path",
        Json.Assoc
          [
            ("nodes", Json.List (List.map (fun n -> Json.Int n) t.critical_path));
            ("latency", Json.Float t.critical_path_latency);
            ("pct", Json.Float t.critical_path_pct);
          ] );
      ( "noc",
        Json.Assoc
          [
            ("claims", int_array_json t.noc_claims);
            ("busy", int_array_json t.noc_busy);
          ] );
      ( "ports",
        Json.Assoc
          [ ("claims", Json.Int t.port_claims); ("busy", Json.Int t.port_busy) ]
      );
      ("mem", Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) t.mem_levels));
      ("dominant_stall", Json.String (Attribution.bucket_name t.dominant));
    ]

let read_buckets j =
  let b = Array.make Attribution.bucket_count 0 in
  List.iter
    (fun bk ->
      b.(Attribution.bucket_index bk) <- Json.field (Attribution.bucket_name bk) Json.int j)
    Attribution.buckets;
  b

let of_json =
  Json.decode ~what:"profile" (fun j ->
      let open Json in
      let s = field "schema" string j in
      if s <> schema then fail "unsupported schema %S (want %S)" s schema;
      let kernel = field "kernel" string j in
      let grid = field "grid" Fun.id j in
      let grid_name = field "name" string grid in
      let rows = field "rows" int grid in
      let cols = field "cols" int grid in
      let ls_entries = field "ls_entries" int grid in
      let mem_ports = field "mem_ports" int grid in
      let cycles = field "cycles" Fun.id j in
      let total_cycles = field "total" int cycles in
      let accel_cycles = field "accel" int cycles in
      let config_cycles = field "config" int cycles in
      let attributed_cycles = field "attributed" int cycles in
      let iterations = field "iterations" int j in
      let windows = field "windows" int j in
      let totals = field "buckets" read_buckets j in
      let lanes =
        field "lanes" (list (fun l -> (field "lane" string l, field "buckets" read_buckets l))) j
      in
      let ii = field "ii" Fun.id j in
      let ii_iterations = field "iterations" int ii in
      let ii_mean = field "mean" float ii in
      let ii_rec_mean = field "rec_mean" float ii in
      let ii_mem_mean = field "mem_mean" float ii in
      let ii_fu_mean = field "fu_mean" float ii in
      let ii_rec_bound = field "rec_bound" int ii in
      let ii_mem_bound = field "mem_bound" int ii in
      let ii_fu_bound = field "fu_bound" int ii in
      let cp = field "critical_path" Fun.id j in
      let critical_path = field "nodes" (list int) cp in
      let critical_path_latency = field "latency" float cp in
      let critical_path_pct = field "pct" float cp in
      let noc = field "noc" Fun.id j in
      let noc_claims = Array.of_list (field "claims" (list int) noc) in
      let noc_busy = Array.of_list (field "busy" (list int) noc) in
      let ports = field "ports" Fun.id j in
      let port_claims = field "claims" int ports in
      let port_busy = field "busy" int ports in
      let mem_levels = field "mem" (assoc int) j in
      let dominant =
        let name = field "dominant_stall" string j in
        match Attribution.bucket_of_name name with
        | Some b -> b
        | None -> fail "unknown bucket %S" name
      in
      {
        kernel;
        grid_name;
        rows;
        cols;
        ls_entries;
        mem_ports;
        total_cycles;
        accel_cycles;
        config_cycles;
        attributed_cycles;
        iterations;
        windows;
        lane_labels = Array.of_list (List.map fst lanes);
        lane_buckets = Array.of_list (List.map snd lanes);
        totals;
        ii =
          {
            Attribution.ii_iterations;
            ii_mean;
            ii_rec_mean;
            ii_mem_mean;
            ii_fu_mean;
            ii_rec_bound;
            ii_mem_bound;
            ii_fu_bound;
          };
        critical_path;
        critical_path_latency;
        critical_path_pct;
        noc_claims;
        noc_busy;
        port_claims;
        port_busy;
        mem_levels;
        dominant;
      })

(* ------------------------------------------------------------------ *)
(* Regression gate. *)

type violation = {
  v_key : string;
  v_before : int;
  v_after : int;
  v_limit : float;
}

let diff ?(tolerances = []) ~max_regress before after =
  let limit key =
    match List.assoc_opt key tolerances with Some l -> l | None -> max_regress
  in
  (* Exact integer gate: [after] may exceed [before] by at most
     floor(before * limit%), so 0% flags any increase. The limit doubles as
     an absolute floor of floor(limit) cycles — a bucket growing from zero
     would otherwise trip any nonzero tolerance. *)
  let check key b a acc =
    let l = limit key in
    let allowance =
      max (int_of_float (Float.of_int b *. l /. 100.0)) (int_of_float l)
    in
    if a > b + allowance then { v_key = key; v_before = b; v_after = a; v_limit = l } :: acc
    else acc
  in
  let acc =
    List.fold_left
      (fun acc bk ->
        let i = Attribution.bucket_index bk in
        check (Attribution.bucket_name bk) before.totals.(i) after.totals.(i) acc)
      [] Attribution.buckets
  in
  List.rev
    (check "attributed" before.attributed_cycles after.attributed_cycles acc)

let render_violations vs =
  String.concat ""
    (List.map
       (fun v ->
         Printf.sprintf "  REGRESSED %-16s %d -> %d (limit +%.1f%%)\n" v.v_key
           v.v_before v.v_after v.v_limit)
       vs)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let ii_kind t =
  let r = t.ii.Attribution.ii_rec_bound
  and m = t.ii.Attribution.ii_mem_bound
  and f = t.ii.Attribution.ii_fu_bound in
  if r >= m && r >= f then "II-bound (recurrence)"
  else if m >= f then "port-bound (memory throughput)"
  else "FU-bound (iterative units)"

let render t =
  let buf = Buffer.create 2048 in
  let nlanes = Array.length t.lane_buckets in
  Printf.bprintf buf "profile: %s on %s (%dx%d PEs, %d ls, %d ports)\n" t.kernel
    t.grid_name t.rows t.cols t.ls_entries t.mem_ports;
  Printf.bprintf buf
    "  cycles: total %d | fabric %d | config %d | attributed %d\n"
    t.total_cycles t.accel_cycles t.config_cycles t.attributed_cycles;
  Printf.bprintf buf "  windows %d, iterations %d\n\n" t.windows t.iterations;
  let denom = float_of_int (max 1 (t.attributed_cycles * max 1 nlanes)) in
  Buffer.add_string buf
    (Chart.bars ~title:"cycle attribution (% of lane-cycles)"
       (List.map
          (fun bk ->
            ( Attribution.bucket_name bk,
              100.0 *. float_of_int t.totals.(Attribution.bucket_index bk) /. denom ))
          Attribution.buckets));
  Buffer.add_char buf '\n';
  let lane_util i =
    let b = t.lane_buckets.(i) in
    (float_of_int
       (b.(Attribution.bucket_index Attribution.Busy)
       + b.(Attribution.bucket_index Attribution.Long_op)))
    /. float_of_int (max 1 t.attributed_cycles)
  in
  Buffer.add_string buf
    (Chart.heat ~title:"PE utilization (busy+long_op fraction)" ~rows:t.rows
       ~cols:t.cols (fun r c -> lane_util ((r * t.cols) + c)));
  Buffer.add_char buf '\n';
  if t.ls_entries > 0 then begin
    Buffer.add_string buf
      (Chart.heat ~title:"load-store lanes" ~rows:1 ~cols:t.ls_entries
         (fun _ e -> lane_util ((t.rows * t.cols) + e)));
    Buffer.add_char buf '\n'
  end;
  if Array.length t.noc_busy > 0 then begin
    Buffer.add_string buf
      (Chart.heat ~title:"NoC link occupancy (busy fraction)" ~rows:1
         ~cols:(Array.length t.noc_busy) (fun _ s ->
           float_of_int t.noc_busy.(s) /. float_of_int (max 1 t.accel_cycles)));
    Buffer.add_char buf '\n'
  end;
  Printf.bprintf buf "  ports: %d accesses over %d busy cycles (%.1f%% of fabric)\n"
    t.port_claims t.port_busy
    (100.0 *. float_of_int t.port_busy /. float_of_int (max 1 t.accel_cycles));
  Printf.bprintf buf "  mem: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) t.mem_levels));
  Printf.bprintf buf
    "  II: mean %.2f (rec %.2f, mem %.2f, fu %.2f) over %d iterations\n"
    t.ii.Attribution.ii_mean t.ii.Attribution.ii_rec_mean
    t.ii.Attribution.ii_mem_mean t.ii.Attribution.ii_fu_mean
    t.ii.Attribution.ii_iterations;
  let dom_pct =
    100.0
    *. float_of_int t.totals.(Attribution.bucket_index t.dominant)
    /. denom
  in
  Printf.bprintf buf
    "  bottleneck: %s (%.1f%% of lane-cycles); %s; critical path %d nodes, \
     latency %.1f = %.1f%% of fabric cycles%s\n"
    (Attribution.bucket_name t.dominant)
    dom_pct (ii_kind t)
    (List.length t.critical_path)
    t.critical_path_latency t.critical_path_pct
    (if t.critical_path_pct > 100.0 then " (pipelined overlap)" else "");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Perfetto timeline lanes. *)

let pid_fabric = 1
let pid_ports = 2

let timeline a =
  let spans = ref [] in
  let emit s = spans := s :: !spans in
  emit (Trace.process_name ~pid:0 "controller");
  emit (Trace.process_name ~pid:pid_fabric "fabric");
  emit (Trace.process_name ~pid:pid_ports "cache ports");
  for lane = 0 to Attribution.lane_count a - 1 do
    emit
      (Trace.thread_name ~pid:pid_fabric ~tid:lane (Attribution.lane_label a lane));
    List.iter
      (fun (start, dur, bucket) ->
        match bucket with
        | Attribution.Idle | Attribution.Masked_faulty -> ()
        | _ ->
          let d = int_of_float (Float.round dur) in
          if d >= 1 then
            emit
              (Trace.span ~pid:pid_fabric ~tid:lane ~cat:"fabric"
                 ~ts:(int_of_float (Float.round start))
                 ~dur:d
                 (Attribution.bucket_name bucket)))
      (Attribution.lane_intervals a lane)
  done;
  for port = 0 to Attribution.port_count a - 1 do
    emit
      (Trace.thread_name ~pid:pid_ports ~tid:port (Printf.sprintf "port_%d" port));
    List.iter
      (fun (issue, service) ->
        let d = int_of_float (Float.round service) in
        if d >= 1 then
          emit
            (Trace.span ~pid:pid_ports ~tid:port ~cat:"mem"
               ~ts:(int_of_float (Float.round issue))
               ~dur:d "access"))
      (Attribution.port_intervals a port)
  done;
  List.rev !spans
