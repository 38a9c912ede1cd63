type point = {
  kernel : string;
  rows : int;
  cols : int;
  mem_ports : int;
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
}

type outcome = {
  point : point;
  mapped : bool;
  reject : string option;
  cycles : int;
  iterations : int;
  energy_nj : float;
  power_w : float;
  area_mm2 : float;
  perf : float;
  perf_per_watt : float;
}

type spec = {
  kernels : string list;
  grids : (int * int) list;
  ports : int list;
  kinds : Interconnect.kind list;
  l1_kb : int list;
  l2_kb : int list;
}

type strategy = Exhaustive | Guided

type defect = Inverted_rank

let strategies = [ ("exhaustive", Exhaustive); ("guided", Guided) ]
let defects = [ ("inverted-rank", Inverted_rank) ]

let kinds =
  [
    ("mesh_noc", Interconnect.Mesh_noc);
    ("hier_rows", Interconnect.Hierarchical_rows);
    ("pure_mesh", Interconnect.Pure_mesh);
  ]

let name_in table v = fst (List.find (fun (_, x) -> x = v) table)

let of_name what table s =
  match List.assoc_opt s table with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "unknown %s %S (%s)" what s
         (String.concat "|" (List.map fst table)))

let strategy_to_string = name_in strategies
let strategy_of_string = of_name "strategy" strategies
let kind_to_string = name_in kinds
let kind_of_string = of_name "interconnect" kinds

let point_label (p : point) =
  Printf.sprintf "%s@%dx%d p%d %s L1:%dK L2:%dK" p.kernel p.rows p.cols
    p.mem_ports (kind_to_string p.kind) p.l1_kb p.l2_kb

let default_spec =
  {
    kernels = [ "nn"; "kmeans"; "bfs" ];
    grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
    ports = [ 2; 4; 8 ];
    kinds = [ Interconnect.Mesh_noc ];
    l1_kb = [ 64 ];
    l2_kb = [ 8192 ];
  }

(* Deduplicate preserving first-occurrence order: the axes must be sets for
   lattice indices to be well-defined, but the user's order is the
   enumeration order. *)
let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_spec s =
  let ( let* ) = Result.bind in
  let nonempty name = function
    | [] -> Error (Printf.sprintf "spec: %s axis is empty" name)
    | _ -> Ok ()
  in
  let* () = nonempty "kernels" s.kernels in
  let* () = nonempty "grids" s.grids in
  let* () = nonempty "ports" s.ports in
  let* () = nonempty "kinds" s.kinds in
  let* () = nonempty "l1" s.l1_kb in
  let* () = nonempty "l2" s.l2_kb in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        match Workloads.find name with
        | _ -> Ok ()
        | exception Not_found -> Error (Printf.sprintf "spec: unknown kernel %S" name))
      (Ok ()) s.kernels
  in
  let* () =
    List.fold_left
      (fun acc (r, c) ->
        let* () = acc in
        if r >= 1 && c >= 1 then Ok ()
        else Error (Printf.sprintf "spec: bad grid %dx%d" r c))
      (Ok ()) s.grids
  in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        if p >= 1 then Ok () else Error (Printf.sprintf "spec: bad port count %d" p))
      (Ok ()) s.ports
  in
  List.fold_left
    (fun acc kb ->
      let* () = acc in
      if is_pow2 kb then Ok ()
      else Error (Printf.sprintf "spec: L1/L2 capacity %d KB is not a power of two" kb))
    (Ok ()) (s.l1_kb @ s.l2_kb)

let points_of_spec s =
  let axis xs f = List.concat_map f (dedup xs) in
  axis s.kernels (fun kernel ->
      axis s.grids (fun (rows, cols) ->
          axis s.ports (fun mem_ports ->
              axis s.kinds (fun kind ->
                  axis s.l1_kb (fun l1_kb ->
                      axis s.l2_kb (fun l2_kb ->
                          [ { kernel; rows; cols; mem_ports; kind; l1_kb; l2_kb } ]))))))

(* ------------------------------------------------------------------ *)
(* Point measurement.                                                  *)

let grid_of_point (p : point) =
  Grid.make ~rows:p.rows ~cols:p.cols ~mem_ports:p.mem_ports
    ~name:(Printf.sprintf "G%dx%d" p.rows p.cols)
    ()

let hier_config_of_point (p : point) =
  let dc = Hierarchy.default_config in
  {
    dc with
    Hierarchy.l1 =
      Cache.config ~size_bytes:(p.l1_kb * 1024) ~ways:dc.Hierarchy.l1.Cache.ways
        ~line_bytes:dc.Hierarchy.l1.Cache.line_bytes
        ~hit_latency:dc.Hierarchy.l1.Cache.hit_latency;
    l2 =
      Cache.config ~size_bytes:(p.l2_kb * 1024) ~ways:dc.Hierarchy.l2.Cache.ways
        ~line_bytes:dc.Hierarchy.l2.Cache.line_bytes
        ~hit_latency:dc.Hierarchy.l2.Cache.hit_latency;
  }

let rejected (p : point) reason =
  {
    point = p;
    mapped = false;
    reject = Some reason;
    cycles = 0;
    iterations = 0;
    energy_nj = 0.0;
    power_w = 0.0;
    area_mm2 = 0.0;
    perf = 0.0;
    perf_per_watt = 0.0;
  }

let evaluate (p : point) =
  let k = Workloads.find p.kernel in
  let grid = grid_of_point p in
  let dfg = Runner.dfg_of_kernel k in
  match Runner.placement_of ~kind:p.kind ~grid k with
  | Error e -> rejected p e
  | Ok placement -> (
    let config = Runner.optimized_config ~grid k dfg placement in
    match Runner.execute_loop ~hier:(hier_config_of_point p) k dfg config with
    | Error e -> rejected p e
    | Ok (res, _) ->
      let cycles = max 1 res.Engine.cycles in
      let breakdown = Energy_model.accel_energy ~grid res.Engine.activity in
      let energy_nj = breakdown.Energy_model.total_nj in
      (* nJ per cycle at the nominal 2 GHz clock is 2 W per unit. *)
      let power_w = 2.0 *. energy_nj /. float_of_int cycles in
      let area_mm2 = Area_model.total_area_mm2 (Area_model.accelerator ~grid) in
      let perf = 1000.0 *. float_of_int res.Engine.iterations /. float_of_int cycles in
      let perf_per_watt = if power_w > 0.0 then perf /. power_w else 0.0 in
      {
        point = p;
        mapped = true;
        reject = None;
        cycles = res.Engine.cycles;
        iterations = res.Engine.iterations;
        energy_nj;
        power_w;
        area_mm2;
        perf;
        perf_per_watt;
      })

(* ------------------------------------------------------------------ *)
(* Pareto frontier over (perf, perf-per-watt), both maximized.         *)

let dominates a b =
  a.perf >= b.perf && a.perf_per_watt >= b.perf_per_watt
  && (a.perf > b.perf || a.perf_per_watt > b.perf_per_watt)

let frontier outs =
  List.filter
    (fun o -> o.mapped && not (List.exists (fun x -> x.mapped && dominates x o) outs))
    outs

(* Best first: mapped before rejected, then perf, with perf-per-watt and
   the label as deterministic tie-breakers. *)
let ranked outs =
  List.stable_sort
    (fun a b ->
      match compare b.mapped a.mapped with
      | 0 -> (
        match compare b.perf a.perf with
        | 0 -> (
          match compare b.perf_per_watt a.perf_per_watt with
          | 0 -> compare (point_label a.point) (point_label b.point)
          | c -> c)
        | c -> c)
      | c -> c)
    outs

(* ------------------------------------------------------------------ *)
(* Checkpoint serialization. Floats print with 17 significant digits
   (Json.to_string), so decode∘encode is the identity and a frontier over
   restored outcomes is bit-identical to one over fresh measurements.     *)

let point_to_json (p : point) =
  Json.Assoc
    [
      ("kernel", Json.String p.kernel);
      ("rows", Json.Int p.rows);
      ("cols", Json.Int p.cols);
      ("ports", Json.Int p.mem_ports);
      ("kind", Json.String (kind_to_string p.kind));
      ("l1_kb", Json.Int p.l1_kb);
      ("l2_kb", Json.Int p.l2_kb);
    ]

let read_point j =
  let open Json in
  let kernel = field "kernel" string j in
  let rows = field "rows" int j in
  let cols = field "cols" int j in
  let mem_ports = field "ports" int j in
  let kind = field "kind" (lift kind_of_string) j in
  let l1_kb = field "l1_kb" int j in
  let l2_kb = field "l2_kb" int j in
  { kernel; rows; cols; mem_ports; kind; l1_kb; l2_kb }

let outcome_to_json o =
  Json.Assoc
    [
      ("point", point_to_json o.point);
      ("mapped", Json.Bool o.mapped);
      ("reject", match o.reject with None -> Json.Null | Some r -> Json.String r);
      ("cycles", Json.Int o.cycles);
      ("iterations", Json.Int o.iterations);
      ("energy_nj", Json.Float o.energy_nj);
      ("power_w", Json.Float o.power_w);
      ("area_mm2", Json.Float o.area_mm2);
      ("perf", Json.Float o.perf);
      ("perf_per_watt", Json.Float o.perf_per_watt);
    ]

let read_outcome j =
  let open Json in
  let point = field "point" read_point j in
  let mapped = field "mapped" bool j in
  let reject = field_opt "reject" string j in
  let cycles = field "cycles" int j in
  let iterations = field "iterations" int j in
  let energy_nj = field "energy_nj" float j in
  let power_w = field "power_w" float j in
  let area_mm2 = field "area_mm2" float j in
  let perf = field "perf" float j in
  let perf_per_watt = field "perf_per_watt" float j in
  {
    point;
    mapped;
    reject;
    cycles;
    iterations;
    energy_nj;
    power_w;
    area_mm2;
    perf;
    perf_per_watt;
  }

let spec_to_json s =
  Json.Assoc
    [
      ("kernels", Json.List (List.map (fun k -> Json.String k) s.kernels));
      ( "grids",
        Json.List
          (List.map (fun (r, c) -> Json.List [ Json.Int r; Json.Int c ]) s.grids) );
      ("ports", Json.List (List.map (fun p -> Json.Int p) s.ports));
      ("kinds", Json.List (List.map (fun k -> Json.String (kind_to_string k)) s.kinds));
      ("l1_kb", Json.List (List.map (fun k -> Json.Int k) s.l1_kb));
      ("l2_kb", Json.List (List.map (fun k -> Json.Int k) s.l2_kb));
    ]

let read_spec j =
  let open Json in
  let grid g = match list int g with [ r; c ] -> (r, c) | _ -> fail "spec: bad grid" in
  let kernels = field "kernels" (list string) j in
  let grids = field "grids" (list grid) j in
  let ports = field "ports" (list int) j in
  let kinds = field "kinds" (list (lift kind_of_string)) j in
  let l1_kb = field "l1_kb" (list int) j in
  let l2_kb = field "l2_kb" (list int) j in
  { kernels; grids; ports; kinds; l1_kb; l2_kb }

let checkpoint_to_json ~strategy spec outcomes =
  Json.Assoc
    (("version", Json.Int 1)
     ::
     (* The strategy field extends the v1 schema compatibly: absent means
        exhaustive, so checkpoints written before guided search existed
        (and exhaustive ones written today) keep their exact byte format. *)
     (match strategy with
     | Exhaustive -> []
     | Guided -> [ ("strategy", Json.String (strategy_to_string strategy)) ])
    @ [
        ("spec", spec_to_json spec);
        ("outcomes", Json.List (List.map outcome_to_json outcomes));
      ])

let checkpoint_of_json =
  Json.decode (fun j ->
      let open Json in
      let version = field "version" int j in
      if version <> 1 then fail "unsupported checkpoint version %d" version;
      let strategy = field_or ~default:Exhaustive "strategy" (lift strategy_of_string) j in
      let spec = field "spec" read_spec j in
      let outcomes = field "outcomes" (list read_outcome) j in
      (spec, strategy, outcomes))

(* ------------------------------------------------------------------ *)
(* Guided search surrogate: the analytical cost model prices a lattice
   point without running the engine, so ranking the whole lattice costs
   about as much as measuring one point.                                *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

(* The model only needs enough iterations to rank points; past the steady
   state every estimate rescales by the same II. *)
let surrogate_horizon (k : Kernel.t) = min (max 1 k.Kernel.n) 128

(* Model cycles-per-iteration of a point, plus everything needed to price
   its energy. [Error] when the mapper rejects the point outright. *)
let model_of_point (p : point) =
  let k = Workloads.find p.kernel in
  let grid = grid_of_point p in
  let dfg = Runner.dfg_of_kernel k in
  match Runner.placement_of ~kind:p.kind ~grid k with
  | Error e -> Error e
  | Ok placement ->
    let config = Runner.optimized_config ~grid k dfg placement in
    let h = surrogate_horizon k in
    let est = Cost_model.estimate ~config ~dfg ~iterations:h () in
    Ok (float_of_int est.Cost_model.cycles /. float_of_int h, config, dfg, grid, h)

(* Surrogate (perf, perf/W) mirroring [evaluate]'s derivations with model
   quantities. The model prices every access at the L1 hit latency, so
   [scale] — measured-over-model cycles-per-iteration on the kernel's seed
   point — absorbs that kernel's average miss penalty. *)
let predict_point ~scale (p : point) =
  match model_of_point p with
  | Error e -> Error e
  | Ok (cpi, config, dfg, grid, h) ->
    let cpi = cpi *. scale in
    let cycles = max 1 (int_of_float (Float.ceil (cpi *. float_of_int h))) in
    let act = Cost_model.predicted_activity ~config ~dfg ~iterations:h ~cycles in
    let energy_nj = (Energy_model.accel_energy ~grid act).Energy_model.total_nj in
    let power_w = 2.0 *. energy_nj /. float_of_int cycles in
    let perf = 1000.0 /. cpi in
    let perf_per_watt = if power_w > 0.0 then perf /. power_w else 0.0 in
    Ok (perf, perf_per_watt)

(* ------------------------------------------------------------------ *)
(* The explorer.                                                       *)

type result = {
  spec : spec;
  strategy : strategy;
  outcomes : outcome list;
  front : outcome list;
  complete : bool;
  evaluated : int;
  measured : int;
  exhaustive_count : int;
  restored : int;
  stats : Stats.snapshot;
  timeline : Trace.span list;
}

let load_checkpoint ~strategy ~resume ~checkpoint spec =
  if not resume then Ok []
  else
    match checkpoint with
    | None -> Error "resume requires a checkpoint path"
    | Some path when not (Sys.file_exists path) -> Ok []
    | Some path -> (
      let of_json j =
        Result.map_error (fun e -> path ^ ": " ^ e) (checkpoint_of_json j)
      in
      match Result.bind (Json.read_file path) of_json with
      | Error e -> Error ("checkpoint " ^ e)
      | Ok (sp, st, outs) ->
        if sp <> spec then
          Error (Printf.sprintf "checkpoint %s was produced by a different spec" path)
        else if st <> strategy then
          Error
            (Printf.sprintf "checkpoint %s was produced by the %s strategy" path
               (strategy_to_string st))
        else Ok outs)

let run ?jobs ?checkpoint ?(resume = false) ?stop_after ?(strategy = Exhaustive)
    ?defect spec =
  let ( let* ) = Result.bind in
  let* () = validate_spec spec in
  let* prior = load_checkpoint ~strategy ~resume ~checkpoint spec in
  let known : (point, outcome) Hashtbl.t = Hashtbl.create 97 in
  List.iter (fun o -> Hashtbl.replace known o.point o) prior;
  let all_points = points_of_spec spec in
  let exhaustive_count = List.length all_points in
  let reg = Stats.registry () in
  let grp = Stats.group reg "dse" in
  (* points_evaluated: measured fresh by this run; cache_hits: restored from
     the checkpoint; points_rejected: mapping or execution rejected;
     points_measured: engine runs that mapped, fresh or restored;
     exhaustive_count: the full lattice size; frontier_size: non-dominated
     points at readout. *)
  let c_eval = Stats.counter grp "points_evaluated" in
  let c_hits = Stats.counter grp "cache_hits" in
  let c_rej = Stats.counter grp "points_rejected" in
  let c_meas = Stats.counter grp "points_measured" in
  let c_batches = Stats.counter grp "guided_batches" in
  Stats.int_probe grp "exhaustive_count" (fun () -> exhaustive_count);
  let outcomes_rev = ref [] in
  Stats.int_probe grp "frontier_size" (fun () ->
      List.length (frontier (List.rev !outcomes_rev)));
  let timeline = ref [] in
  let clock = ref 0 in
  let fresh = ref 0 in
  let stopped = ref false in
  let append ~was_restored o =
    outcomes_rev := o :: !outcomes_rev;
    if was_restored then Stats.incr c_hits
    else begin
      Stats.incr c_eval;
      incr fresh
    end;
    if o.mapped then Stats.incr c_meas else Stats.incr c_rej;
    timeline :=
      Trace.span ~cat:"dse" ~ts:!clock ~dur:(max 0 o.cycles)
        ~args:
          [
            ("cycles", Json.Int o.cycles);
            ("mapped", Json.Bool o.mapped);
            ("perf", Json.Float o.perf);
          ]
        (point_label o.point)
      :: !timeline;
    clock := !clock + max 1 o.cycles;
    (match checkpoint with
    | Some path ->
      Json.write_file path (checkpoint_to_json ~strategy spec (List.rev !outcomes_rev))
    | None -> ());
    match stop_after with
    | Some k when !fresh >= k -> stopped := true
    | _ -> ()
  in
  Pool.with_pool ?jobs (fun pool ->
      (* Evaluate a batch: restored points replay from the checkpoint, fresh
         ones fan out over the pool; results are appended in batch order, so
         the checkpoint always holds a prefix of the deterministic assembly
         order. Returns false once [stop_after] has cut the run short. *)
      let eval_batch batch =
        let slots =
          List.map
            (fun p ->
              match Hashtbl.find_opt known p with
              | Some o -> `Restored o
              | None -> `Fut (Pool.submit pool (fun () -> evaluate p)))
            batch
        in
        List.iter
          (fun slot ->
            if not !stopped then
              match slot with
              | `Restored o -> append ~was_restored:true o
              | `Fut f ->
                let o = Pool.await f in
                Hashtbl.replace known o.point o;
                append ~was_restored:false o)
          slots;
        not !stopped
      in
      match strategy with
      | Exhaustive -> ignore (eval_batch all_points)
      | Guided ->
        (* Surrogate-ranked successive halving. One engine-measured seed per
           kernel calibrates the model's cycles-per-iteration; the model
           then prices every remaining point, candidates are ranked by the
           better of their two objective ranks, and batches of shrinking
           size are measured until every unmeasured candidate is dominated
           beyond the model's observed error, or the hard cap — half the
           lattice — is reached. Every ordering ties off on point labels,
           so the schedule is deterministic at any [jobs] and replays
           identically from a checkpoint. *)
        let cap = (exhaustive_count + 1) / 2 in
        let measured () =
          List.fold_left (fun n o -> if o.mapped then n + 1 else n) 0 !outcomes_rev
        in
        let scheduled = Hashtbl.create 97 in
        let sched p = Hashtbl.replace scheduled p () in
        let go = ref true in
        (* Seeds: per kernel, walk the lattice in enumeration order until a
           point maps, and calibrate on it. *)
        let calib : (string, float) Hashtbl.t = Hashtbl.create 7 in
        List.iter
          (fun kernel ->
            let rec walk = function
              | [] -> ()
              | p :: tl ->
                if !go then begin
                  sched p;
                  go := eval_batch [ p ];
                  match Hashtbl.find_opt known p with
                  | Some o when o.mapped -> (
                    match model_of_point p with
                    | Ok (cpi, _, _, _, _) when cpi > 0.0 ->
                      let meas =
                        float_of_int o.cycles
                        /. float_of_int (max 1 o.iterations)
                      in
                      Hashtbl.replace calib kernel (meas /. cpi)
                    | _ -> ())
                  | _ -> walk tl
                end
            in
            walk (List.filter (fun p -> p.kernel = kernel) all_points))
          (dedup spec.kernels);
        (* Price the rest of the lattice. Points the mapper rejects cost no
           engine time — record them outright so the reject column still
           covers the whole lattice. *)
        let unmappable = ref [] in
        let cands = ref [] in
        List.iter
          (fun p ->
            if not (Hashtbl.mem scheduled p) then
              match Hashtbl.find_opt calib p.kernel with
              | None -> ()
              | Some scale -> (
                match predict_point ~scale p with
                | Error _ -> unmappable := p :: !unmappable
                | Ok (perf, ppw) -> cands := (p, perf, ppw) :: !cands))
          all_points;
        (match List.rev !unmappable with
        | [] -> ()
        | rj ->
          List.iter sched rj;
          if !go then go := eval_batch rj);
        let cands = List.rev !cands in
        (* Rank: a point's key is the better of its positions in the
           perf-descending and perf/W-descending orders, so both frontier
           extremes surface early. *)
        let arr = Array.of_list cands in
        let n = Array.length arr in
        let rank cmp =
          let idx = Array.init n Fun.id in
          Array.sort (fun i j -> cmp arr.(i) arr.(j)) idx;
          let r = Array.make n 0 in
          Array.iteri (fun pos i -> r.(i) <- pos) idx;
          r
        in
        let lbl (p, _, _) = point_label p in
        let desc pr a b =
          match compare (pr b) (pr a) with 0 -> compare (lbl a) (lbl b) | c -> c
        in
        let rp = rank (desc (fun (_, f, _) -> f)) in
        let rw = rank (desc (fun (_, _, w) -> w)) in
        let keyed =
          Array.mapi
            (fun i ((p, f, _) as c) ->
              ((min rp.(i) rw.(i), -.f, point_label p), c))
            arr
        in
        Array.sort compare keyed;
        let order = Array.to_list (Array.map snd keyed) in
        let order =
          match defect with Some Inverted_rank -> List.rev order | None -> order
        in
        (* τ-dominance pruning: drop a candidate once a measurement beats
           its prediction by more than the model's worst observed relative
           error (floored at 10%) on both objectives. *)
        let predictions = Hashtbl.create 97 in
        List.iter (fun (p, f, w) -> Hashtbl.replace predictions p (f, w)) cands;
        let tau () =
          List.fold_left
            (fun t o ->
              if not o.mapped then t
              else
                match Hashtbl.find_opt predictions o.point with
                | Some (f, _) when o.perf > 0.0 ->
                  Float.max t (Float.abs (o.perf -. f) /. o.perf)
                | _ -> t)
            0.10 !outcomes_rev
        in
        let dominated t (f, w) =
          let fo = f *. (1.0 +. t) and wo = w *. (1.0 +. t) in
          List.exists
            (fun o -> o.mapped && o.perf > fo && o.perf_per_watt > wo)
            !outcomes_rev
        in
        let rec halve queue width =
          if !go && queue <> [] then begin
            let t = tau () in
            let queue =
              List.filter (fun (_, f, w) -> not (dominated t (f, w))) queue
            in
            let room = cap - measured () in
            if queue <> [] && room > 0 then begin
              let sz = max 1 (min width (min room (List.length queue))) in
              let batch = take sz queue in
              Stats.incr c_batches;
              List.iter (fun (p, _, _) -> sched p) batch;
              go := eval_batch (List.map (fun (p, _, _) -> p) batch);
              halve (drop sz queue) (max 1 (width / 2))
            end
          end
        in
        halve order (max 1 ((List.length order + 3) / 4)));
  let outcomes = List.rev !outcomes_rev in
  Ok
    {
      spec;
      strategy;
      outcomes;
      front = frontier outcomes;
      complete = not !stopped;
      evaluated = !fresh;
      measured =
        List.fold_left (fun n o -> if o.mapped then n + 1 else n) 0 outcomes;
      exhaustive_count;
      restored = List.length outcomes - !fresh;
      stats = Stats.snapshot reg;
      timeline = List.rev !timeline;
    }

let result_to_json r =
  Json.Assoc
    [
      ("spec", spec_to_json r.spec);
      ("strategy", Json.String (strategy_to_string r.strategy));
      ("exhaustive_count", Json.Int r.exhaustive_count);
      ("measured", Json.Int r.measured);
      ("outcomes", Json.List (List.map outcome_to_json r.outcomes));
      ("frontier", Json.List (List.map outcome_to_json r.front));
    ]

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let table ?top r =
  let t =
    Tables.create ~title:"Design-space exploration (ranked; * = Pareto frontier)"
      [
        ("", Tables.Left);
        ("kernel", Tables.Left);
        ("grid", Tables.Left);
        ("ports", Tables.Right);
        ("interconnect", Tables.Left);
        ("L1 KB", Tables.Right);
        ("L2 KB", Tables.Right);
        ("cycles", Tables.Right);
        ("perf (it/kc)", Tables.Right);
        ("perf/W", Tables.Right);
        ("energy (uJ)", Tables.Right);
        ("area (mm2)", Tables.Right);
        ("outcome", Tables.Left);
      ]
  in
  let on_front o = List.exists (fun f -> f.point = o.point) r.front in
  let rows = ranked r.outcomes in
  let rows = match top with None -> rows | Some n -> List.filteri (fun i _ -> i < n) rows in
  List.iter
    (fun o ->
      Tables.add_row t
        [
          (if on_front o then "*" else "");
          o.point.kernel;
          Printf.sprintf "%dx%d" o.point.rows o.point.cols;
          string_of_int o.point.mem_ports;
          kind_to_string o.point.kind;
          string_of_int o.point.l1_kb;
          string_of_int o.point.l2_kb;
          (if o.mapped then Tables.icell o.cycles else "-");
          (if o.mapped then Tables.fcell o.perf else "-");
          (if o.mapped then Tables.fcell o.perf_per_watt else "-");
          (if o.mapped then Tables.fcell (o.energy_nj /. 1000.0) else "-");
          (if o.mapped then Tables.fcell o.area_mm2 else "-");
          (match o.reject with None -> "ok" | Some why -> "rejected: " ^ why);
        ])
    rows;
  t

let render ?top r =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Tables.render (table ?top r));
  Printf.bprintf b
    "\n%d point(s): %d measured fresh, %d restored, %d on the Pareto frontier%s\n"
    (List.length r.outcomes) r.evaluated r.restored (List.length r.front)
    (if r.complete then "" else " [interrupted by --stop-after]");
  Printf.bprintf b "engine-measured %d of %d lattice point(s) (%.1f%%)\n"
    r.measured r.exhaustive_count
    (100.0 *. float_of_int r.measured /. float_of_int (max 1 r.exhaustive_count));
  List.iter
    (fun o ->
      Printf.bprintf b "  frontier: %-40s perf %.3f it/kc, %.3f it/kc/W\n"
        (point_label o.point) o.perf o.perf_per_watt)
    r.front;
  Buffer.contents b

let frontier_labels r =
  List.sort compare (List.map (fun o -> point_label o.point) r.front)

let check_max_frac x r =
  if float_of_int r.measured > x *. float_of_int r.exhaustive_count then
    Error
      (Printf.sprintf "measured %d of %d lattice points, exceeding --max-frac %g"
         r.measured r.exhaustive_count x)
  else Ok ()

let experiment ?jobs () =
  let spec =
    {
      kernels = [ "nn"; "kmeans" ];
      grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
      ports = [ 2; 8 ];
      kinds = [ Interconnect.Mesh_noc ];
      l1_kb = [ 64 ];
      l2_kb = [ 8192 ];
    }
  in
  match run ?jobs spec with
  | Error e -> failwith ("dse experiment: " ^ e)
  | Ok r ->
    let best f = List.fold_left (fun acc o -> Float.max acc (f o)) 0.0 r.outcomes in
    {
      Experiments.table = table r;
      summary =
        [
          ("points", float_of_int (List.length r.outcomes));
          ("frontier_size", float_of_int (List.length r.front));
          ("best_perf", best (fun o -> o.perf));
          ("best_perf_per_watt", best (fun o -> o.perf_per_watt));
        ];
    }

let guided_experiment ?jobs () =
  let spec =
    {
      kernels = [ "nn"; "kmeans" ];
      grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
      ports = [ 2; 8 ];
      kinds = [ Interconnect.Mesh_noc ];
      l1_kb = [ 64 ];
      l2_kb = [ 8192 ];
    }
  in
  match (run ?jobs spec, run ?jobs ~strategy:Guided spec) with
  | Error e, _ | _, Error e -> failwith ("guided dse experiment: " ^ e)
  | Ok ex, Ok gd ->
    {
      Experiments.table = table gd;
      summary =
        [
          ("exhaustive_measured", float_of_int ex.measured);
          ("guided_measured", float_of_int gd.measured);
          ( "evaluated_fraction",
            float_of_int gd.measured /. float_of_int (max 1 gd.exhaustive_count) );
          ("frontier_match", if frontier_labels ex = frontier_labels gd then 1.0 else 0.0);
        ];
    }
