(* The timing plane's rules checked directly against their definition, on
   the refine configurations of the reference kernels: each memory access
   either bypasses the ports at its fixed cost or logs exactly one port
   claim and costs its queueing plus the caller's service time, and the II
   is the pipelined maximum of its three bounds (or latency + 1). *)

let check = Alcotest.check
let service = 7.0

(* One iteration of instance 0 through the plane; returns the port claims
   taken and the iteration's slowest iterative-unit firing. *)
let one_iteration t st =
  let claims = ref 0 and fu = ref 1.0 in
  for j = 0 to t.Timing.n - 1 do
    Timing.fold t st ~inst:0 j;
    check Alcotest.int "fold logs one claim per NoC edge"
      (Array.fold_left (fun a s -> if s >= 0 then a + 1 else a) 0 t.Timing.slice.(j))
      st.Timing.nclaims;
    let oplat =
      if t.Timing.kind.(j) <> Timing.Mem_op then t.Timing.cls_lat.(j)
      else begin
        let before = st.Timing.nclaims in
        let port_claims = Contention.claimed st.Timing.ports in
        let lat = Timing.mem_latency t st ~inst:0 ~service:(fun _ -> service) j in
        let load = t.Timing.is_load.(j) in
        if load && t.Timing.forwarded.(j) then check (Alcotest.float 0.) "forwarded" 2.0 lat
        else if load && t.Timing.vector_member.(j) then
          check (Alcotest.float 0.) "vector member" 1.0 lat
        else begin
          incr claims;
          check Alcotest.int "one port claim" (before + 1) st.Timing.nclaims;
          check Alcotest.int "booked on the ports" (port_claims + 1)
            (Contention.claimed st.Timing.ports);
          check (Alcotest.float 0.) "queueing plus service"
            (st.Timing.claim_wait.(before) +. service) lat
        end;
        lat
      end
    in
    if t.Timing.long_op.(j) then fu := Float.max !fu oplat;
    st.Timing.completes.(j) <- st.Timing.arrival.(j) +. oplat
  done;
  (!claims, !fu)

let rules_hold () =
  List.iter
    (fun name ->
      match Refine.run ~max_rounds:0 (Workloads.find name) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok r ->
        List.iter
          (fun (config : Accel_config.t) ->
            let t = Timing.compile ~config ~dfg:r.Refine.dfg in
            let st = Timing.start t ~ports:2 in
            let claims, fu = one_iteration t st in
            let accesses = st.Timing.accesses in
            let latency = Array.fold_left Float.max 0.0 st.Timing.completes in
            Timing.initiate t st ~inst:0 ~fu;
            let b = st.Timing.last in
            check Alcotest.int "every memory node counted"
              (Array.fold_left (fun a k -> if k = Timing.Mem_op then a + 1 else a) 0 t.kind)
              accesses;
            check Alcotest.bool "bypasses never claim" true (claims <= accesses);
            check Alcotest.bool "the ports were exercised" true (claims > 0);
            check (Alcotest.float 0.) "latency" latency b.Timing.latency;
            if config.pipelined then begin
              check (Alcotest.float 0.) "recurrence bound"
                (Array.fold_left
                   (fun a p -> Float.max a st.Timing.completes.(p))
                   1.0 t.Timing.carried)
                b.Timing.rec_;
              check (Alcotest.float 0.) "fu bound" fu b.Timing.fu;
              check (Alcotest.float 0.) "mem bound"
                (float_of_int ((accesses + 1) / 2)) b.Timing.mem;
              check (Alcotest.float 0.) "ii"
                (Float.max (Float.max b.Timing.rec_ b.Timing.mem) fu) b.Timing.ii
            end
            else check (Alcotest.float 0.) "ii" (latency +. 1.0) b.Timing.ii;
            check (Alcotest.float 0.) "clock advanced" b.Timing.ii st.Timing.next.(0);
            check Alcotest.int "access count restarts" 0 st.Timing.accesses)
          (let config = r.Refine.config in
           (* No reference kernel forwards a store at M-64; mark the first
              load forwarded so that rule runs too. *)
           let first_load =
             Array.to_list r.Refine.dfg.Dfg.nodes
             |> List.mapi (fun i nd -> (i, Isa.is_load nd.Dfg.instr))
             |> List.find (fun (_, l) -> l)
             |> fst
           in
           [
             config;
             Accel_config.plain config.placement;
             { config with forwarding = [ (first_load, first_load) ] };
           ]))
    [ "nn"; "kmeans"; "bfs"; "cfd"; "hotspot" ]

(* {2 One step, three ways to run it.}

   On compute-only loops (no memory, no guards) [Timing.step] priced by the
   static class latencies is the whole timing model, so its makespan must
   equal both the cost model's fully simulated estimate and the engine's
   cycles; and it must allocate nothing per node firing. *)

(* An explicit two-argument closure: [step]'s call to it allocates
   nothing, where a partial application of a four-argument function would. *)
let fire_cls t st =
  let fire ~inst:_ j = st.Timing.firing.oplat <- t.Timing.cls_lat.(j) in
  fire

let step_makespan t ~ports ~iterations =
  let st = Timing.start t ~ports in
  let fire = fire_cls t st in
  for k = 0 to iterations - 1 do
    Timing.step t st ~inst:(k mod t.Timing.tiling) ~fire
  done;
  int_of_float (Float.ceil st.Timing.last.Timing.makespan)

let step_matches_both_callers =
  QCheck2.Test.make ~name:"step = cost model = engine on compute-only loops"
    ~count:25 ~print:Test_cost_model.print_compute_loop
    Test_cost_model.gen_compute_loop (fun c ->
      Option.iter
        (fun (dfg, (config : Accel_config.t), res) ->
          let iterations = res.Engine.iterations in
          let t = Timing.compile ~config ~dfg in
          let stepped =
            step_makespan t ~ports:config.placement.Placement.grid.Grid.mem_ports
              ~iterations
          in
          let est = Cost_model.estimate ~config ~dfg ~iterations ~extrapolate:false () in
          let label = Test_cost_model.print_compute_loop c in
          check Alcotest.int (label ^ ": step = engine") res.Engine.cycles stepped;
          check Alcotest.int (label ^ ": step = cost model") est.Cost_model.cycles stepped)
        (Test_cost_model.run_compute_loop c);
      true)

(* Words allocated per [step], over many steps of loops from fixed seeds:
   once its router tables exist a step allocates nothing (the [fu] bound
   reaches the inlined [initiate] unboxed), whatever the node count and
   NoC traffic. *)
let step_allocation () =
  let rec placed seed =
    let c =
      QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |])
        Test_cost_model.gen_compute_loop
    in
    match Test_cost_model.run_compute_loop c with
    | Some (dfg, config, _) -> Timing.compile ~config ~dfg
    | None -> placed (seed + 1000)
  in
  let steps = 1000 in
  List.iter
    (fun seed ->
      let t = placed seed in
      let st = Timing.start t ~ports:2 in
      let fire = fire_cls t st in
      let run () =
        for k = 0 to steps - 1 do
          Timing.step t st ~inst:(k mod t.Timing.tiling) ~fire
        done
      in
      (* Warm up: router tables are created on their first claim. *)
      run ();
      let before = Gc.minor_words () in
      run ();
      let per_step = (Gc.minor_words () -. before) /. float_of_int steps in
      if per_step > 1.0 then
        Alcotest.failf "seed %d (%d nodes): %.2f minor words per step" seed t.Timing.n
          per_step)
    (List.init 20 Fun.id)

(* Words allocated per simulated iteration by the cost model with the
   fast path off, over compute-only loops of every drawn size: the
   difference of two runs of different lengths, so the per-call setup
   cancels. The static-latency oracle is read in place, so no firing boxes
   its latency and the count does not grow with the node count. *)
let estimate_allocation () =
  let words (dfg, config) iterations =
    let before = Gc.minor_words () in
    ignore (Cost_model.estimate ~config ~dfg ~iterations ~extrapolate:false ());
    Gc.minor_words () -. before
  in
  let sizes = Hashtbl.create 8 in
  let seed = ref 0 in
  while Hashtbl.length sizes < 6 && !seed < 400 do
    let c =
      QCheck2.Gen.generate1 ~rand:(Random.State.make [| !seed |])
        Test_cost_model.gen_compute_loop
    in
    incr seed;
    match Test_cost_model.run_compute_loop c with
    | None -> ()
    | Some (dfg, config, _) ->
      let n = Dfg.node_count dfg in
      if not (Hashtbl.mem sizes n) then begin
        Hashtbl.add sizes n ();
        let loop = (dfg, config) in
        ignore (words loop 100);
        let short = words loop 1000 and long = words loop 3000 in
        let per_iteration = (long -. short) /. 2000.0 in
        if per_iteration > 1.0 then
          Alcotest.failf "%d nodes: %.2f minor words per iteration" n per_iteration
      end
  done;
  check Alcotest.bool "several loop sizes measured" true (Hashtbl.length sizes >= 4)

(* {2 The plane's branch-only helpers.}

   {!Cycle_time} must return [Float]'s exact bits on the plane's domain:
   non-negative finite floats without -0.0. The draw leans on the edges
   of the truncation trick: +0.0, integers, x.5 values, the fractional
   values just below 2^52 and the integral ones around and above it. *)

let two52 = 4503599627370496.0

let gen_cycle_time =
  let open QCheck2.Gen in
  oneof
    [
      return 0.0;
      float_bound_inclusive 1e6;
      map float_of_int (int_bound 1_000_000);
      map (fun i -> float_of_int i +. 0.5) (int_bound 1_000_000);
      map (fun k -> two52 -. (0.5 *. float_of_int k)) (int_bound 64);
      map (fun k -> two52 +. float_of_int k) (int_range (-64) 64);
      map (fun k -> Float.ldexp 1.0 k) (int_range 53 61);
      map (fun x -> Float.succ x) (float_bound_inclusive 64.0);
    ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let print_pair = QCheck2.Print.(pair float float)

let cycle_time_unary =
  QCheck2.Test.make ~name:"Cycle_time ceil/floor = Float bit for bit" ~count:2000
    ~print:QCheck2.Print.float gen_cycle_time (fun x ->
      same_bits (float_of_int (Cycle_time.ceil_int x)) (Float.ceil x)
      && same_bits (float_of_int (Cycle_time.floor_int x)) (Float.floor x))

let cycle_time_binary =
  QCheck2.Test.make ~name:"Cycle_time max/min = Float bit for bit" ~count:2000
    ~print:print_pair
    QCheck2.Gen.(oneof [ pair gen_cycle_time gen_cycle_time; map (fun x -> (x, x)) gen_cycle_time ])
    (fun (a, b) ->
      same_bits (Cycle_time.max a b) (Float.max a b)
      && same_bits (Cycle_time.min a b) (Float.min a b))

let suites =
  [
    ( "timing",
      [
        Alcotest.test_case "issue and II rules" `Quick rules_hold;
        QCheck_alcotest.to_alcotest step_matches_both_callers;
        Alcotest.test_case "step allocates nothing per node" `Quick step_allocation;
        Alcotest.test_case "estimate allocates nothing per firing" `Quick
          estimate_allocation;
        QCheck_alcotest.to_alcotest cycle_time_unary;
        QCheck_alcotest.to_alcotest cycle_time_binary;
      ] );
  ]
