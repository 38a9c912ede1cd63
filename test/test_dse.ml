(* The design-space explorer: enumeration, Pareto frontier semantics,
   checkpoint serialization, and the load-bearing guarantee — an
   interrupted-then-resumed sweep is bit-identical to an uninterrupted one,
   at any jobs value. *)

let check = Alcotest.check

let base_point =
  {
    Dse.kernel = "nn";
    fabric =
      { Fabric.rows = 8; cols = 8; ports = 4; kind = Interconnect.Mesh_noc; l1_kb = 64;
        l2_kb = 8192 };
  }

(* -------------------- enumeration -------------------- *)

let points_of_spec_shape () =
  let spec =
    {
      Dse.kernels = [ "nn"; "bfs"; "nn" ];  (* duplicate collapses *)
      grids = [ (4, 4); (8, 8) ];
      ports = [ 2; 8 ];
      kinds = [ Interconnect.Mesh_noc ];
      l1_kb = [ 64 ];
      l2_kb = [ 1024; 8192 ];
    }
  in
  let pts = Dse.points_of_spec spec in
  check Alcotest.int "cartesian product of deduped axes" (2 * 2 * 2 * 1 * 1 * 2)
    (List.length pts);
  check Alcotest.string "kernels outermost" "nn" (List.hd pts).Dse.kernel;
  (* L2 is the innermost axis: the first two points differ only in L2. *)
  let p0 = List.nth pts 0 and p1 = List.nth pts 1 in
  check Alcotest.int "first L2" 1024 p0.Dse.fabric.l2_kb;
  check Alcotest.int "second L2" 8192 p1.Dse.fabric.l2_kb;
  check Alcotest.bool "otherwise equal" true
    (p0 = { p1 with Dse.fabric = { p1.Dse.fabric with l2_kb = 1024 } });
  check Alcotest.int "labels are unique" (List.length pts)
    (List.length (List.sort_uniq compare (List.map Dse.point_label pts)))

let spec_validation () =
  let ok s = match Dse.validate_spec s with Ok () -> true | Error _ -> false in
  check Alcotest.bool "default spec valid" true (ok Dse.default_spec);
  check Alcotest.bool "unknown kernel rejected" false
    (ok { Dse.default_spec with Dse.kernels = [ "nosuch" ] });
  check Alcotest.bool "empty axis rejected" false
    (ok { Dse.default_spec with Dse.ports = [] });
  check Alcotest.bool "bad grid rejected" false
    (ok { Dse.default_spec with Dse.grids = [ (0, 4) ] });
  check Alcotest.bool "non-pow2 cache rejected" false
    (ok { Dse.default_spec with Dse.l1_kb = [ 48 ] })

(* -------------------- point evaluation -------------------- *)

let evaluate_mapped_and_rejected () =
  let good = Dse.evaluate base_point in
  check Alcotest.bool "nn on 8x8 maps" true good.Dse.mapped;
  check Alcotest.bool "cycles positive" true (good.Dse.cycles > 0);
  check Alcotest.bool "energy positive" true (good.Dse.energy_nj > 0.0);
  check Alcotest.bool "area positive" true (good.Dse.area_mm2 > 0.0);
  check Alcotest.bool "perf positive" true (good.Dse.perf > 0.0);
  check Alcotest.bool "perf/W positive" true (good.Dse.perf_per_watt > 0.0);
  (* kmeans needs more FP PEs than an 8x4 fabric offers (cf. the robustness
     fallback test): the mapper rejects, metrics stay zero. *)
  let bad =
    Dse.evaluate
      { Dse.kernel = "kmeans"; fabric = { base_point.Dse.fabric with rows = 8; cols = 4 } }
  in
  check Alcotest.bool "kmeans on 8x4 rejected" false bad.Dse.mapped;
  check Alcotest.bool "reject reason recorded" true (bad.Dse.reject <> None);
  check Alcotest.int "zero cycles" 0 bad.Dse.cycles

(* -------------------- Pareto frontier -------------------- *)

let gen_outcome_cloud =
  let open QCheck2.Gen in
  let outcome =
    triple bool (int_bound 4) (int_bound 4) >>= fun (mapped, p, w) ->
    return
      {
        Dse.point = base_point;
        mapped;
        reject = (if mapped then None else Some "no route");
        cycles = 100;
        iterations = 10;
        energy_nj = 1.0;
        power_w = 1.0;
        area_mm2 = 1.0;
        perf = float_of_int p;
        perf_per_watt = float_of_int w;
      }
  in
  list_size (0 -- 12) outcome

let print_outcome_cloud outs =
  String.concat "; "
    (List.map
       (fun (o : Dse.outcome) ->
         Printf.sprintf "%c(%.0f,%.0f)"
           (if o.Dse.mapped then 'm' else 'r')
           o.Dse.perf o.Dse.perf_per_watt)
       outs)

let frontier_is_exactly_the_nondominated_set =
  QCheck2.Test.make
    ~name:"frontier = mapped points no mapped point dominates" ~count:300
    ~print:print_outcome_cloud gen_outcome_cloud (fun outs ->
      let f = Dse.frontier outs in
      let mapped = List.filter (fun (o : Dse.outcome) -> o.Dse.mapped) outs in
      List.for_all (fun (o : Dse.outcome) -> o.Dse.mapped) f
      (* no frontier point is dominated *)
      && List.for_all
           (fun o -> not (List.exists (fun x -> Dse.dominates x o) mapped))
           f
      (* every dominated (or rejected) point is excluded; every
         non-dominated mapped point is present *)
      && List.for_all
           (fun o ->
             let dominated = List.exists (fun x -> Dse.dominates x o) mapped in
             List.mem o f = not dominated)
           mapped
      (* input order preserved *)
      && f = List.filter (fun o -> List.mem o f) outs)

let dominates_axioms () =
  let o perf ppw = { (Dse.evaluate base_point) with Dse.perf; perf_per_watt = ppw } in
  check Alcotest.bool "strictly better both" true (Dse.dominates (o 2. 2.) (o 1. 1.));
  check Alcotest.bool "better one, equal other" true (Dse.dominates (o 2. 1.) (o 1. 1.));
  check Alcotest.bool "equal dominates nothing" false (Dse.dominates (o 1. 1.) (o 1. 1.));
  check Alcotest.bool "trade-off incomparable" false (Dse.dominates (o 2. 1.) (o 1. 2.));
  check Alcotest.bool "irreflexive under trade-off" false (Dse.dominates (o 1. 2.) (o 2. 1.))

(* -------------------- checkpoint serialization -------------------- *)

let gen_finite =
  let open QCheck2.Gen in
  pair (int_range (-4000) 4000) (int_range (-8) 8) >>= fun (m, e) ->
  return (float_of_int m *. (2.0 ** float_of_int e))

let gen_kind =
  QCheck2.Gen.oneofl
    [ Interconnect.Mesh_noc; Interconnect.Hierarchical_rows; Interconnect.Pure_mesh ]

let gen_point =
  let open QCheck2.Gen in
  oneofl [ "nn"; "kmeans"; "bfs"; "lud" ] >>= fun kernel ->
  int_range 1 16 >>= fun rows ->
  int_range 1 16 >>= fun cols ->
  oneofl [ 1; 2; 4; 8 ] >>= fun ports ->
  gen_kind >>= fun kind ->
  oneofl [ 16; 64; 256 ] >>= fun l1_kb ->
  oneofl [ 1024; 8192 ] >>= fun l2_kb ->
  return { Dse.kernel; fabric = { Fabric.rows; cols; ports; kind; l1_kb; l2_kb } }

let gen_saved_outcome =
  let open QCheck2.Gen in
  gen_point >>= fun point ->
  bool >>= fun mapped ->
  int_bound 1_000_000 >>= fun cycles ->
  int_bound 10_000 >>= fun iterations ->
  gen_finite >>= fun energy_nj ->
  gen_finite >>= fun power_w ->
  gen_finite >>= fun area_mm2 ->
  gen_finite >>= fun perf ->
  gen_finite >>= fun perf_per_watt ->
  return
    {
      Dse.point;
      mapped;
      reject = (if mapped then None else Some "mapper: no route");
      cycles;
      iterations;
      energy_nj;
      power_w;
      area_mm2;
      perf;
      perf_per_watt;
    }

let gen_checkpoint =
  let open QCheck2.Gen in
  let spec =
    list_size (1 -- 3) (oneofl [ "nn"; "bfs"; "kmeans" ]) >>= fun kernels ->
    list_size (1 -- 3) (pair (int_range 1 16) (int_range 1 16)) >>= fun grids ->
    list_size (1 -- 3) (oneofl [ 1; 2; 4; 8 ]) >>= fun ports ->
    list_size (1 -- 2) gen_kind >>= fun kinds ->
    list_size (1 -- 2) (oneofl [ 16; 64 ]) >>= fun l1_kb ->
    list_size (1 -- 2) (oneofl [ 1024; 8192 ]) >>= fun l2_kb ->
    return { Dse.kernels; grids; ports; kinds; l1_kb; l2_kb }
  in
  triple spec
    (oneofl [ Dse.Exhaustive; Dse.Guided ])
    (list_size (0 -- 8) gen_saved_outcome)

let print_checkpoint (spec, strategy, outs) =
  Json.to_string ~indent:2 (Dse.checkpoint_to_json ~strategy spec outs)

let checkpoint_roundtrip_random =
  QCheck2.Test.make
    ~name:"checkpoint decode after encode is the identity" ~count:200
    ~print:print_checkpoint gen_checkpoint (fun (spec, strategy, outs) ->
      let text =
        Json.to_string ~indent:2 (Dse.checkpoint_to_json ~strategy spec outs)
      in
      match Result.bind (Json.of_string text) Dse.checkpoint_of_json with
      | Error _ -> false
      | Ok (spec', strategy', outs') ->
        spec' = spec && strategy' = strategy && outs' = outs)

let checkpoint_strategy_field_compat () =
  (* Exhaustive checkpoints carry no strategy field at all — the pre-guided
     byte format — and decode as Exhaustive. *)
  let j = Dse.checkpoint_to_json ~strategy:Dse.Exhaustive Dse.default_spec [] in
  check Alcotest.bool "no strategy field when exhaustive" true
    (Json.member "strategy" j = None);
  (match Dse.checkpoint_of_json j with
  | Ok (_, Dse.Exhaustive, []) -> ()
  | _ -> Alcotest.fail "absent strategy must decode as Exhaustive");
  let jg = Dse.checkpoint_to_json ~strategy:Dse.Guided Dse.default_spec [] in
  match Dse.checkpoint_of_json jg with
  | Ok (_, Dse.Guided, []) -> ()
  | _ -> Alcotest.fail "guided strategy must round-trip"

(* The checkpoint's exact bytes: the round trip above would still pass if
   the keys, their order or a backend's name drifted. *)
let pinned_outcomes =
  [
    { Dse.point =
        { Dse.kernel = "nn";
          fabric =
            { Fabric.rows = 16; cols = 8; ports = 8; kind = Interconnect.Pure_mesh; l1_kb = 64;
              l2_kb = 1024 } };
      mapped = true; reject = None; cycles = 9961; iterations = 4096;
      energy_nj = 22663.875512669551; power_w = 0.46098518250487247; area_mm2 = 3.32;
      perf = 411.24485493424354; perf_per_watt = 0.1 };
    { Dse.point =
        { Dse.kernel = "bfs";
          fabric =
            { Fabric.rows = 4; cols = 4; ports = 2; kind = Interconnect.Hierarchical_rows;
              l1_kb = 16; l2_kb = 8192 } };
      mapped = false; reject = Some "mapper: no route"; cycles = 0; iterations = 0;
      energy_nj = 0.0; power_w = 0.0; area_mm2 = 0.0; perf = 0.0; perf_per_watt = 0.0 };
  ]

let pinned_spec =
  {
    Dse.kernels = [ "nn"; "bfs" ];
    grids = [ (4, 4); (16, 8) ];
    ports = [ 2; 8 ];
    kinds = [ Interconnect.Mesh_noc; Interconnect.Pure_mesh ];
    l1_kb = [ 64 ];
    l2_kb = [ 1024; 8192 ];
  }

let pinned_body =
  {|"spec":{"kernels":["nn","bfs"],"grids":[[4,4],[16,8]],"ports":[2,8],"kinds":["mesh_noc","pure_mesh"],"l1_kb":[64],"l2_kb":[1024,8192]},"outcomes":[{"point":{"kernel":"nn","rows":16,"cols":8,"ports":8,"kind":"pure_mesh","l1_kb":64,"l2_kb":1024},"mapped":true,"reject":null,"cycles":9961,"iterations":4096,"energy_nj":22663.875512669551,"power_w":0.46098518250487247,"area_mm2":3.3199999999999998,"perf":411.24485493424356,"perf_per_watt":0.10000000000000001},{"point":{"kernel":"bfs","rows":4,"cols":4,"ports":2,"kind":"hier_rows","l1_kb":16,"l2_kb":8192},"mapped":false,"reject":"mapper: no route","cycles":0,"iterations":0,"energy_nj":0.0,"power_w":0.0,"area_mm2":0.0,"perf":0.0,"perf_per_watt":0.0}]}|}

let checkpoint_bytes_pinned () =
  List.iter
    (fun (strategy, text) ->
      check Alcotest.string "encoded bytes" text
        (Json.to_string ~indent:0 (Dse.checkpoint_to_json ~strategy pinned_spec pinned_outcomes));
      match Result.bind (Json.of_string text) Dse.checkpoint_of_json with
      | Ok (spec, strategy', outs) ->
        check Alcotest.bool "decodes to the pinned sweep" true
          (spec = pinned_spec && strategy' = strategy && outs = pinned_outcomes)
      | Error e -> Alcotest.fail e)
    [
      (Dse.Exhaustive, {|{"version":1,|} ^ pinned_body);
      (Dse.Guided, {|{"version":1,"strategy":"guided",|} ^ pinned_body);
    ];
  check Alcotest.(list string) "point labels"
    [ "nn@16x8 p8 pure_mesh L1:64K L2:1024K"; "bfs@4x4 p2 hier_rows L1:16K L2:8192K" ]
    (List.map (fun o -> Dse.point_label o.Dse.point) pinned_outcomes)

(* -------------------- resumable runs -------------------- *)

let small_spec =
  {
    Dse.kernels = [ "gaussian"; "nn" ];
    grids = [ (4, 4); (8, 8) ];
    ports = [ 4; 8 ];
    kinds = [ Interconnect.Mesh_noc ];
    l1_kb = [ 64 ];
    l2_kb = [ 8192 ];
  }

let result_text r = Json.to_string ~indent:2 (Dse.result_to_json r)

let with_ckpt_file f =
  let path = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "dse_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let run_exn ?jobs ?checkpoint ?resume ?stop_after ?strategy ?defect spec =
  match Dse.run ?jobs ?checkpoint ?resume ?stop_after ?strategy ?defect spec with
  | Ok r -> r
  | Error e -> Alcotest.fail ("Dse.run: " ^ e)

let resume_is_bit_identical () =
  let full = run_exn ~jobs:1 small_spec in
  check Alcotest.int "eight points" 8 (List.length full.Dse.outcomes);
  check Alcotest.bool "complete" true full.Dse.complete;
  check Alcotest.bool "frontier non-empty" true (full.Dse.front <> []);
  with_ckpt_file (fun ckpt ->
      let cut = run_exn ~jobs:2 ~checkpoint:ckpt ~stop_after:3 small_spec in
      check Alcotest.bool "interrupted" false cut.Dse.complete;
      check Alcotest.int "three fresh points" 3 cut.Dse.evaluated;
      (* A killed sweep resumes from the checkpoint file alone — at a
         different jobs value — and must reproduce the uninterrupted
         result bit for bit. *)
      let resumed = run_exn ~jobs:3 ~checkpoint:ckpt ~resume:true small_spec in
      check Alcotest.bool "resumed to completion" true resumed.Dse.complete;
      check Alcotest.int "three restored" 3 resumed.Dse.restored;
      check Alcotest.int "five fresh" 5 resumed.Dse.evaluated;
      check Alcotest.string "bit-identical result" (result_text full)
        (result_text resumed);
      (* The final checkpoint holds the complete sweep. *)
      let ic = open_in ckpt in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Result.bind (Json.of_string text) Dse.checkpoint_of_json with
      | Error e -> Alcotest.fail ("final checkpoint unreadable: " ^ e)
      | Ok (_, _, outs) ->
        check Alcotest.int "checkpoint holds all points" 8 (List.length outs))

let jobs_value_is_immaterial () =
  let a = run_exn ~jobs:1 small_spec and b = run_exn ~jobs:4 small_spec in
  check Alcotest.string "jobs=1 equals jobs=4" (result_text a) (result_text b)

let mismatched_checkpoint_rejected () =
  with_ckpt_file (fun ckpt ->
      let _ = run_exn ~jobs:1 ~checkpoint:ckpt ~stop_after:1 small_spec in
      let other = { small_spec with Dse.ports = [ 2 ] } in
      match Dse.run ~checkpoint:ckpt ~resume:true other with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "checkpoint from a different spec must be rejected")

(* -------------------- guided strategy -------------------- *)

(* The pinned sub-space the guided strategy is gated on (also the CI smoke
   job's sweep): two kernels across four geometries and two port counts.
   Small enough to sweep exhaustively, rich enough that the frontier is not
   just the seed points. *)
let guided_spec =
  {
    Dse.kernels = [ "nn"; "kmeans" ];
    grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
    ports = [ 2; 8 ];
    kinds = [ Interconnect.Mesh_noc ];
    l1_kb = [ 64 ];
    l2_kb = [ 8192 ];
  }

let guided_reaches_frontier_cheaply () =
  let ex = run_exn ~jobs:2 guided_spec in
  let gd = run_exn ~jobs:2 ~strategy:Dse.Guided guided_spec in
  (* The whole point: the exhaustive Pareto frontier, point for point, from
     a fraction of the measurements. *)
  check
    Alcotest.(list string)
    "frontier point-for-point" (Dse.frontier_labels ex) (Dse.frontier_labels gd);
  check Alcotest.bool "at most half the lattice measured" true
    (2 * gd.Dse.measured <= gd.Dse.exhaustive_count);
  check Alcotest.bool "strictly fewer measurements than exhaustive" true
    (gd.Dse.measured < ex.Dse.measured);
  let get p =
    match Stats.find gd.Dse.stats p with
    | Some (Stats.VInt i) -> i
    | _ -> Alcotest.fail ("missing dse stat " ^ p)
  in
  check Alcotest.int "points_measured stat" gd.Dse.measured
    (get "dse.points_measured");
  check Alcotest.int "exhaustive_count stat" gd.Dse.exhaustive_count
    (get "dse.exhaustive_count");
  check Alcotest.bool "halving batches dispatched" true
    (get "dse.guided_batches" > 0)

let inverted_rank_misses_frontier () =
  (* Mutation test: ranking worst-first must demonstrably break the search —
     the cap bites before the frontier points are reached — proving the
     surrogate ranking (not the cap alone) is what finds the frontier. *)
  let ex = run_exn ~jobs:2 guided_spec in
  let bad =
    run_exn ~jobs:2 ~strategy:Dse.Guided ~defect:Dse.Inverted_rank guided_spec
  in
  check Alcotest.bool "defective ranking misses the frontier" true
    (Dse.frontier_labels bad <> Dse.frontier_labels ex)

let guided_resume_and_jobs_identical () =
  let a = run_exn ~jobs:1 ~strategy:Dse.Guided guided_spec in
  let b = run_exn ~jobs:4 ~strategy:Dse.Guided guided_spec in
  check Alcotest.string "jobs=1 equals jobs=4" (result_text a) (result_text b);
  with_ckpt_file (fun ckpt ->
      let cut =
        run_exn ~jobs:2 ~checkpoint:ckpt ~stop_after:3 ~strategy:Dse.Guided
          guided_spec
      in
      check Alcotest.bool "interrupted" false cut.Dse.complete;
      let resumed =
        run_exn ~jobs:4 ~checkpoint:ckpt ~resume:true ~strategy:Dse.Guided
          guided_spec
      in
      check Alcotest.string "guided resume bit-identical" (result_text a)
        (result_text resumed);
      (* The checkpoint left behind equals, byte for byte, one written by an
         uninterrupted guided run. *)
      let ic = open_in_bin ckpt in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let direct =
        Json.to_string ~indent:2
          (Dse.checkpoint_to_json ~strategy:Dse.Guided guided_spec
             a.Dse.outcomes)
        ^ "\n"
      in
      check Alcotest.string "final checkpoint byte-identical" direct text)

let guided_guardrails () =
  (* An exhaustive resume must not silently consume a guided checkpoint. *)
  with_ckpt_file (fun ckpt ->
      let _ =
        run_exn ~jobs:1 ~checkpoint:ckpt ~stop_after:1 ~strategy:Dse.Guided
          guided_spec
      in
      match Dse.run ~checkpoint:ckpt ~resume:true guided_spec with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.fail "exhaustive resume from a guided checkpoint must be rejected")

let stats_and_timeline () =
  let r = run_exn ~jobs:2 small_spec in
  let s = r.Dse.stats in
  let get p =
    match Stats.find s p with
    | Some (Stats.VInt i) -> i
    | _ -> Alcotest.fail ("missing dse stat " ^ p)
  in
  check Alcotest.int "points_evaluated" 8 (get "dse.points_evaluated");
  check Alcotest.int "cache_hits" 0 (get "dse.cache_hits");
  check Alcotest.int "frontier_size" (List.length r.Dse.front)
    (get "dse.frontier_size");
  check Alcotest.int "one span per point" (List.length r.Dse.outcomes)
    (List.length r.Dse.timeline);
  (* The ranked table renders one data row per outcome, under its header. *)
  let rows =
    List.filter (String.starts_with ~prefix:"| ") (String.split_on_char '\n' (Dse.render r))
  in
  check Alcotest.int "table rows" (List.length r.Dse.outcomes + 1) (List.length rows)

let report_and_budget_gate () =
  let r = run_exn ~jobs:2 small_spec in
  let lines = String.split_on_char '\n' (Dse.render ~top:2 r) in
  let labels = Dse.frontier_labels r in
  check Alcotest.bool "labels sorted" true (labels = List.sort compare labels);
  check Alcotest.int "one label per frontier point" (List.length r.Dse.front) (List.length labels);
  check Alcotest.bool "counts line" true
    (List.mem
       (Printf.sprintf "8 point(s): 8 measured fresh, 0 restored, %d on the Pareto frontier"
          (List.length r.Dse.front))
       lines);
  check Alcotest.int "one frontier line per point" (List.length r.Dse.front)
    (List.length (List.filter (String.starts_with ~prefix:"  frontier: ") lines));
  check Alcotest.bool "measured share line" true
    (List.exists (String.starts_with ~prefix:"engine-measured ") lines);
  let measured = float_of_int r.Dse.measured /. float_of_int r.Dse.exhaustive_count in
  check Alcotest.bool "the measured share passes" true (Dse.check_max_frac measured r = Ok ());
  check Alcotest.bool "a smaller budget fails" true
    (Result.is_error (Dse.check_max_frac (measured /. 2.0) r))

let suites =
  [
    ( "dse",
      [
        Alcotest.test_case "points_of_spec shape" `Quick points_of_spec_shape;
        Alcotest.test_case "spec validation" `Quick spec_validation;
        Alcotest.test_case "evaluate mapped and rejected" `Quick
          evaluate_mapped_and_rejected;
        Alcotest.test_case "dominates axioms" `Quick dominates_axioms;
        QCheck_alcotest.to_alcotest frontier_is_exactly_the_nondominated_set;
        QCheck_alcotest.to_alcotest checkpoint_roundtrip_random;
        Alcotest.test_case "checkpoint strategy field compat" `Quick
          checkpoint_strategy_field_compat;
        Alcotest.test_case "checkpoint bytes pinned" `Quick checkpoint_bytes_pinned;
        Alcotest.test_case "resume is bit-identical" `Slow resume_is_bit_identical;
        Alcotest.test_case "jobs value immaterial" `Slow jobs_value_is_immaterial;
        Alcotest.test_case "mismatched checkpoint rejected" `Quick
          mismatched_checkpoint_rejected;
        Alcotest.test_case "guided reaches frontier cheaply" `Slow
          guided_reaches_frontier_cheaply;
        Alcotest.test_case "inverted rank misses frontier" `Slow
          inverted_rank_misses_frontier;
        Alcotest.test_case "guided resume and jobs identical" `Slow
          guided_resume_and_jobs_identical;
        Alcotest.test_case "guided guardrails" `Quick guided_guardrails;
        Alcotest.test_case "stats and timeline" `Quick stats_and_timeline;
        Alcotest.test_case "report and budget gate" `Quick report_and_budget_gate;
      ] );
  ]
