(* The counter registry: registration semantics, JSON round-trip, snapshot
   diffing — plus the property-based guarantees MESA's measure-then-remap
   loop relies on: counters stay non-negative and monotone across profiling
   windows, and the controller's cycle accounting identity holds on random
   accepted loops. *)

let check = Alcotest.check
let names s = List.map fst (Stats.to_assoc s)

(* -------------------- registration -------------------- *)

let registration_and_paths () =
  let reg = Stats.registry () in
  let cpu = Stats.group reg "cpu" in
  let c = Stats.counter cpu "cycles" in
  Stats.incr c;
  Stats.add c 9;
  check Alcotest.int "counter accumulates" 10 (Stats.get c);
  let l1 = Stats.subgroup (Stats.group reg "cache") "l1" in
  let h = Stats.histogram l1 "latency" in
  Stats.observe h 3.0;
  Stats.observe h 5.0;
  Stats.derived cpu "ipc" (fun () -> 1.5);
  Stats.int_probe cpu "insts" (fun () -> 7);
  let s = Stats.snapshot reg in
  check
    Alcotest.(list string)
    "dotted paths in registration order"
    [ "cpu.cycles"; "cpu.ipc"; "cpu.insts"; "cache.l1.latency" ]
    (names s);
  check Alcotest.(option int) "find_int" (Some 10) (Stats.find_int s "cpu.cycles");
  (match Stats.find_hist s "cache.l1.latency" with
  | Some hh ->
    check Alcotest.int "hist count" 2 hh.Stats.hcount;
    check (Alcotest.float 1e-9) "hist mean" 4.0 (Stats.hist_mean hh);
    check (Alcotest.float 1e-9) "hist min" 3.0 hh.Stats.hmin;
    check (Alcotest.float 1e-9) "hist max" 5.0 hh.Stats.hmax
  | None -> Alcotest.fail "histogram missing from snapshot");
  check Alcotest.bool "invariants hold" true (Stats.check_invariants s = Ok ())

let duplicate_names_rejected () =
  let reg = Stats.registry () in
  let g = Stats.group reg "cpu" in
  let _ = Stats.counter g "cycles" in
  let dup () = ignore (Stats.counter g "cycles") in
  check Alcotest.bool "duplicate counter raises" true
    (match dup () with exception Invalid_argument _ -> true | () -> false);
  check Alcotest.bool "duplicate group raises" true
    (match Stats.group reg "cpu" with exception Invalid_argument _ -> true | _ -> false);
  check Alcotest.bool "name collision across kinds raises" true
    (match Stats.histogram g "cycles" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "dotted names rejected" true
    (match Stats.counter g "a.b" with exception Invalid_argument _ -> true | _ -> false);
  check Alcotest.bool "empty names rejected" true
    (match Stats.group reg "" with exception Invalid_argument _ -> true | _ -> false)

(* -------------------- JSON round-trip -------------------- *)

let sample_registry () =
  let reg = Stats.registry () in
  let cpu = Stats.group reg "cpu" in
  Stats.add (Stats.counter cpu "cycles") 1234;
  Stats.derived cpu "ipc" (fun () -> 1.75);
  let cache = Stats.group reg "cache" in
  let l1 = Stats.subgroup cache "l1" in
  Stats.add (Stats.counter l1 "hits") 99;
  Stats.add (Stats.counter l1 "misses") 7;
  let h = Stats.histogram (Stats.subgroup cache "l2") "latency" in
  Stats.observe h 12.0;
  Stats.observe h 31.5;
  Stats.observe h 12.0;
  reg

let json_roundtrip () =
  let s = Stats.snapshot (sample_registry ()) in
  let text = Json.to_string ~indent:2 (Stats.to_json s) in
  match Json.of_string text with
  | Error e -> Alcotest.fail ("emitted JSON does not parse: " ^ e)
  | Ok j -> (
    check Alcotest.(option int) "nested path readable" (Some 99)
      (Option.bind (Json.path [ "cache"; "l1"; "hits" ] j) Json.to_int);
    match Stats.of_json j with
    | Error e -> Alcotest.fail ("of_json failed: " ^ e)
    | Ok s' ->
      check Alcotest.bool "round-trip preserves every entry" true
        (Stats.to_assoc s = Stats.to_assoc s'))

(* Randomized counterpart: any registry shape must survive the full
   text round-trip (to_json, print, parse, of_json). Histograms always get
   at least one observation — an empty histogram normalizes its min/max
   sentinels on serialization, so identity only holds for observed ones. *)
let gen_registry_spec =
  let open QCheck2.Gen in
  let finite =
    pair (int_range (-4000) 4000) (int_range (-8) 8) >>= fun (m, e) ->
    return (float_of_int m *. (2.0 ** float_of_int e))
  in
  let group_spec =
    pair
      (list_size (0 -- 3) (int_bound 1_000_000))
      (list_size (0 -- 2) (list_size (1 -- 5) finite))
  in
  list_size (1 -- 3) group_spec

let build_registry spec =
  let reg = Stats.registry () in
  List.iteri
    (fun gi (counters, hists) ->
      let g = Stats.group reg (Printf.sprintf "g%d" gi) in
      List.iteri
        (fun ci v -> Stats.add (Stats.counter g (Printf.sprintf "c%d" ci)) v)
        counters;
      List.iteri
        (fun hi obs ->
          let h = Stats.histogram g (Printf.sprintf "h%d" hi) in
          List.iter (Stats.observe h) obs)
        hists)
    spec;
  reg

let print_registry_spec spec =
  Json.to_string (Stats.to_json (Stats.snapshot (build_registry spec)))

let json_roundtrip_random =
  QCheck2.Test.make ~name:"json round-trip is the identity on random snapshots"
    ~count:100 ~print:print_registry_spec gen_registry_spec (fun spec ->
      let s = Stats.snapshot (build_registry spec) in
      let text = Json.to_string ~indent:2 (Stats.to_json s) in
      match Result.bind (Json.of_string text) Stats.of_json with
      | Error _ -> false
      | Ok s' -> Stats.to_assoc s' = Stats.to_assoc s)

(* -------------------- diff -------------------- *)

let diff_reports_changes_only () =
  let reg = Stats.registry () in
  let g = Stats.group reg "ctl" in
  let a = Stats.counter g "offloads" in
  let b = Stats.counter g "steady" in
  let h = Stats.histogram g "latency" in
  Stats.add a 1;
  Stats.add b 5;
  Stats.observe h 2.0;
  let before = Stats.snapshot reg in
  Stats.add a 3;
  Stats.observe h 4.0;
  let after = Stats.snapshot reg in
  let deltas = (Stats.gate ~max_regress:0.0 before after).Stats.deltas in
  let find p = List.find_opt (fun d -> d.Stats.path = p) deltas in
  (match find "ctl.offloads" with
  | Some d ->
    check (Alcotest.float 1e-9) "counter before" 1.0 d.Stats.before;
    check (Alcotest.float 1e-9) "counter after" 4.0 d.Stats.after
  | None -> Alcotest.fail "changed counter missing from diff");
  check Alcotest.bool "unchanged counter excluded" true (find "ctl.steady" = None);
  (match find "ctl.latency" with
  | Some d -> check (Alcotest.float 1e-9) "hist sum delta" 6.0 d.Stats.after
  | None -> Alcotest.fail "histogram sum missing from diff");
  match find "ctl.latency.count" with
  | Some d -> check (Alcotest.float 1e-9) "hist count delta" 2.0 d.Stats.after
  | None -> Alcotest.fail "histogram count missing from diff"

let invariant_checker_catches_bad_state () =
  let reg = Stats.registry () in
  let g = Stats.group reg "bad" in
  let c = Stats.counter g "negative" in
  Stats.add c (-3);
  Stats.derived g "nan" (fun () -> Float.nan);
  match Stats.check_invariants (Stats.snapshot reg) with
  | Ok () -> Alcotest.fail "negative counter and NaN probe not flagged"
  | Error problems -> check Alcotest.int "both violations reported" 2 (List.length problems)

(* -------------------- properties -------------------- *)

(* Engine profiling windows: re-executing a paused loop window by window
   must only ever grow the registry's counters (non-negative, monotone) —
   the foundation under iterative reoptimization's readouts. *)
let monotone_across_windows =
  QCheck2.Test.make ~name:"counters monotone across profile windows" ~count:30
    ~print:Gen.loop_spec_print Gen.loop_spec (fun spec ->
      let prog, machine = Gen.build_loop spec in
      let code = Program.code prog in
      let n_loop =
        1
        + (Array.to_list code
          |> List.mapi (fun i x -> (i, x))
          |> List.find (fun (_, x) ->
                 match x with Isa.Branch (_, _, _, o) -> o < 0 | _ -> false)
          |> fst)
      in
      let region =
        {
          Region.entry = Program.base prog;
          back_branch_addr = Program.base prog + (4 * (n_loop - 1));
          instrs = Array.sub code 0 n_loop;
          pragma = None;
          observed_iterations = 8;
        }
      in
      match Ldfg.build region with
      | Error _ -> false
      | Ok dfg -> (
        match
          Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc (Perf_model.create dfg)
        with
        | Error _ -> false
        | Ok placement ->
          let config = Accel_config.plain placement in
          let hier = Hierarchy.create Hierarchy.default_config in
          let reg = Stats.registry () in
          let grp = Stats.group reg "engine" in
          let activity = Activity.create () in
          Activity.register_stats activity grp;
          let cycles = Stats.counter grp "accel_cycles" in
          let iters = Stats.counter grp "iterations_run" in
          Hierarchy.register_stats hier (Stats.group reg "cache");
          let ok = ref true in
          let prev = ref (Stats.snapshot reg) in
          let completed = ref false in
          let windows = ref 0 in
          while (not !completed) && !ok && !windows < 16 do
            incr windows;
            match Engine.execute ~stop_after:64 ~config ~dfg ~machine ~hier () with
            | Error _ -> ok := false
            | Ok res ->
              Stats.add cycles res.Engine.cycles;
              Stats.add iters res.Engine.iterations;
              Activity.add activity res.Engine.activity;
              completed := res.Engine.completed;
              let cur = Stats.snapshot reg in
              (* Monotonicity applies to the integer counters; derived
                 ratios (hit rates) legitimately move both ways. *)
              let is_int p = Stats.find_int cur p <> None in
              ok :=
                !ok
                && Stats.check_invariants cur = Ok ()
                && List.for_all
                     (fun d ->
                       (not (is_int d.Stats.path)) || d.Stats.after >= d.Stats.before)
                     (Stats.gate ~max_regress:0.0 !prev cur).Stats.deltas;
              prev := cur
          done;
          !ok && !completed))

(* The controller's accounting identity, read back from its own snapshot:
   total = cpu + accel + overhead, with every counter group present. *)
let accounting_identity =
  QCheck2.Test.make ~name:"total = cpu + accel + overhead on random loops" ~count:30
    ~print:Gen.loop_spec_print Gen.loop_spec (fun spec ->
      let prog, machine = Gen.build_loop spec in
      let report = Controller.run prog machine in
      let s = report.Controller.stats in
      let get p = Option.value ~default:min_int (Stats.find_int s p) in
      Stats.check_invariants s = Ok ()
      && get "controller.total_cycles"
         = get "controller.cpu_cycles" + get "controller.accel_cycles"
           + get "controller.overhead_cycles"
      && get "controller.total_cycles" = report.Controller.total_cycles
      && get "cpu.cycles" = report.Controller.cpu_cycles
      && List.exists (fun n -> String.length n > 6 && String.sub n 0 6 = "cache.")
           (names s)
      && List.exists (fun n -> String.length n > 7 && String.sub n 0 7 = "engine.")
           (names s))

(* -------------------- regression gate -------------------- *)

let snapshot_of fields =
  let group (g, kvs) = (g, Json.Assoc (List.map (fun (k, v) -> (k, Json.Float v)) kvs)) in
  match Stats.of_json (Json.Assoc (List.map group fields)) with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let gate_snapshots ~total ~overhead ~misses =
  snapshot_of
    [
      ("controller", [ ("total_cycles", total); ("overhead_cycles", overhead) ]);
      ("cache", [ ("misses", misses) ]);
    ]

let gated_paths g = List.map (fun d -> d.Stats.path) g.Stats.violations

let gate_defaults_and_threshold () =
  let before = gate_snapshots ~total:100.0 ~overhead:0.0 ~misses:10.0 in
  let g =
    Stats.gate ~max_regress:0.0 before (gate_snapshots ~total:101.0 ~overhead:1e-9 ~misses:20.0)
  in
  check Alcotest.(list string) "default prefixes gate the cycle accounts only"
    [ "controller.total_cycles" ] (gated_paths g);
  check Alcotest.int "every change is reported" 3 (List.length g.Stats.deltas);
  let g =
    Stats.gate ~max_regress:0.0 before (gate_snapshots ~total:100.0 ~overhead:3e-9 ~misses:10.0)
  in
  check Alcotest.(list string) "growth past the 1e-9 slack is a regression"
    [ "controller.overhead_cycles" ] (gated_paths g);
  let at_limit = gate_snapshots ~total:101.0 ~overhead:0.0 ~misses:10.0 in
  check Alcotest.(list string) "growth exactly at max_regress passes" []
    (gated_paths (Stats.gate ~max_regress:1.0 before at_limit));
  let past = gate_snapshots ~total:102.0 ~overhead:0.0 ~misses:10.0 in
  check Alcotest.(list string) "growth past max_regress fails" [ "controller.total_cycles" ]
    (gated_paths (Stats.gate ~max_regress:1.0 before past));
  let g = Stats.gate ~prefixes:[ "cache." ] ~max_regress:0.0 before past in
  check Alcotest.(list string) "explicit prefixes replace the defaults" [] (gated_paths g);
  let g =
    Stats.gate ~prefixes:[ "cache." ] ~max_regress:0.0 before
      (gate_snapshots ~total:100.0 ~overhead:0.0 ~misses:11.0)
  in
  check Alcotest.(list string) "a prefix gates its subtree" [ "cache.misses" ] (gated_paths g)

let gate_renders_verdict () =
  let before = gate_snapshots ~total:100.0 ~overhead:0.0 ~misses:10.0 in
  let text g = String.split_on_char '\n' (Stats.render_gate g) in
  let after = gate_snapshots ~total:101.0 ~overhead:0.0 ~misses:12.0 in
  let failing = text (Stats.gate ~max_regress:0.0 before after) in
  check Alcotest.(list string) "changed paths, gated ones starred, then the regressions"
    [
      "    cache.misses                                     10 -> 12";
      "  * controller.total_cycles                          100 -> 101";
      "REGRESSED controller.total_cycles: 100 -> 101 (limit +0.0%)";
      "";
    ]
    failing;
  check Alcotest.(list string) "a clean gate ends in the OK verdict"
    [ "stats-diff: OK (0 changed counter(s), none gated past 2.0%)"; "" ]
    (text (Stats.gate ~max_regress:2.0 before before))

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "registration and paths" `Quick registration_and_paths;
        Alcotest.test_case "duplicate names rejected" `Quick duplicate_names_rejected;
        Alcotest.test_case "json round-trip" `Quick json_roundtrip;
        QCheck_alcotest.to_alcotest json_roundtrip_random;
        Alcotest.test_case "diff reports changes only" `Quick diff_reports_changes_only;
        Alcotest.test_case "invariant checker" `Quick invariant_checker_catches_bad_state;
        Alcotest.test_case "gate defaults and threshold" `Quick gate_defaults_and_threshold;
        Alcotest.test_case "gate renders its verdict" `Quick gate_renders_verdict;
        QCheck_alcotest.to_alcotest monotone_across_windows;
        QCheck_alcotest.to_alcotest accounting_identity;
      ] );
  ]
