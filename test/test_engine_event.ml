(* Differential pinning of the event-driven engine against the legacy
   reference engine ({!Engine_reference}, the test-only oracle library in
   test/oracle).

   The event core drives a compiled schedule through {!Timing.step},
   batches fault clock advances, indexes store-to-load disambiguation and
   charges what the schedule fixes once per window — all pure
   restructurings, so *every* observable must stay bit-identical: cycles,
   iterations, memory contents, architectural registers, every Activity
   counter, the full measured stats snapshot (per-node latency and
   per-edge transfer histograms, contention queues, achieved II), and the
   attribution bucket sums. *)

let check = Alcotest.check

(* One draw: a random workload on a random fabric (test/gen.ml axes) with a
   random tiling / pipelining choice so the pipelined steady state, the
   multi-instance clock and the plain serial path are all exercised. The
   profiler is armed or not (an unprofiled window is what every
   [Controller.run] executes), and the window runs to the loop exit or
   pauses after [stop_after] iterations. *)
type draw = {
  arch : Gen.arch_case;
  tiling : int;
  pipelined : bool;
  attribution : bool;
  stop_after : int option;
}

let gen_draw =
  let open QCheck2.Gen in
  Gen.arch_case () >>= fun arch ->
  oneofl [ 1; 2; 4; 32 ] >>= fun tiling ->
  bool >>= fun pipelined ->
  bool >>= fun attribution ->
  oneofl [ None; Some 1; Some 64 ] >>= fun stop_after ->
  return { arch; tiling; pipelined; attribution; stop_after }

let print_draw d =
  Printf.sprintf "%s tiling=%d pipelined=%b attribution=%b stop_after=%s"
    (Gen.arch_case_print d.arch) d.tiling d.pipelined d.attribution
    (match d.stop_after with None -> "none" | Some k -> string_of_int k)

(* Everything observable from one engine run. The stats snapshot is
   compared as serialized JSON: histogram creation order pins the key
   order, so string equality proves the engines end with the same
   snapshot, its histograms created in the same order. *)
type observation = {
  o_res : Engine.result;
  o_mem_checksum : int;
  o_stats_json : string;
  o_attr_totals : int array;
  o_attr_cycles : int;
}

let execute = function
  | `Event -> Engine.execute
  | `Reference -> Engine_reference.execute

let run_one ~engine ?fault_spec (d : draw) =
  let k = Gen.arch_case_kernel d.arch in
  let grid =
    Grid.make ~rows:d.arch.Gen.rows ~cols:d.arch.Gen.cols ~mem_ports:d.arch.Gen.ports ()
  in
  let dfg = Runner.dfg_of_kernel k in
  match Mapper.map ~grid ~kind:d.arch.Gen.kind (Perf_model.create dfg) with
  | Error _ -> None (* unmappable draw: nothing to compare *)
  | Ok placement ->
    let config =
      Accel_config.with_opts ~tiling:d.tiling ~pipelined:d.pipelined placement
    in
    let mem = Main_memory.create () in
    let machine = Kernel.prepare k mem in
    let attribution =
      if d.attribution then begin
        let a = Attribution.create ~grid () in
        Attribution.begin_window a ~at:0.0;
        Some a
      end
      else None
    in
    let fault = Option.map (fun spec -> Fault.create ~grid spec) fault_spec in
    let hier = Hierarchy.create Hierarchy.default_config in
    match
      execute engine ?attribution ?stop_after:d.stop_after ?fault ~config ~dfg
        ~machine ~hier ()
    with
    | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e
    | Ok res ->
      Some
        (Ok
           ( {
               o_res = res;
               o_mem_checksum = Main_memory.checksum mem;
               o_stats_json = Json.to_string (Stats.to_json res.Engine.measured);
               o_attr_totals =
                 Option.fold ~none:[||] ~some:Attribution.totals attribution;
               o_attr_cycles =
                 Option.fold ~none:0 ~some:Attribution.total_cycles attribution;
             },
             machine ))
    | exception exn when fault <> None ->
      (* A wild corrupted address escaping mid-firing is documented
         behavior; both engines must blow up at the same point with the
         same partial memory image and a corrupted-window flag. *)
      Some
        (Error
           ( Printexc.to_string exn,
             Main_memory.checksum mem,
             Option.fold ~none:false ~some:Fault.window_corrupted fault ))

let same_detection (a : Engine.detection option) (b : Engine.detection option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.Engine.d_kinds = b.Engine.d_kinds
    && a.Engine.d_latency = b.Engine.d_latency
    && a.Engine.d_watchdog = b.Engine.d_watchdog
  | _ -> false

let compare_observations name (ev, ev_m) (re, re_m) =
  check Alcotest.int (name ^ ": cycles") re.o_res.Engine.cycles ev.o_res.Engine.cycles;
  check Alcotest.int (name ^ ": iterations") re.o_res.Engine.iterations
    ev.o_res.Engine.iterations;
  check Alcotest.bool (name ^ ": completed") re.o_res.Engine.completed
    ev.o_res.Engine.completed;
  check Alcotest.int (name ^ ": exit pc") re.o_res.Engine.exit_pc
    ev.o_res.Engine.exit_pc;
  check Alcotest.bool (name ^ ": budget exhausted") re.o_res.Engine.budget_exhausted
    ev.o_res.Engine.budget_exhausted;
  let ra = re.o_res.Engine.activity and ea = ev.o_res.Engine.activity in
  List.iter
    (fun (field, get) ->
      check Alcotest.int (name ^ ": activity " ^ field) (get ra) (get ea))
    Activity.
      [
        ("int_ops", fun a -> a.int_ops);
        ("fp_ops", fun a -> a.fp_ops);
        ("mem_ops", fun a -> a.mem_ops);
        ("branch_ops", fun a -> a.branch_ops);
        ("disabled_ops", fun a -> a.disabled_ops);
        ("forwarded_loads", fun a -> a.forwarded_loads);
        ("local_transfers", fun a -> a.local_transfers);
        ("noc_transfers", fun a -> a.noc_transfers);
        ("iterations", fun a -> a.iterations);
        ("cycles", fun a -> a.cycles);
      ];
  check Alcotest.bool (name ^ ": detection") true
    (same_detection re.o_res.Engine.fault ev.o_res.Engine.fault);
  check Alcotest.int (name ^ ": memory checksum") re.o_mem_checksum ev.o_mem_checksum;
  check Alcotest.bool (name ^ ": registers") true (Machine.arch_equal re_m ev_m);
  check Alcotest.string (name ^ ": stats snapshot") re.o_stats_json ev.o_stats_json;
  check Alcotest.(array int) (name ^ ": attribution buckets") re.o_attr_totals
    ev.o_attr_totals;
  check Alcotest.int (name ^ ": attribution cycles") re.o_attr_cycles ev.o_attr_cycles

(* {2 Property: random fabric x kernel x tiling draws are bit-identical
   across the two engines in every observable.} *)

let engines_bit_identical =
  QCheck2.Test.make
    ~name:"random configs: event engine bit-identical to reference oracle" ~count:24
    ~print:print_draw gen_draw
    (fun d ->
      match (run_one ~engine:`Event d, run_one ~engine:`Reference d) with
      | None, None -> true (* both reject the unmappable draw the same way *)
      | Some (Ok ev), Some (Ok re) ->
        compare_observations (print_draw d) ev re;
        true
      | _ -> false)

(* {2 Fault injection across a batched time jump.}

   In steady state the fault clock advances through {!Fault.tick}'s
   batched fast path (no event due -> no list traversal). The schedule
   below strikes at iterations 100 and 300 — both deep inside the steady
   state of a pipelined, tiled nn run — so each strike lands *after* a
   batched quiet stretch and must corrupt its latch at exactly the
   reference iteration. Detection metadata, the corrupted memory image and the cycle
   count must all match the reference engine exactly. *)

let fault_crosses_batched_jump () =
  let d =
    {
      arch = { Gen.kernel = 0; rows = 8; cols = 16; ports = 4; kind = Interconnect.Mesh_noc };
      tiling = 4;
      pipelined = true;
      attribution = true;
      stop_after = None;
    }
  in
  (* Fix the drawn kernel to nn regardless of workload-list order. *)
  let d =
    let all = Workloads.all () in
    let idx =
      match List.find_index (fun k -> k.Kernel.name = "nn") all with
      | Some i -> i
      | None -> Alcotest.fail "nn not in workload list"
    in
    { d with arch = { d.arch with Gen.kernel = idx } }
  in
  (* Several seeds draw different victim PEs, so both fault endings are
     exercised: windows whose corruption is detected at the checksum, and
     windows whose wild corrupted address escapes mid-firing. Either way
     the two engines must agree exactly. *)
  let detected = ref 0 and escaped = ref 0 in
  List.iter
    (fun seed ->
      let spec =
        Fault.spec ~seed
          [
            { Fault.at = 100; kind = Fault.Transient_pe; coord = None };
            { Fault.at = 300; kind = Fault.Permanent_pe; coord = None };
          ]
      in
      let name = Printf.sprintf "faulted nn (seed %d)" seed in
      match
        ( run_one ~engine:`Event ~fault_spec:spec d,
          run_one ~engine:`Reference ~fault_spec:spec d )
      with
      | Some (Ok ((ev_obs, _) as ev)), Some (Ok re) ->
        check Alcotest.bool (name ^ ": a fault was detected") true
          (ev_obs.o_res.Engine.fault <> None);
        incr detected;
        compare_observations name ev re
      | Some (Error (e1, ck1, c1)), Some (Error (e2, ck2, c2)) ->
        incr escaped;
        check Alcotest.string (name ^ ": same escape") e2 e1;
        check Alcotest.int (name ^ ": same partial memory") ck2 ck1;
        check Alcotest.bool (name ^ ": event window corrupted") true c1;
        check Alcotest.bool (name ^ ": reference window corrupted") true c2
      | Some (Ok _), Some (Error _) | Some (Error _), Some (Ok _) ->
        Alcotest.failf "%s: engines disagree on whether the window escapes" name
      | _ -> Alcotest.fail "nn must map on 8x16")
    [ 2; 7; 11; 23; 41 ];
  check Alcotest.bool "at least one detected window" true (!detected > 0)

(* {2 A steady-state firing allocates nothing.}

   Words allocated per node firing at M-64: the difference between windows
   of 2048 and 1024 iterations, so the per-window setup cancels. A cache
   allocates each set's storage on the set's first access, so a first
   window touches every set the measured ones use. Unprofiled is the path
   every [Controller.run] takes; profiled, with the attribution collector
   armed, is [mesa_cli profile]'s, mesad's [--profile-window] runs' and
   the fuzz fabrics drawn with [profile]'s. *)
let firing_allocation ~profiled () =
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let grid = Grid.m64 in
      let dfg = Runner.dfg_of_kernel k in
      let placement =
        match Runner.placement_of ~grid k with Ok p -> p | Error e -> Alcotest.fail e
      in
      let config = Runner.optimized_config ~grid k dfg placement in
      let hier = Hierarchy.create Hierarchy.default_config in
      let attribution = if profiled then Some (Attribution.create ~grid ()) else None in
      let window stop_after =
        let machine = Kernel.prepare k (Main_memory.create ()) in
        Option.iter (fun a -> Attribution.begin_window a ~at:0.0) attribution;
        let before = Gc.minor_words () in
        let res =
          Engine.execute ~stop_after ?attribution ~config ~dfg ~machine ~hier ()
        in
        let words = Gc.minor_words () -. before in
        (match res with
        | Ok r -> check Alcotest.int (name ^ ": iterations") stop_after r.Engine.iterations
        | Error e -> Alcotest.failf "%s: %s" name e);
        words
      in
      ignore (window 2048);
      let short = window 1024 and long = window 2048 in
      let per_firing = (long -. short) /. float_of_int (1024 * Dfg.node_count dfg) in
      if per_firing >= 0.05 then
        Alcotest.failf "%s: %.3f words per steady-state%s firing" name per_firing
          (if profiled then " profiled" else ""))
    [ "nn"; "kmeans"; "bfs" ]

let suites =
  [
    ( "engine-event",
      [
        QCheck_alcotest.to_alcotest engines_bit_identical;
        Alcotest.test_case "fault crosses a batched time jump" `Quick
          fault_crosses_batched_jump;
        Alcotest.test_case "a steady-state firing allocates nothing" `Quick
          (firing_allocation ~profiled:false);
        Alcotest.test_case "a steady-state profiled firing allocates nothing" `Quick
          (firing_allocation ~profiled:true);
      ] );
  ]
