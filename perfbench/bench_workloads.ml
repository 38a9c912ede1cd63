(* The four end-to-end workloads, run with tracing off. Each one sets up
   [setup_reps] times (the median is [setup_s]), then repeats its
   operation for [seconds], checking exact outputs on every operation.
   Every operation is one call to the library's own entry point:
   Experiments/Ablation, Refine.run, Fuzz.run and Loadgen.run. *)

open Bench_util

type run = {
  setup : float list;       (** seconds per set-up repetition *)
  latency_ms : float list;  (** per-operation samples whose median is op_p50_ms *)
  completed : int;          (** operations completed in the timed phase *)
  elapsed : float;          (** wall-clock seconds of the timed phase *)
  op_label : string;        (** what one operation is *)
  extra : (string * Json.t) list;
}

let setup_reps = 3

let repeat_setup f = List.init setup_reps (fun _ -> snd (timed f))

(* Back-to-back calls of [f], at least [min_ops] of them, starting another
   only while it is expected (from the previous call) to end within
   [seconds]. Returns each result with its seconds, and the phase's
   wall-clock seconds. *)
let timed_loop ~seconds ~min_ops f =
  let t0 = now () in
  let rec go n last acc =
    let elapsed = now () -. t0 in
    if n >= min_ops && elapsed +. last > seconds then (List.rev acc, elapsed)
    else
      let r, d = timed f in
      go (n + 1) d ((r, d) :: acc)
  in
  go 0 0.0 []

let ms_of runs = List.map (fun (_, d) -> 1000.0 *. d) runs

(* Seeds for successive operations, drawn from the run's seed. *)
let seed_stream seed =
  let master = Prng.create seed in
  fun () -> Int64.to_int (Prng.bits64 master) land max_int

(* ------------------------------------------------------------------ *)
(* paper-suite: every figure and table of the evaluation, serially.    *)

let suite_cycles_per_pass = 6_872_723

let suite : (string * (unit -> Experiments.outcome)) list =
  [
    ("fig11", fun () -> Experiments.fig11 ~jobs:1 ());
    ("fig12", fun () -> Experiments.fig12 ~jobs:1 ());
    ("fig13", fun () -> Experiments.fig13 ~jobs:1 ());
    ("fig14", fun () -> Experiments.fig14 ~jobs:1 ());
    ("fig15", fun () -> Experiments.fig15 ~jobs:1 ());
    ("fig16", fun () -> Experiments.fig16 ~jobs:1 ());
    ("table1", fun () -> Experiments.table1 ~jobs:1 ());
    ("table2", fun () -> Experiments.table2 ~jobs:1 ());
    ("ablation", fun () -> Ablation.experiment ~jobs:1 ());
  ]

let outputs_ok (o : Experiments.outcome) =
  not (List.exists (List.mem "FAIL") (Tables.data_rows o.Experiments.table))

(* One pass from a cold translation memo, so every pass does the same
   work. *)
let suite_pass tally experiments =
  Runner.clear_translation_cache ();
  let c0 = Sim_meter.read () in
  let failing =
    List.filter_map
      (fun (name, run) -> if outputs_ok (run ()) then None else Some name)
      experiments
  in
  let cycles = Sim_meter.read () - c0 in
  let a =
    pin tally "paper-suite.cycles_per_pass" (cycles = suite_cycles_per_pass)
      (Printf.sprintf "%d simulated cycles, expected %d" cycles
         suite_cycles_per_pass)
  in
  let b =
    pin tally "paper-suite.outputs" (failing = [])
      (if failing = [] then "every outputs cell ok"
       else "FAIL in " ^ String.concat ", " failing)
  in
  op tally (a && b)

(* Set-up is the first pass, three times. The suite's inputs are the
   paper's fixed kernels: the seed changes nothing here. *)
let paper_suite ~seconds tally =
  let setup = repeat_setup (fun () -> suite_pass tally suite) in
  let runs, elapsed =
    timed_loop ~seconds ~min_ops:5 (fun () -> suite_pass tally suite)
  in
  { setup; latency_ms = ms_of runs; completed = List.length runs; elapsed;
    op_label = "suite pass"; extra = [] }

(* ------------------------------------------------------------------ *)
(* refine: model-guided placement refinement of five kernels at M-64.  *)

(* (baseline, refined) engine cycles of each kernel: the golden refine
   pins of the test suite. *)
let refine_pins =
  [
    ("nn", (19752, 19752));
    ("kmeans", (12375, 6277));
    ("bfs", (12311, 12309));
    ("cfd", (24629, 24628));
    ("hotspot", (6274, 6273));
  ]

let refine_cycles_per_pass = 155_751
let refine_grid = Grid.m64

let refine_pass tally =
  Runner.clear_translation_cache ();
  let c0 = Sim_meter.read () in
  let results =
    List.map
      (fun (name, expected) ->
        match Refine.run ~grid:refine_grid (Workloads.find name) with
        | Ok r ->
          let got = (r.Refine.baseline_cycles, r.Refine.refined_cycles) in
          pin tally ("refine." ^ name) (got = expected)
            (Printf.sprintf "%d -> %d cycles, expected %d -> %d" (fst got)
               (snd got) (fst expected) (snd expected))
        | Error e -> pin tally ("refine." ^ name) false e)
      refine_pins
  in
  let cycles = Sim_meter.read () - c0 in
  let a =
    pin tally "refine.cycles_per_pass" (cycles = refine_cycles_per_pass)
      (Printf.sprintf "%d simulated cycles, expected %d" cycles
         refine_cycles_per_pass)
  in
  op tally (a && List.for_all Fun.id results)

(* Set-up is the first pass from a cold memo, three times, as for the
   suite. The kernels are fixed: the seed changes nothing here. *)
let refine ~seconds tally =
  let setup = repeat_setup (fun () -> refine_pass tally) in
  let runs, elapsed =
    timed_loop ~seconds ~min_ops:3 (fun () -> refine_pass tally)
  in
  { setup; latency_ms = ms_of runs; completed = List.length runs; elapsed;
    op_label = "refine pass"; extra = [] }

(* ------------------------------------------------------------------ *)
(* fuzz: differential fuzz campaigns on two worker domains.            *)

let fuzz_jobs = 2
let fuzz_cases = 20

(* A generated spec the lowering rejects never reaches the simulator: it
   is an invalid input, not a failed case. Fuzz.run lists it among its
   failures. *)
let rejected (f : Fuzz.failure) = Result.is_error (Tile_lower.lower f.Fuzz.spec)

(* One campaign; a failure is reported, not shrunk. *)
let campaign ~seed =
  Fuzz.run ~jobs:fuzz_jobs ~max_shrink:0 ~seed ~count:fuzz_cases ()

(* Count a campaign's cases: attempted are the valid ones, failed those
   that broke an oracle. Returns the rejected specs. *)
let tally_campaign tally (s : Fuzz.summary) =
  let bad = List.filter (fun f -> not (rejected f)) s.Fuzz.failures in
  let n_rejected = List.length s.Fuzz.failures - List.length bad in
  ops tally ~attempted:(s.Fuzz.cases - n_rejected) ~failed:(List.length bad);
  n_rejected

(* Set-up is a campaign at [seed + 1], three times; its digest must repeat.
   The timed campaigns use seeds drawn from [seed]. *)
let fuzz ~seed ~seconds tally =
  let warm = ref None in
  let setup =
    repeat_setup (fun () ->
        let s = campaign ~seed:(seed + 1) in
        let same = Option.fold ~none:true ~some:(( = ) s.Fuzz.digest) !warm in
        warm := Some s.Fuzz.digest;
        ignore
          (pin tally "fuzz.warmup_repeats" same
             (Printf.sprintf "digest %016x" s.Fuzz.digest));
        ignore (tally_campaign tally s))
  in
  let next_seed = seed_stream seed in
  let runs, elapsed =
    timed_loop ~seconds ~min_ops:5 (fun () -> campaign ~seed:(next_seed ()))
  in
  let sum f = List.fold_left (fun acc (s, _) -> acc + f s) 0 runs in
  let rejected_specs = sum (tally_campaign tally) in
  {
    setup;
    latency_ms = ms_of runs;
    completed = List.length runs;
    elapsed;
    op_label = Printf.sprintf "%d-case fuzz campaign" fuzz_cases;
    extra =
      [
        ("cases", Json.Int (sum (fun s -> s.Fuzz.cases)));
        ("offloaded", Json.Int (sum (fun s -> s.Fuzz.offloaded_cases)));
        ("rejected_specs", Json.Int rejected_specs);
      ];
  }

(* ------------------------------------------------------------------ *)
(* mesad: the daemon in-process, driven over its socket by Loadgen.    *)

let mesad_config =
  {
    Service.default_config with
    Service.shards = 2;
    shard_pes = 64;
    jobs = 2;
    warm = true;
    profile_window = None;
  }

let mesad_kernels = [ "nn"; "kmeans"; "bfs" ]
let mesad_concurrency = 2
let mesad_batch = 40

(* Loadgen at concurrency 1 is deterministic: its digest pins routing and
   every result (cycles, memory checksum, site) of the first 20 requests
   of seed 7. *)
let prelude_seed = 7
let prelude_requests = 20
let prelude_digest = 0x3d956a2795364f89

let loadgen_config ~socket ~seed ~requests ~concurrency =
  {
    Loadgen.default_config with
    Loadgen.socket;
    requests;
    concurrency;
    seed;
    kernels = mesad_kernels;
    chaos = false;
  }

(* Start the daemon on a cold memo (it warms it) and run the prelude. *)
let mesad_start tally ~socket =
  Runner.clear_translation_cache ();
  let d = Mesad.start ~service_config:mesad_config ~socket () in
  let r =
    Loadgen.run
      (loadgen_config ~socket ~seed:prelude_seed ~requests:prelude_requests
         ~concurrency:1)
  in
  let ok = List.assoc "ok" r.Loadgen.outcomes in
  op tally
    (pin tally "mesad.prelude"
       (ok = prelude_requests && r.Loadgen.protocol_errors = 0
       && r.Loadgen.digest = prelude_digest)
       (Printf.sprintf "%d/%d ok, %d protocol errors, digest %016x" ok
          prelude_requests r.Loadgen.protocol_errors r.Loadgen.digest));
  d

(* Set-up starts the daemon and runs the prelude, three times; stopping
   the previous daemon is not timed. The timed
   phase is closed-loop batches of [mesad_batch] requests from
   [mesad_concurrency] clients, each batch a Loadgen stream at a seed
   drawn from [seed]. A request succeeds when it is answered [ok] on the
   fabric. The median request latency is the median of the batches'
   medians. *)
let mesad ~seed ~seconds ~socket tally =
  let daemon = ref None in
  let setup =
    List.init setup_reps (fun _ ->
        Option.iter (fun d -> ignore (Mesad.stop d)) !daemon;
        let d, t = timed (fun () -> mesad_start tally ~socket) in
        daemon := Some d;
        t)
  in
  let d = Option.get !daemon in
  let next_seed = seed_stream seed in
  let runs, elapsed =
    try
      timed_loop ~seconds ~min_ops:3 (fun () ->
          Loadgen.run
            (loadgen_config ~socket ~seed:(next_seed ()) ~requests:mesad_batch
               ~concurrency:mesad_concurrency))
    with e ->
      ignore (Mesad.stop d);
      raise e
  in
  let final = Mesad.stop d in
  let results = List.map fst runs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  List.iter
    (fun r ->
      ops tally ~attempted:r.Loadgen.sent
        ~failed:(r.Loadgen.sent - r.Loadgen.ok_fabric))
    results;
  let protocol_errors = sum (fun r -> r.Loadgen.protocol_errors) in
  ignore
    (pin tally "mesad.protocol_errors" (protocol_errors = 0)
       (Printf.sprintf "%d protocol errors" protocol_errors));
  let internal =
    Option.value (Stats.find_int final "service.outcomes.internal") ~default:(-1)
  in
  ignore
    (pin tally "mesad.internal" (internal = 0)
       (Printf.sprintf "%d internal errors" internal));
  {
    setup;
    latency_ms = List.map (fun r -> r.Loadgen.p50_ms) results;
    completed = sum (fun r -> r.Loadgen.completed);
    elapsed;
    op_label = "mesad request";
    extra =
      [
        ("batches", Json.Int (List.length results));
        ("requests", Json.Int (sum (fun r -> r.Loadgen.sent)));
        ( "batch_p99_ms_median",
          Json.Float (median (List.map (fun r -> r.Loadgen.p99_ms) results)) );
      ];
  }
