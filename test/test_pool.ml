(* The domain pool under the harness: submission-order results, exception
   propagation, inline jobs=1 mode — and the determinism guarantee the
   parallel experiments rely on (identical tables at any job count). *)

let check = Alcotest.check

let squares = List.init 50 (fun i -> i * i)

let map_preserves_submission_order () =
  List.iter
    (fun jobs ->
      let got = Pool.run ~jobs (fun x -> x * x) (List.init 50 Fun.id) in
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "jobs=%d results in submission order" jobs)
        squares got)
    [ 1; 2; 4 ]

let out_of_order_completion () =
  (* Earlier tasks do more work than later ones, so with several workers
     completion order inverts; await must still restore submission order. *)
  let spin n =
    let acc = ref 0 in
    for i = 1 to (50 - n) * 10_000 do
      acc := !acc + i
    done;
    ignore !acc;
    n
  in
  let got = Pool.run ~jobs:4 spin (List.init 50 Fun.id) in
  check (Alcotest.list Alcotest.int) "order restored" (List.init 50 Fun.id) got

let jobs_one_runs_inline () =
  let trace = ref [] in
  Pool.with_pool ~jobs:1 (fun pool ->
      let f1 = Pool.submit pool (fun () -> trace := 1 :: !trace) in
      (* With jobs = 1 the task has already run when submit returns. *)
      check (Alcotest.list Alcotest.int) "ran at submit" [ 1 ] !trace;
      let f2 = Pool.submit pool (fun () -> trace := 2 :: !trace) in
      Pool.await f1;
      Pool.await f2);
  check (Alcotest.list Alcotest.int) "submission order" [ 2; 1 ] !trace

let exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let ok = Pool.submit pool (fun () -> 41 + 1) in
          let bad = Pool.submit pool (fun () -> failwith "boom") in
          check Alcotest.int "healthy task unaffected" 42 (Pool.await ok);
          Alcotest.check_raises "failure re-raised at await" (Failure "boom")
            (fun () -> Pool.await bad)))
    [ 1; 4 ]

(* Pool.run finishes every task before re-raising, and the earliest input's
   exception wins whichever domain ran it. *)
let run_raises_earliest_after_all_ran () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d earliest failure" jobs)
        (Failure "3")
        (fun () ->
          ignore
            (Pool.run ~jobs
               (fun i ->
                 Atomic.incr ran;
                 if i = 3 || i = 7 then failwith (string_of_int i))
               (List.init 10 Fun.id)));
      check Alcotest.int (Printf.sprintf "jobs=%d every task ran" jobs) 10
        (Atomic.get ran))
    [ 1; 2; 4 ];
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.run: jobs must be >= 1") (fun () ->
      ignore (Pool.run ~jobs:0 Fun.id [ 1 ]))

(* With jobs = 2 only one domain is spawned, so two tasks that wait for
   each other can only both start if the caller computes too. The larger
   minor heap stays with the spawned domain. *)
let run_caller_computes () =
  let size () = (Gc.get ()).Gc.minor_heap_size in
  let before = size () in
  let caller = Domain.self () in
  let started = Atomic.make 0 in
  let meet _ =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    (Atomic.get started = 2, Domain.self () = caller)
  in
  let got = Pool.run ~jobs:2 meet [ 0; 1 ] in
  check Alcotest.bool "both tasks ran at once" true (List.for_all fst got);
  check Alcotest.bool "one of them on the caller" true (List.exists snd got);
  check Alcotest.int "caller minor heap unchanged" before (size ())

let await_is_idempotent () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let f = Pool.submit pool (fun () -> 7) in
      check Alcotest.int "first await" 7 (Pool.await f);
      check Alcotest.int "second await" 7 (Pool.await f))

let submit_after_shutdown_rejected () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit rejected"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

let default_jobs_positive () =
  check Alcotest.bool "recommended domain count >= 1" true (Pool.default_jobs () >= 1)

let try_await_polls_without_blocking () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let gate = Atomic.make false in
      let f =
        Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            11)
      in
      check (Alcotest.option Alcotest.int) "pending -> None" None (Pool.await_timeout f 0.0);
      Atomic.set gate true;
      check Alcotest.int "await still yields the value" 11 (Pool.await f);
      check (Alcotest.option Alcotest.int) "settled -> Some" (Some 11)
        (Pool.await_timeout f 0.0))

let await_timeout_times_out_then_settles () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let gate = Atomic.make false in
      let f =
        Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            23)
      in
      check (Alcotest.option Alcotest.int) "times out while blocked" None
        (Pool.await_timeout f 0.02);
      check (Alcotest.option Alcotest.int) "non-positive timeout is a poll" None
        (Pool.await_timeout f 0.0);
      Atomic.set gate true;
      (* The abandoned task kept running; a later bounded wait gets it. *)
      check (Alcotest.option Alcotest.int) "later wait sees the result" (Some 23)
        (Pool.await_timeout f 5.0))

let await_timeout_zero_polls_settled_state () =
  (* A non-positive window is a poll, not an unconditional None: the
     initial poll runs first, so a settled future still yields. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let f = Pool.submit pool (fun () -> 5) in
      check Alcotest.int "settle it" 5 (Pool.await f);
      check (Alcotest.option Alcotest.int) "zero window on settled future"
        (Some 5)
        (Pool.await_timeout f 0.0);
      check (Alcotest.option Alcotest.int) "negative window too" (Some 5)
        (Pool.await_timeout f (-1.0)))

let await_timeout_completion_race () =
  (* The task settles mid-window, from another thread: the bounded wait
     must pick the result up promptly (next poll step) instead of either
     sleeping the window out or losing the wakeup. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let gate = Atomic.make false in
      let f =
        Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            31)
      in
      let opener =
        Thread.create
          (fun () ->
            Unix.sleepf 0.05;
            Atomic.set gate true)
          ()
      in
      let t0 = Unix.gettimeofday () in
      let r = Pool.await_timeout f 30.0 in
      let elapsed = Unix.gettimeofday () -. t0 in
      Thread.join opener;
      check (Alcotest.option Alcotest.int) "settled mid-window" (Some 31) r;
      check Alcotest.bool "returned well before the deadline" true
        (elapsed < 10.0))

let await_timeout_propagates_exceptions () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let f = Pool.submit pool (fun () -> failwith "boom") in
      Alcotest.check_raises "failure re-raised within the window"
        (Failure "boom") (fun () -> ignore (Pool.await_timeout f 1.0));
      Alcotest.check_raises "a zero window re-raises too" (Failure "boom")
        (fun () -> ignore (Pool.await_timeout f 0.0)))

(* qcheck: for settled futures a bounded wait agrees with await, at any
   jobs count (jobs=1 settles at submit; jobs>1 settles within the window). *)
let qcheck_await_timeout_agrees =
  QCheck.Test.make ~count:50 ~name:"Pool.await_timeout agrees with await"
    QCheck.(pair (int_range 1 4) small_int)
    (fun (jobs, x) ->
      Pool.with_pool ~jobs (fun pool ->
          let f = Pool.submit pool (fun () -> x * 3) in
          Pool.await_timeout f 5.0 = Some (Pool.await f)))

(* qcheck: parallel map is extensionally List.map, for arbitrary inputs and
   job counts. *)
let qcheck_map_is_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.run = List.map"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.run ~jobs (fun x -> (2 * x) + 1) xs = List.map (fun x -> (2 * x) + 1) xs)

(* Golden determinism for the experiment layer: the same figure at jobs=1
   and jobs=4 must render the same table text and the same summary. *)
let fig11_jobs_bit_identical () =
  let kernels () = [ Workloads.find "gaussian"; Workloads.nn ~n:512 () ] in
  let seq = Experiments.fig11 ~jobs:1 ~kernels:(kernels ()) () in
  let par = Experiments.fig11 ~jobs:4 ~kernels:(kernels ()) () in
  check Alcotest.string "table text identical"
    (Tables.render seq.Experiments.table)
    (Tables.render par.Experiments.table);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "summaries identical" seq.Experiments.summary par.Experiments.summary

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "submission order" `Quick map_preserves_submission_order;
        Alcotest.test_case "out-of-order completion" `Quick out_of_order_completion;
        Alcotest.test_case "jobs=1 inline" `Quick jobs_one_runs_inline;
        Alcotest.test_case "exception propagation" `Quick exception_propagates;
        Alcotest.test_case "run: earliest exception, all tasks run" `Quick
          run_raises_earliest_after_all_ran;
        Alcotest.test_case "run: caller computes" `Quick run_caller_computes;
        Alcotest.test_case "await idempotent" `Quick await_is_idempotent;
        Alcotest.test_case "shutdown semantics" `Quick submit_after_shutdown_rejected;
        Alcotest.test_case "default jobs" `Quick default_jobs_positive;
        Alcotest.test_case "try_await" `Quick try_await_polls_without_blocking;
        Alcotest.test_case "await_timeout" `Quick await_timeout_times_out_then_settles;
        Alcotest.test_case "await_timeout zero window" `Quick
          await_timeout_zero_polls_settled_state;
        Alcotest.test_case "await_timeout completion race" `Quick
          await_timeout_completion_race;
        Alcotest.test_case "await_timeout exceptions" `Quick
          await_timeout_propagates_exceptions;
        QCheck_alcotest.to_alcotest qcheck_map_is_list_map;
        QCheck_alcotest.to_alcotest qcheck_await_timeout_agrees;
        Alcotest.test_case "fig11 jobs determinism" `Slow fig11_jobs_bit_identical;
      ] );
  ]
