(* State shared by the two engine implementations: the event-driven core
   (`Engine`) and the legacy all-nodes-every-cycle oracle
   (`Engine_reference`, a test-only library under test/oracle). Both return the same result record and park their
   contention tables in the same domain-local scratch pool, so differential
   tests can swap implementations without touching any caller. *)

type detection = {
  d_kinds : Fault.kind list;
  d_latency : int;
  d_watchdog : bool;
}

type result = {
  cycles : int;
  iterations : int;
  completed : bool;
  budget_exhausted : bool;
  fault : detection option;
  exit_pc : int;
  activity : Activity.t;
  measured : Stats.snapshot;
}

let u32 = Machine.to_u32
let s32 = Machine.to_s32

exception Exec_fail of string

(* Recycled contention tables. An execution (or a cost-model estimate)
   claims one table per cache-port group and one per active (instance, NoC
   slice) pair; allocating each ring afresh would cost its whole footprint,
   so finished runs park their tables here and the next run revives them
   with [Contention.reset], which zeroes only the window they booked.

   The pool is domain-local, so parallel harness jobs (one domain each)
   never contend across domains — but `mesad` serves its shards on
   sys-threads that SHARE a domain, and a preempted [Stack] push could hand
   the same table to two in-flight executions. The per-domain mutex closes
   that window; it is uncontended everywhere except the daemon, where the
   two lock hops per claim are noise against a full engine run. Each
   execution still owns its tables exclusively between [acquire] and [park],
   which is what keeps every execution deterministic. *)
let contention_scratch : (Mutex.t * Contention.t Stack.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Mutex.create (), Stack.create ()))

type scratch = { mutable acquired : Contention.t list }

let scratch () = { acquired = [] }

let acquire s capacity =
  let lock, stack = Domain.DLS.get contention_scratch in
  let c =
    match Mutex.protect lock (fun () -> Stack.pop_opt stack) with
    | Some c ->
      Contention.reset ~capacity c;
      c
    | None -> Contention.create ~capacity
  in
  s.acquired <- c :: s.acquired;
  c

let park s =
  let lock, stack = Domain.DLS.get contention_scratch in
  Mutex.protect lock (fun () -> List.iter (fun c -> Stack.push c stack) s.acquired);
  s.acquired <- []
