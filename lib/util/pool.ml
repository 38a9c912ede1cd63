let default_jobs () = Domain.recommended_domain_count ()

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_lock : Mutex.t;
  f_done : Condition.t;
  mutable state : 'a state;
}

type t = {
  jobs : int;
  lock : Mutex.t;
  wake : Condition.t;              (* queue non-empty or shutting down *)
  queue : (unit -> unit) Queue.t;  (* erased tasks; each settles its future *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* Pool domains run allocation-heavy simulations, and every minor
   collection stops all domains at once: with the default 256 Ki-word minor
   heap, busy domains meet at a barrier hundreds of times a second, and on
   a loaded machine each meeting can wait out another process's time
   slice. An 8 MiB minor heap per pool domain makes those stops four times
   rarer. The setting is per domain, so the caller's heap is untouched. *)
let minor_heap_words = 1 lsl 20

let spawn f =
  Domain.spawn (fun () ->
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
      f ())

let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.wake t.lock
    done;
    (* Even when closing, drain what was already submitted so every
       outstanding future settles. *)
    match Queue.take_opt t.queue with
    | Some task ->
      Mutex.unlock t.lock;
      task ();
      next ()
    | None ->
      Mutex.unlock t.lock
  in
  next ()

let create ?jobs () =
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init jobs (fun _ -> spawn (fun () -> worker_loop t));
  t

let settle fut outcome =
  Mutex.protect fut.f_lock (fun () ->
      fut.state <- outcome;
      Condition.broadcast fut.f_done)

let run_task fut f =
  let outcome =
    match f () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  settle fut outcome

let submit t f =
  let fut = { f_lock = Mutex.create (); f_done = Condition.create (); state = Pending } in
  if t.jobs = 1 then begin
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    run_task fut f
  end
  else
    Mutex.protect t.lock (fun () ->
        if t.closed then invalid_arg "Pool.submit: pool is shut down";
        Queue.add (fun () -> run_task fut f) t.queue;
        Condition.signal t.wake);
  fut

let is_pending fut = match fut.state with Pending -> true | Done _ | Failed _ -> false

let await fut =
  Mutex.protect fut.f_lock (fun () ->
      while is_pending fut do
        Condition.wait fut.f_done fut.f_lock
      done;
      match fut.state with
      | Done v -> v
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending -> assert false)

(* Non-blocking: [None] while pending; re-raises a failed task. *)
let try_await fut =
  Mutex.protect fut.f_lock (fun () ->
      match fut.state with
      | Pending -> None
      | Done v -> Some v
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt)

let await_timeout fut secs =
  match try_await fut with
  | Some _ as r -> r
  | None ->
    if secs <= 0.0 then None
    else begin
      (* Condition.wait has no timed variant in the stdlib, so bounded
         waiting polls with exponentially growing sleeps: responsive at
         millisecond deadlines, negligible load while parked at the cap. *)
      let deadline = Unix.gettimeofday () +. secs in
      let rec poll sleep =
        match try_await fut with
        | Some _ as r -> r
        | None ->
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then None
          else begin
            Unix.sleepf (Float.min sleep remaining);
            poll (Float.min (sleep *. 2.0) 5e-3)
          end
      in
      poll 5e-5
    end

let shutdown t =
  let ws =
    Mutex.protect t.lock (fun () ->
        t.closed <- true;
        Condition.broadcast t.wake;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  List.iter Domain.join ws

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The caller computes too: it and [jobs - 1] spawned domains claim inputs
   from one counter. A caller parked on a future would still have to take
   part in every stop-the-world collection, through a backup thread that
   must first be scheduled; a working caller joins at its next allocation.
   Every task runs even when one raises, as with [map]. *)
let run ?jobs f xs =
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  let outcomes = Array.make n Pending in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      outcomes.(i) <-
        (match f inputs.(i) with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers = List.init (min (jobs - 1) n) (fun _ -> spawn work) in
  work ();
  List.iter Domain.join helpers;
  List.map
    (function
      | Done v -> v
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending -> assert false)
    (Array.to_list outcomes)

type 'a free_list = (Mutex.t * 'a Stack.t) Domain.DLS.key

let free_list () = Domain.DLS.new_key (fun () -> (Mutex.create (), Stack.create ()))

let take fl =
  let lock, stack = Domain.DLS.get fl in
  Mutex.protect lock (fun () -> Stack.pop_opt stack)

let give fl xs =
  let lock, stack = Domain.DLS.get fl in
  Mutex.protect lock (fun () -> List.iter (fun x -> Stack.push x stack) xs)
