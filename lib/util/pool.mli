(** Fixed-size domain pool with futures, for the experiment harness.

    The evaluation decomposes into independent per-(kernel, configuration)
    measurement tasks whose results only need to be *assembled* in a fixed
    order. The pool runs the tasks on [jobs] worker domains (OCaml 5
    [Domain]s — real parallelism, no domainslib dependency) while
    {!await}/{!run} hand results back in submission order, so any experiment
    driven through the pool is bit-identical to its sequential run.

    [jobs = 1] bypasses domains entirely: tasks execute inline at submission
    time on the calling domain, in submission order — the exact sequential
    semantics, useful both as the determinism reference and under
    environments where spawning domains is undesirable.

    Tasks must not share mutable state unless they synchronize themselves;
    every harness task builds its own memory image, machine, hierarchy and
    stats registry, so this holds by construction there. *)

type t
(** A pool of worker domains and a FIFO task queue. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when [?jobs]
    is omitted. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [max 1 jobs] workers ([jobs = 1] spawns none), each
    with an 8 MiB minor heap: fewer minor collections, each of which stops
    every domain. The pool
    must be {!shutdown} (or created via {!with_pool}) or its domains leak
    until exit. Raises [Invalid_argument] on [jobs < 1]. *)

type 'a future
(** The pending result of a submitted task. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. With [jobs = 1] the task runs before [submit] returns.
    Raises [Invalid_argument] if the pool is already shut down. *)

val await : 'a future -> 'a
(** Block until the task finishes; returns its value or re-raises the
    exception it raised (with its backtrace). Idempotent. *)

val await_timeout : 'a future -> float -> 'a option
(** [await_timeout fut secs] waits at most [secs] (wall-clock) seconds for
    the task: [Some v] when it settles in time, [None] on timeout — the
    task itself keeps running and a later {!await} still yields its result.
    Re-raises like {!await} if the task failed within the window. A
    non-positive [secs] is a non-blocking poll — the initial poll always runs,
    so an already-settled future yields its result (or re-raises) even
    with a zero window; [None] on [secs <= 0.0] means strictly "still
    pending now". Waiting polls with exponential sleeps (50us up to 5ms):
    a task settling anywhere inside the window is picked up by the next
    poll step (within ~5ms, never lost to a missed wakeup), and a
    dispatcher enforcing deadlines never blocks forever on a wedged
    worker. *)

val shutdown : t -> unit
(** Drain the queue, wait for in-flight tasks, and join the workers.
    Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run the body, always [shutdown]. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] over a one-shot pool in which the caller computes too: it and
    [jobs - 1] spawned domains take the inputs in order from a shared
    counter, so [jobs] domains work and none sits parked. Results come back
    in input order, every task runs, and the earliest raising task's
    exception is re-raised. [jobs = 1] runs everything on the caller.
    Raises [Invalid_argument] on [jobs < 1]. *)

(** {2 Per-domain free lists}

    Recycled buffers that are costly to allocate per use (the engine's and
    the cost model's contention tables, the cost model's snapshot
    buffers): a finished run parks what it took, the next run on the same
    domain takes it back warm, at whatever size it grew to. Each domain
    has its own list, so parallel jobs never share one; a mutex per domain
    covers `mesad`, whose shards are sys-threads sharing a domain, where a
    preempted push could otherwise hand one buffer to two runs. A buffer
    belongs to one run between {!take} and {!give}. *)

type 'a free_list

val free_list : unit -> 'a free_list
(** A new, empty free list on every domain. *)

val take : 'a free_list -> 'a option
(** The most recently parked buffer of this domain, if any. *)

val give : 'a free_list -> 'a list -> unit
(** Park buffers on this domain's list, under one lock hop. The caller
    must not touch them afterwards. *)
