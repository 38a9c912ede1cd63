type t = {
  svc : Service.t;
  path : string;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  idle : Condition.t;          (* active request count dropped *)
  mutable stopping : bool;
  mutable active : int;        (* requests between read and flushed write *)
  mutable conns : Unix.file_descr list;
  mutable handlers : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable final : Stats.snapshot option;
}

let service t = t.svc


(* Best-effort id recovery from a line that failed full decoding, so even
   a malformed request's error response carries the caller's id. *)
let salvage_id j =
  match Json.member "id" j with
  | Some v -> Option.value (Json.to_int v) ~default:0
  | None -> 0

(* What one request line asks the handler to do: answer once, or turn the
   connection into a telemetry stream. *)
type action =
  | Respond of Proto.response
  | Stream_watch of Proto.watch_request
  | Stream_trace of Proto.trace_request

let handle_line t line =
  match Json.of_string line with
  | Error e ->
    Respond
      { Proto.rsp_id = 0;
        body = Service.bad_request t.svc ("unparseable request: " ^ e) }
  | Ok j -> (
    match Proto.request_of_json j with
    | Error e ->
      Respond
        { Proto.rsp_id = salvage_id j;
          body = Service.bad_request t.svc ("bad request: " ^ e) }
    | Ok (Proto.Ping id) -> Respond { Proto.rsp_id = id; body = Proto.Pong }
    | Ok (Proto.Get_stats id) ->
      Respond
        { Proto.rsp_id = id;
          body = Proto.Stats_dump (Stats.to_json (Service.stats t.svc)) }
    | Ok (Proto.Run r) ->
      Respond { Proto.rsp_id = r.Proto.id; body = Service.execute t.svc r }
    | Ok (Proto.Watch w) -> Stream_watch w
    | Ok (Proto.Trace tr) -> Stream_trace tr)

let stopping t = Mutex.protect t.lock (fun () -> t.stopping)

let write_response oc rsp =
  output_string oc (Proto.response_to_line rsp);
  output_char oc '\n';
  flush oc

(* Both stream loops return [`Done] when the subscription's own limit
   ended it (the client may send another request on this connection) and
   [`Close] when the daemon is stopping or the client went away. Writes
   can always raise [Sys_error]/[Unix_error] mid-stream; callers treat
   that as [`Close]. *)

let watch_stream t oc (w : Proto.watch_request) =
  let hub = Service.telemetry t.svc in
  let watcher = Telemetry.watcher hub in
  let interval_s = w.Proto.interval_ms /. 1000.0 in
  let write_frame () =
    let frame = Telemetry.next_frame hub watcher (Service.stats t.svc) in
    write_response oc
      { Proto.rsp_id = w.Proto.w_id;
        body = Proto.Frame (Telemetry.frame_to_json frame) }
  in
  (* Sleep in short slices so a drain never waits on a sleeping stream. *)
  let rec pause until =
    let now = Unix.gettimeofday () in
    if now < until && not (stopping t) then begin
      Unix.sleepf (Float.min 0.05 (until -. now));
      pause until
    end
  in
  let finite = w.Proto.frames <> None in
  let limit = Option.value w.Proto.frames ~default:max_int in
  let rec loop sent next_due =
    if sent >= limit then `Done
    else if stopping t then `Close
    else begin
      pause next_due;
      if stopping t then `Close
      else begin
        (* A consumer slower than the cadence sheds the missed ticks —
           the schedule jumps forward and the frame says how many. *)
        let now = Unix.gettimeofday () in
        let missed =
          if now > next_due +. interval_s then
            int_of_float ((now -. next_due) /. interval_s)
          else 0
        in
        if missed > 0 then Telemetry.note_missed watcher missed;
        write_frame ();
        loop (sent + 1) (next_due +. (float_of_int (missed + 1) *. interval_s))
      end
    end
  in
  write_frame ();
  let outcome = loop 1 (Unix.gettimeofday () +. interval_s) in
  if outcome = `Done && finite then
    write_response oc { Proto.rsp_id = w.Proto.w_id; body = Proto.End_stream };
  outcome

let trace_stream t oc (tr : Proto.trace_request) =
  let hub = Service.telemetry t.svc in
  let cursor = Telemetry.subscribe hub in
  let finite = tr.Proto.spans <> None in
  let limit = Option.value tr.Proto.spans ~default:max_int in
  let rec loop sent =
    if sent >= limit then `Done
    else if stopping t then `Close
    else begin
      let spans = Telemetry.poll hub cursor ~max:(min 64 (limit - sent)) in
      if spans = [] then begin
        Unix.sleepf 0.05;
        loop sent
      end
      else begin
        List.iter
          (fun sp ->
            write_response oc
              { Proto.rsp_id = tr.Proto.t_id;
                body = Proto.Span (Telemetry.span_to_json sp) })
          spans;
        loop (sent + List.length spans)
      end
    end
  in
  let outcome = loop 0 in
  if outcome = `Done && finite then
    write_response oc
      { Proto.rsp_id = tr.Proto.t_id; body = Proto.End_stream };
  outcome

let handler t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec serve () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line ->
      if String.trim line = "" then serve ()
      else begin
        Mutex.protect t.lock (fun () -> t.active <- t.active + 1);
        let finished = ref false in
        let finish () =
          if not !finished then begin
            finished := true;
            Mutex.protect t.lock (fun () ->
                t.active <- t.active - 1;
                Condition.broadcast t.idle)
          end
        in
        (* The active count brackets the dispatch (and, for [Respond], the
           flushed write) — the drain guarantee. Stream loops run outside
           it: they are long-lived and poll [stopping] on every tick, so a
           drain never waits on one; it sees the flag and winds down
           within a tick. *)
        (match
           match handle_line t line with
           | Respond rsp ->
             write_response oc rsp;
             finish ();
             `Done
           | Stream_watch w ->
             finish ();
             watch_stream t oc w
           | Stream_trace tr ->
             finish ();
             trace_stream t oc tr
         with
        | `Done -> serve ()
        | `Close -> ()
        | exception (Sys_error _ | Unix.Unix_error _) ->
          (* Client went away mid-write; nothing left to serve. [finish]
             is idempotent, so this is safe whether the write died inside
             or after the active bracket. *)
          finish ())
      end
  in
  serve ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.protect t.lock (fun () -> t.conns <- List.filter (fun c -> c <> fd) t.conns)

let accept_loop t =
  let rec loop () =
    let stop = Mutex.protect t.lock (fun () -> t.stopping) in
    if not stop then begin
      match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error _ -> loop ()
        | fd, _ ->
          let th = Thread.create (fun () -> handler t fd) () in
          Mutex.protect t.lock (fun () ->
              t.conns <- fd :: t.conns;
              t.handlers <- th :: t.handlers);
          loop ())
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.path with Unix.Unix_error _ | Sys_error _ -> ())

let start ?service_config ~socket () =
  (* A client vanishing mid-write — routine for long-lived watch/trace
     streams — must surface as EPIPE on the write (the handlers catch it
     and close the connection), not as a process-killing SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The service validates its config before anything is bound, so a
     rejected config leaves no listening fd and no socket file behind. *)
  let svc = Service.create ?config:service_config () in
  let listen_fd =
    try
      (match Unix.stat socket with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket
      | _ -> failwith (socket ^ ": exists and is not a socket")
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX socket);
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    with e ->
      Service.shutdown svc;
      raise e
  in
  let t =
    {
      svc;
      path = socket;
      listen_fd;
      lock = Mutex.create ();
      idle = Condition.create ();
      stopping = false;
      active = 0;
      conns = [];
      handlers = [];
      accept_thread = None;
      final = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

(* Seconds [stop] waits for handlers still answering post-drain traffic. *)
let grace_s = 5.0

let stop t =
  match Mutex.protect t.lock (fun () -> t.final) with
  | Some snap -> snap
  | None ->
    Mutex.protect t.lock (fun () -> t.stopping <- true);
    (* 1. No new admissions: everything arriving from here is shed with a
       structured overloaded error. *)
    Service.begin_drain t.svc;
    (* 2. Finish the in-flight requests — this is the drain guarantee; the
       responses are written and flushed by their handler threads. *)
    ignore (Service.drain t.svc);
    (* 3. Give handlers still answering post-drain traffic (shed responses
       to clients that keep sending) a bounded window to go idle. *)
    let deadline = Unix.gettimeofday () +. grace_s in
    let rec settle () =
      let busy = Mutex.protect t.lock (fun () -> t.active > 0) in
      if busy && Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.01;
        settle ()
      end
    in
    settle ();
    (* 4. Tear down: wake blocked readers, join everything. *)
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    let conns = Mutex.protect t.lock (fun () -> t.conns) in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    let handlers = Mutex.protect t.lock (fun () -> t.handlers) in
    List.iter Thread.join handlers;
    (* Shutdown joins the background refiner, so the snapshot taken after
       it includes every refine verdict — the count the CI gate closes
       watch frames against. *)
    Service.shutdown t.svc;
    let snap = Service.stats t.svc in
    Mutex.protect t.lock (fun () -> t.final <- Some snap);
    snap

let serve ?service_config ?stats_out ~socket () =
  let d = start ?service_config ~socket () in
  (* One lock serializes window-hook flushes from concurrent workers
     against each other and against the final shutdown write. *)
  let flush_lock = Mutex.create () in
  let write_stats snap =
    Option.iter
      (fun path ->
        Mutex.protect flush_lock (fun () ->
            try Json.write_file path (Stats.to_json snap)
            with Sys_error e ->
              Printf.eprintf "mesad: stats flush failed: %s\n%!" e))
      stats_out
  in
  let cfg = Service.config d.svc in
  if cfg.Service.profile_window <> None then Service.set_on_window d.svc write_stats;
  let stop_requested = Atomic.make false in
  let request _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request);
  Printf.printf "mesad: serving on %s (%d shard(s) of %d PEs, %d worker(s))\n%!"
    socket cfg.Service.shards cfg.Service.shard_pes cfg.Service.jobs;
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.05
  done;
  Printf.printf "mesad: draining\n%!";
  let snap = stop d in
  write_stats snap;
  Printf.printf "mesad: drained, %s request(s) served\n%!"
    (match Stats.find_int snap "service.admitted" with
    | Some n -> string_of_int n
    | None -> "?")
