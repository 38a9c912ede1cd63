type phase =
  | Admit
  | Queue
  | Translate
  | Execute
  | Retry
  | Breaker
  | Resolve
  | Profile_window
  | Oracle_refresh
  | Refine

let all_phases =
  [
    Admit; Queue; Translate; Execute; Retry; Breaker; Resolve; Profile_window;
    Oracle_refresh; Refine;
  ]

let phase_to_string = function
  | Admit -> "admit"
  | Queue -> "queue"
  | Translate -> "translate"
  | Execute -> "execute"
  | Retry -> "retry"
  | Breaker -> "breaker"
  | Resolve -> "resolve"
  | Profile_window -> "profile_window"
  | Oracle_refresh -> "oracle_refresh"
  | Refine -> "refine"

let phase_of_string s =
  match List.find_opt (fun p -> phase_to_string p = s) all_phases with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown span phase %S" s)

type span = {
  sp_seq : int;
  sp_at_ms : float;
  sp_req : int;
  sp_kernel : string;
  sp_shard : int;
  sp_phase : phase;
  sp_outcome : string;
  sp_detail : string;
}

let span_to_json sp =
  Json.Assoc
    [
      ("seq", Json.Int sp.sp_seq);
      ("at_ms", Json.Float sp.sp_at_ms);
      ("req", Json.Int sp.sp_req);
      ("kernel", Json.String sp.sp_kernel);
      ("shard", Json.Int sp.sp_shard);
      ("phase", Json.String (phase_to_string sp.sp_phase));
      ("outcome", Json.String sp.sp_outcome);
      ("detail", Json.String sp.sp_detail);
    ]

let span_of_json =
  Json.decode ~what:"span" (fun j ->
      let open Json in
      let sp_seq = field "seq" int j in
      let sp_at_ms = field "at_ms" float j in
      let sp_req = field_or ~default:(-1) "req" int j in
      let sp_kernel = field_or ~default:"" "kernel" string j in
      let sp_shard = field_or ~default:(-1) "shard" int j in
      let sp_phase = field "phase" (lift phase_of_string) j in
      let sp_outcome = field_or ~default:"" "outcome" string j in
      let sp_detail = field_or ~default:"" "detail" string j in
      { sp_seq; sp_at_ms; sp_req; sp_kernel; sp_shard; sp_phase; sp_outcome; sp_detail })

let to_trace_span sp =
  let args =
    [ ("seq", Json.Int sp.sp_seq) ]
    @ (if sp.sp_req >= 0 then [ ("req", Json.Int sp.sp_req) ] else [])
    @ (if sp.sp_kernel <> "" then [ ("kernel", Json.String sp.sp_kernel) ]
       else [])
    @ (if sp.sp_outcome <> "" then
         [ ("outcome", Json.String sp.sp_outcome) ]
       else [])
    @ if sp.sp_detail <> "" then [ ("detail", Json.String sp.sp_detail) ] else []
  in
  Trace.instant ~tid:(sp.sp_shard + 1) ~args ~cat:"service"
    ~ts:(int_of_float sp.sp_at_ms)
    (phase_to_string sp.sp_phase)

(* ---------------- the hub ---------------- *)

type t = {
  lock : Mutex.t;
  clock : unit -> float;
  ring : span option array;
  mutable next_seq : int;
  n_windows : int;
  window_ms : float;
  mutable last_advance : float;
  latency : (string, Sketch.t) Hashtbl.t;  (* by outcome *)
  cycles : (string, Sketch.t) Hashtbl.t;   (* by kernel *)
  profile_windows : (string, int ref) Hashtbl.t;
  refine_accepts : (string, int ref) Hashtbl.t;
}

let create ?(ring = 4096) ?(windows = 8) ?(window_ms = 250.0) ?clock () =
  if ring < 1 then invalid_arg "Telemetry.create: ring must be >= 1";
  if windows < 1 then invalid_arg "Telemetry.create: windows must be >= 1";
  if not (window_ms > 0.0) then
    invalid_arg "Telemetry.create: window_ms must be positive";
  let clock =
    match clock with
    | Some c -> c
    | None ->
      let t0 = Unix.gettimeofday () in
      fun () -> (Unix.gettimeofday () -. t0) *. 1000.0
  in
  {
    lock = Mutex.create ();
    clock;
    ring = Array.make ring None;
    next_seq = 0;
    n_windows = windows;
    window_ms;
    last_advance = clock ();
    latency = Hashtbl.create 8;
    cycles = Hashtbl.create 8;
    profile_windows = Hashtbl.create 8;
    refine_accepts = Hashtbl.create 8;
  }


(* Rotate the sketch rings to catch up with the clock. Advancing past the
   window depth clears everything, so catch-up work is bounded regardless
   of how long the hub sat idle. Lock held. *)
let tick t now =
  if now -. t.last_advance >= t.window_ms then begin
    let steps = int_of_float ((now -. t.last_advance) /. t.window_ms) in
    let eff = min steps t.n_windows in
    let adv _ sk = for _ = 1 to eff do Sketch.advance sk done in
    Hashtbl.iter adv t.latency;
    Hashtbl.iter adv t.cycles;
    t.last_advance <- t.last_advance +. (float_of_int steps *. t.window_ms)
  end

let sketch_for t table key =
  match Hashtbl.find_opt table key with
  | Some sk -> sk
  | None ->
    let sk = Sketch.create ~windows:t.n_windows () in
    Hashtbl.add table key sk;
    sk

let count_for table key =
  match Hashtbl.find_opt table key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add table key r;
    r

let emit t ?(req = -1) ?(kernel = "") ?(shard = -1) ?(outcome = "")
    ?(detail = "") phase =
  Mutex.protect t.lock (fun () ->
      let now = t.clock () in
      tick t now;
      let sp =
        {
          sp_seq = t.next_seq;
          sp_at_ms = now;
          sp_req = req;
          sp_kernel = kernel;
          sp_shard = shard;
          sp_phase = phase;
          sp_outcome = outcome;
          sp_detail = detail;
        }
      in
      t.ring.(t.next_seq mod Array.length t.ring) <- Some sp;
      t.next_seq <- t.next_seq + 1)

let observe_latency t ~outcome ms =
  Mutex.protect t.lock (fun () ->
      tick t (t.clock ());
      Sketch.observe (sketch_for t t.latency outcome) ms)

let observe_cycles t ~kernel cycles =
  Mutex.protect t.lock (fun () ->
      tick t (t.clock ());
      Sketch.observe (sketch_for t t.cycles kernel) (float_of_int cycles))

let note_profile_window t ~kernel =
  Mutex.protect t.lock (fun () -> incr (count_for t.profile_windows kernel))

let note_refine_accept t ~kernel =
  Mutex.protect t.lock (fun () -> incr (count_for t.refine_accepts kernel))

let spans_emitted t = Mutex.protect t.lock (fun () -> t.next_seq)

(* ---------------- trace subscriptions ---------------- *)

type cursor = { mutable cur : int; mutable dropped : int }

let subscribe t = Mutex.protect t.lock (fun () -> { cur = t.next_seq; dropped = 0 })

let poll t cursor ~max:limit =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.ring in
      let oldest = max 0 (t.next_seq - cap) in
      if cursor.cur < oldest then begin
        cursor.dropped <- cursor.dropped + (oldest - cursor.cur);
        cursor.cur <- oldest
      end;
      let n = min limit (t.next_seq - cursor.cur) in
      let out = ref [] in
      for i = cursor.cur + n - 1 downto cursor.cur do
        match t.ring.(i mod cap) with
        | Some sp -> out := sp :: !out
        | None -> ()
      done;
      cursor.cur <- cursor.cur + n;
      !out)

let cursor_dropped cursor = cursor.dropped

(* ---------------- watch frames ---------------- *)

type quantiles = {
  q_count : int;
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;
}

let empty_quantiles = { q_count = 0; q_p50 = 0.; q_p90 = 0.; q_p99 = 0.; q_max = 0. }

let quantiles_of sk =
  {
    q_count = Sketch.window_count sk;
    q_p50 = Sketch.quantile sk 0.5;
    q_p90 = Sketch.quantile sk 0.9;
    q_p99 = Sketch.quantile sk 0.99;
    q_max = Sketch.window_max sk;
  }

type outcome_row = { o_total : int; o_delta : int; o_window : quantiles }

type kernel_row = {
  k_window : quantiles;
  k_profile_windows : int;
  k_refine_accepts : int;
}

type frame = {
  f_seq : int;
  f_at_ms : float;
  f_dropped : int;
  f_outcomes : (string * outcome_row) list;
  f_kernels : (string * kernel_row) list;
  f_deltas : (string * int) list;
  f_totals : (string * int) list;
}

type watcher = {
  mutable w_seq : int;
  mutable w_base : (string * int) list;
  mutable w_dropped : int;
}

let watcher _t = { w_seq = 0; w_base = []; w_dropped = 0 }

let note_missed w n = w.w_dropped <- w.w_dropped + n

let watched_prefix path =
  String.starts_with ~prefix:"service." path
  || String.starts_with ~prefix:"telemetry." path

let int_totals snapshot =
  List.filter_map
    (fun (path, e) ->
      match e with
      | Stats.Value (Stats.VInt n) when watched_prefix path -> Some (path, n)
      | _ -> None)
    (Stats.to_assoc snapshot)

let outcome_names =
  "ok" :: List.map Proto.error_kind_to_string Proto.all_error_kinds

let next_frame t w snapshot =
  Mutex.protect t.lock (fun () ->
      let now = t.clock () in
      tick t now;
      let totals = int_totals snapshot in
      let base p = Option.value ~default:0 (List.assoc_opt p w.w_base) in
      let deltas =
        List.filter_map
          (fun (p, n) -> if n <> base p then Some (p, n - base p) else None)
          totals
      in
      let f_outcomes =
        List.map
          (fun name ->
            let path = "service.outcomes." ^ name in
            let total = Option.value ~default:0 (List.assoc_opt path totals) in
            let window =
              match Hashtbl.find_opt t.latency name with
              | Some sk -> quantiles_of sk
              | None -> empty_quantiles
            in
            (name, { o_total = total; o_delta = total - base path; o_window = window }))
          outcome_names
      in
      let kernel_names =
        let names = Hashtbl.create 8 in
        Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) t.cycles;
        Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) t.profile_windows;
        Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) t.refine_accepts;
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) names [])
      in
      let f_kernels =
        List.map
          (fun k ->
            let window =
              match Hashtbl.find_opt t.cycles k with
              | Some sk -> quantiles_of sk
              | None -> empty_quantiles
            in
            let count tbl =
              match Hashtbl.find_opt tbl k with Some r -> !r | None -> 0
            in
            ( k,
              {
                k_window = window;
                k_profile_windows = count t.profile_windows;
                k_refine_accepts = count t.refine_accepts;
              } ))
          kernel_names
      in
      let frame =
        {
          f_seq = w.w_seq;
          f_at_ms = now;
          f_dropped = w.w_dropped;
          f_outcomes;
          f_kernels;
          f_deltas = deltas;
          f_totals = totals;
        }
      in
      w.w_seq <- w.w_seq + 1;
      w.w_base <- totals;
      frame)

(* ---------------- frame codec ---------------- *)

let schema = "mesa-telemetry-v1"

let quantiles_to_json q =
  Json.Assoc
    [
      ("count", Json.Int q.q_count);
      ("p50", Json.Float q.q_p50);
      ("p90", Json.Float q.q_p90);
      ("p99", Json.Float q.q_p99);
      ("max", Json.Float q.q_max);
    ]

let read_quantiles j =
  let open Json in
  let q_count = field "count" int j in
  let q_p50 = field "p50" float j in
  let q_p90 = field "p90" float j in
  let q_p99 = field "p99" float j in
  let q_max = field "max" float j in
  { q_count; q_p50; q_p90; q_p99; q_max }

let frame_to_json f =
  Json.Assoc
    [
      ("schema", Json.String schema);
      ("seq", Json.Int f.f_seq);
      ("at_ms", Json.Float f.f_at_ms);
      ("dropped", Json.Int f.f_dropped);
      ( "outcomes",
        Json.Assoc
          (List.map
             (fun (name, r) ->
               ( name,
                 Json.Assoc
                   [
                     ("total", Json.Int r.o_total);
                     ("delta", Json.Int r.o_delta);
                     ("latency_ms", quantiles_to_json r.o_window);
                   ] ))
             f.f_outcomes) );
      ( "kernels",
        Json.Assoc
          (List.map
             (fun (name, r) ->
               ( name,
                 Json.Assoc
                   [
                     ("cycles", quantiles_to_json r.k_window);
                     ("profile_windows", Json.Int r.k_profile_windows);
                     ("refine_accepts", Json.Int r.k_refine_accepts);
                   ] ))
             f.f_kernels) );
      ( "deltas",
        Json.Assoc (List.map (fun (p, n) -> (p, Json.Int n)) f.f_deltas) );
      ( "totals",
        Json.Assoc (List.map (fun (p, n) -> (p, Json.Int n)) f.f_totals) );
    ]

let read_outcome j =
  let open Json in
  let o_total = field "total" int j in
  let o_delta = field "delta" int j in
  let o_window = field "latency_ms" read_quantiles j in
  { o_total; o_delta; o_window }

let read_kernel j =
  let open Json in
  let k_window = field "cycles" read_quantiles j in
  let k_profile_windows = field "profile_windows" int j in
  let k_refine_accepts = field "refine_accepts" int j in
  { k_window; k_profile_windows; k_refine_accepts }

let frame_of_json =
  Json.decode ~what:"frame" (fun j ->
      let open Json in
      let s = field "schema" string j in
      if s <> schema then fail "unknown schema %S" s;
      let f_seq = field "seq" int j in
      let f_at_ms = field "at_ms" float j in
      let f_dropped = field "dropped" int j in
      let f_outcomes = field "outcomes" (assoc read_outcome) j in
      let f_kernels = field "kernels" (assoc read_kernel) j in
      let f_deltas = field "deltas" (assoc int) j in
      let f_totals = field "totals" (assoc int) j in
      { f_seq; f_at_ms; f_dropped; f_outcomes; f_kernels; f_deltas; f_totals })

let parse_frames lines =
  List.filter (fun l -> String.trim l <> "") lines
  |> List.mapi (fun i line ->
         match Result.bind (Json.of_string line) frame_of_json with
         | Ok f -> Either.Left f
         | Error e -> Either.Right (Printf.sprintf "unparseable frame: line %d: %s" (i + 1) e))
  |> List.partition_map Fun.id

let render_frame f =
  let b = Buffer.create 1024 in
  Printf.bprintf b "mesad telemetry — frame %d  t=%.0f ms  shed-ticks=%d\n"
    f.f_seq f.f_at_ms f.f_dropped;
  Printf.bprintf b "%-22s %8s %6s | window %6s %9s %9s %9s\n" "outcome" "total"
    "delta" "n" "p50 ms" "p99 ms" "max ms";
  List.iter
    (fun (name, r) ->
      let q = r.o_window in
      Printf.bprintf b "  %-20s %8d %6d | %13d %9.2f %9.2f %9.2f\n" name
        r.o_total r.o_delta q.q_count q.q_p50 q.q_p99 q.q_max)
    f.f_outcomes;
  if f.f_kernels <> [] then begin
    Printf.bprintf b "%-22s | window %6s %11s %11s %9s %8s\n" "kernel" "n"
      "p50 cycles" "max cycles" "profiled" "refined";
    List.iter
      (fun (name, k) ->
        let q = k.k_window in
        Printf.bprintf b "  %-20s | %13d %11.0f %11.0f %9d %8d\n" name
          q.q_count q.q_p50 q.q_max k.k_profile_windows k.k_refine_accepts)
      f.f_kernels
  end;
  Buffer.add_string b "totals:\n";
  List.iter (fun (path, v) -> Printf.bprintf b "  %s %d\n" path v) f.f_totals;
  Buffer.contents b

(* ---------------- stream validation ---------------- *)

let check ?stats ?(require = []) frames =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match frames with
  | [] -> fail "no frames"
  | first :: rest ->
    (* Per-watcher frame sequence is gap-free and monotone; the hub clock
       and the shed-tick counter never go backwards. *)
    List.iteri
      (fun i f ->
        if f.f_seq <> first.f_seq + i then
          fail "frame %d: seq %d, expected %d" i f.f_seq (first.f_seq + i))
      frames;
    let last =
      List.fold_left
        (fun prev f ->
          if f.f_at_ms < prev.f_at_ms then fail "frame %d: at_ms went backwards" f.f_seq;
          if f.f_dropped < prev.f_dropped then
            fail "frame %d: dropped went backwards" f.f_seq;
          f)
        first rest
    in
    (* Closure: a watcher's baseline starts empty, so per-outcome deltas
       summed over the whole stream telescope to the final totals — if a
       frame was lost or fabricated, the sum breaks. *)
    List.iter
      (fun (name, r) ->
        let sum =
          List.fold_left
            (fun acc f ->
              match List.assoc_opt name f.f_outcomes with
              | Some r -> acc + r.o_delta
              | None -> acc)
            0 frames
        in
        if sum <> r.o_total then
          fail "outcome %s: summed deltas %d <> final total %d" name sum r.o_total;
        match stats with
        | None -> ()
        | Some snap ->
          let stat =
            Option.value ~default:0 (Stats.find_int snap ("service.outcomes." ^ name))
          in
          if stat <> r.o_total then
            fail "outcome %s: stream total %d <> stats snapshot %d" name r.o_total stat)
      last.f_outcomes;
    List.iter
      (fun path ->
        let n =
          Option.value ~default:0
            (match stats with
            | Some snap -> Stats.find_int snap path
            | None -> List.assoc_opt path last.f_totals)
        in
        if n < 1 then fail "gate: %s = %d (must be > 0)" path n)
      require);
  match List.rev !failures with [] -> Ok () | fs -> Error fs
