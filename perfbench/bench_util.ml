(* Timing, sample summaries and correctness bookkeeping shared by the
   end-to-end workloads and the traced per-layer replay. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = Stats.percentile 0.5 xs

(* n, quartiles, p90 and p99 of a sample, for the detailed JSON output. *)
let summary xs =
  let q p = Json.Float (Stats.percentile p xs) in
  Json.Assoc
    [
      ("n", Json.Int (List.length xs));
      ("p25", q 0.25);
      ("p50", q 0.5);
      ("p75", q 0.75);
      ("p90", q 0.9);
      ("p99", q 0.99);
    ]

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* Words allocated by this domain so far, in millions. *)
let alloc_mwords () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) /. 1e6

(* Operations attempted and failed, plus named exact-output pins. A pin
   mismatch also counts its operation as failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable pins : (string * bool * string) list;
}

let tally () = { attempted = 0; failed = 0; pins = [] }

let ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let op t ok = ops t ~attempted:1 ~failed:(if ok then 0 else 1)

(* Record a pin check and return [ok]. A pin checked repeatedly keeps its
   first mismatch, otherwise its latest success. *)
let pin t name ok detail =
  let failed_before = List.exists (fun (n, ok', _) -> n = name && not ok') t.pins in
  if not failed_before then
    t.pins <- (name, ok, detail) :: List.filter (fun (n, _, _) -> n <> name) t.pins;
  ok

let pin_json t =
  Json.List
    (List.rev_map
       (fun (n, ok, detail) ->
         Json.Assoc
           [ ("pin", Json.String n); ("ok", Json.Bool ok);
             ("detail", Json.String detail) ])
       t.pins)

let correct t = t.failed = 0 && List.for_all (fun (_, ok, _) -> ok) t.pins
