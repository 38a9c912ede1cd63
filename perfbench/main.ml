(* Repository benchmark: four end-to-end workloads and a traced per-layer
   replay. See README.md in this directory.

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--out-dir DIR]
     main.exe check-names BENCHMARK.json [README.md]
     main.exe layer-map [--markdown]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. The full report
   (run header, sample quartiles, pins) goes to DIR/NAME-seedN[-trace].json,
   and a traced run also writes a Chrome trace beside it. The exit code is
   1 when any output check fails. *)

open Bench_util

let schema_version = 1

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--out-dir DIR]\n\
    \       main.exe check-names BENCHMARK.json [README.md]\n\
    \       main.exe layer-map [--markdown]";
  exit 2

let read path = In_channel.with_open_text path In_channel.input_all

let check_names ?readme path =
  match Json.of_string (read path) with
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 1
  | Ok doc -> (
    match Bench_names.check ?readme:(Option.map read readme) doc with
    | [] -> ()
    | errors ->
      List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errors;
      exit 1)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
}

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s expects an integer, got %s\n" flag v;
      exit 2
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_arg "--seed" n } rest
    | "--seconds" :: n :: rest ->
      go { a with seconds = float_of_int (int_arg "--seconds" n) } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--out-dir" :: d :: rest -> go { a with out_dir = d } rest
    | _ -> usage ()
  in
  let a =
    go { workload = ""; seed = 1; seconds = 15.0; trace = false;
         out_dir = "perfbench/out" } argv
  in
  if not (List.mem a.workload Bench_names.workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" a.workload
      (String.concat ", " Bench_names.workloads);
    exit 2
  end;
  if a.seconds <= 0.0 then usage ();
  a

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

let end_to_end a tally =
  let socket = Filename.concat a.out_dir (Printf.sprintf "mesad-%d.sock" (Unix.getpid ())) in
  let r =
    match a.workload with
    | "paper-suite" -> Bench_workloads.paper_suite ~seconds:a.seconds tally
    | "refine" -> Bench_workloads.refine ~seconds:a.seconds tally
    | "fuzz" -> Bench_workloads.fuzz ~seed:a.seed ~seconds:a.seconds tally
    | _ -> Bench_workloads.mesad ~seed:a.seed ~seconds:a.seconds ~socket tally
  in
  let open Bench_workloads in
  let metrics =
    [
      ("setup_s", median r.setup);
      ("op_p50_ms", median r.latency_ms);
      ("ops_per_s", float_of_int r.completed /. r.elapsed);
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let detail =
    [
      ("operation", Json.String r.op_label);
      ("setup_reps", Json.Int (List.length r.setup));
      ("timed_ops", Json.Int r.completed);
      ("setup_samples_s", Json.List (List.map (fun x -> Json.Float x) r.setup));
      ("op_ms", summary r.latency_ms);
      ("elapsed_s", Json.Float r.elapsed);
    ]
    @ r.extra
  in
  Printf.printf "%s: %d set-ups, %d operations (%s) in %.2f s\n" a.workload
    (List.length r.setup) r.completed r.op_label r.elapsed;
  (metrics, detail, [])

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "check-names"; path ] -> check_names path
  | [ "check-names"; path; readme ] -> check_names ~readme path
  | [ "layer-map" ] -> print_endline (Json.to_string Bench_names.layer_map_json)
  | [ "layer-map"; "--markdown" ] -> print_string Bench_names.layer_map_markdown
  | argv ->
    let a = parse argv in
    mkdir_p a.out_dir;
    let tally = Bench_util.tally () in
    let metrics, detail, spans =
      if a.trace then
        Bench_layers.run ~workload:a.workload ~seed:a.seed ~out_dir:a.out_dir tally
      else end_to_end a tally
    in
    List.iter
      (fun (name, v) ->
        Printf.printf "  %-32s %14.4f %s\n" name v (Bench_names.unit_of name))
      metrics;
    List.iter
      (fun (name, ok, detail) ->
        Printf.printf "  pin %-28s %s  %s\n" name (if ok then "ok" else "MISMATCH") detail)
      (List.rev tally.pins);
    let base =
      Printf.sprintf "%s-seed%d%s" a.workload a.seed (if a.trace then "-trace" else "")
    in
    if spans <> [] then
      write_file
        (Filename.concat a.out_dir (base ^ "-chrome.json"))
        (Trace.to_string spans);
    let metric_json =
      Json.Assoc
        (List.map
           (fun (name, v) ->
             ( name,
               Json.Assoc
                 [ ("value", Json.Float v);
                   ("unit", Json.String (Bench_names.unit_of name)) ] ))
           metrics)
    in
    let header =
      [
        ("schema_version", Json.Int schema_version);
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("workload", Json.String a.workload);
        ("seed", Json.Int a.seed);
        ("seconds", Json.Float a.seconds);
        ("trace", Json.Bool a.trace);
      ]
    in
    let report =
      Json.Assoc
        (header
        @ [ ("correct", Json.Bool (correct tally));
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ("pins", pin_json tally);
            ("metrics", metric_json) ]
        @ detail)
    in
    write_file (Filename.concat a.out_dir (base ^ ".json")) (Json.to_string report ^ "\n");
    print_endline
      (Json.to_string ~indent:0
         (Json.Assoc
            [
              ("correct", Json.Bool (correct tally));
              ("attempted", Json.Int tally.attempted);
              ("failed", Json.Int tally.failed);
              ("metrics", metric_json);
            ]));
    if not (correct tally) then exit 1
