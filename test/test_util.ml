let check = Alcotest.check
let float_eq = Alcotest.float 1e-9

let prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let prng_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check Alcotest.bool "in [0,17)" true (v >= 0 && v < 17);
    let w = Prng.int_in rng (-5) 5 in
    check Alcotest.bool "in [-5,5]" true (w >= -5 && w <= 5)
  done

let prng_float_range () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.float_in rng (-2.0) 2.0 in
    check Alcotest.bool "in [-2,2)" true (v >= -2.0 && v < 2.0)
  done

let stats_mean_geomean () =
  check float_eq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check float_eq "mean empty" 0.0 (Stats.mean []);
  check float_eq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check float_eq "geomean singleton" 3.0 (Stats.geomean [ 3.0 ])

let stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check float_eq "median" 3.0 (Stats.percentile 0.5 xs);
  check float_eq "min" 1.0 (Stats.percentile 0.0 xs);
  check float_eq "max" 5.0 (Stats.percentile 1.0 xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 0.5 []))

let stats_clamp_divceil () =
  check Alcotest.int "div_ceil exact" 3 (Stats.div_ceil 9 3);
  check Alcotest.int "div_ceil round" 4 (Stats.div_ceil 10 3)

let stats_running () =
  let r = Stats.Running.create () in
  check float_eq "empty mean" 0.0 (Stats.Running.mean r);
  check float_eq "mean_or default" 7.0 (Stats.Running.mean_or r 7.0);
  Stats.Running.add r 2.0;
  Stats.Running.add r 4.0;
  check float_eq "mean" 3.0 (Stats.Running.mean r);
  check float_eq "mean_or ignores default" 3.0 (Stats.Running.mean_or r 7.0);
  check Alcotest.int "count" 2 (Stats.Running.count r)

let tables_render () =
  let t = Tables.create ~title:"T" [ ("a", Tables.Left); ("b", Tables.Right) ] in
  Tables.add_row t [ "x"; "1" ];
  Tables.add_rule t;
  Tables.add_row t [ "yy"; "22" ];
  let s = Tables.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  check Alcotest.bool "has row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| yy | 22 |"))

let tables_arity_check () =
  let t = Tables.create [ ("a", Tables.Left) ] in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Tables.add_row: cell count does not match column count") (fun () ->
      Tables.add_row t [ "1"; "2" ])

let tables_cells () =
  check Alcotest.string "fcell" "1.250" (Tables.fcell 1.25);
  check Alcotest.string "xcell" "1.33x" (Tables.xcell 1.331);
  check Alcotest.string "icell" "1_234_567" (Tables.icell 1234567);
  check Alcotest.string "icell negative" "-1_000" (Tables.icell (-1000));
  check Alcotest.string "icell small" "42" (Tables.icell 42)

let json_file_roundtrip () =
  let dir = Filename.temp_dir "json-file" "" in
  let path = Filename.concat dir "doc.json" in
  let doc = Json.Assoc [ ("a", Json.Int 1); ("b", Json.List [ Json.Float 0.5; Json.Null ]) ] in
  Json.write_file path doc;
  check Alcotest.string "indented document plus newline"
    (Json.to_string ~indent:2 doc ^ "\n")
    (In_channel.with_open_text path In_channel.input_all);
  check Alcotest.bool "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
  check Alcotest.bool "reads back" true (Json.read_file path = Ok doc);
  Json.write_file path (Json.Int 2);
  check Alcotest.bool "replaces the old document" true (Json.read_file path = Ok (Json.Int 2));
  (match Json.read_file (Filename.concat dir "missing.json") with
  | Error e -> check Alcotest.bool "missing file" true (String.starts_with ~prefix:"cannot read " e)
  | Ok _ -> Alcotest.fail "missing file read");
  Out_channel.with_open_text path (fun oc -> output_string oc "{ nope");
  (match Json.read_file path with
  | Error e ->
    check Alcotest.bool "parse error names the file" true (String.starts_with ~prefix:path e)
  | Ok _ -> Alcotest.fail "malformed file parsed");
  (match Json.write_file (Filename.concat dir "no/such/dir.json") doc with
  | () -> Alcotest.fail "write into a missing directory"
  | exception Sys_error _ -> ());
  Sys.remove path;
  Sys.rmdir dir

let json_readers () =
  let open Json in
  let doc =
    match of_string {|{"id": 7, "x": 1.5, "tags": ["a", 2], "n": null, "m": {"k": 1}}|} with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let read d = decode ~what:"doc" d doc in
  let msg = Alcotest.(result reject string) in
  check Alcotest.(result int string) "field" (Ok 7) (read (field "id" int));
  check Alcotest.(result (float 0.0) string) "ints read as floats" (Ok 7.0)
    (read (field "id" float));
  check msg "missing" (Error {|doc: missing field "y"|}) (Result.map ignore (read (field "y" int)));
  check msg "mistyped" (Error {|doc: field "x" is not an integer|})
    (Result.map ignore (read (field "x" int)));
  check msg "mistyped element" (Error {|doc: field "tags" is not a string at [1]|})
    (Result.map ignore (read (field "tags" (list string))));
  check Alcotest.(result (option int) string) "null is absent" (Ok None)
    (read (field_opt "n" int));
  check Alcotest.(result int string) "absent takes the default" (Ok 3)
    (read (field_or ~default:3 "y" int));
  check msg "null is not absent" (Error {|doc: field "n" is not an integer|})
    (Result.map ignore (read (field_or ~default:3 "n" int)));
  check Alcotest.(result (list (pair string int)) string) "assoc" (Ok [ ("k", 1) ])
    (read (field "m" (assoc int)));
  let yes = function "a" -> Ok true | s -> Error ("unknown tag " ^ s) in
  check msg "lift reports the enum's error" (Error "doc: unknown tag b")
    (Result.map ignore (decode ~what:"doc" (lift yes) (String "b")));
  check msg "the first bad field wins" (Error {|missing field "y"|})
    (Result.map ignore
       (decode
          (fun j ->
            let _ = field "y" int j in
            field "x" int j)
          doc))

(* The decoder table: every field of a valid encoding, dropped and
   retyped. Dropping a required field is an [Error] that names it, and
   dropping an optional one still decodes; a value of another JSON kind
   is an [Error] unless the field is optional. Fields are named by their
   key path with list positions left out (only a list's first element is
   visited) and the keys of a map written [*]. A [tag] field picks the
   document's variant, so dropping it reads another variant and is only
   retyped. No case may raise. *)

type table_case = {
  label : string;
  decode : Json.t -> (unit, string) result;
  doc : Json.t;
  optional : string list;
  maps : string list;
  tags : string list;
}

type step = Key of string | Idx of int

let rec update doc path f =
  match (path, doc) with
  | [ Key k ], Json.Assoc l ->
    Json.Assoc
      (List.filter_map
         (fun (k', v) -> if k' = k then Option.map (fun v -> (k, v)) (f v) else Some (k', v))
         l)
  | Key k :: rest, Json.Assoc l ->
    Json.Assoc (List.map (fun (k', v) -> if k' = k then (k', update v rest f) else (k', v)) l)
  | Idx i :: rest, Json.List l ->
    Json.List (List.mapi (fun i' v -> if i' = i then update v rest f else v) l)
  | _ -> doc

(* Every object field below [doc]: (display name, path, value). *)
let rec fields ~maps name path doc =
  let join k = if name = "" then k else name ^ "." ^ k in
  match doc with
  | Json.Assoc l when List.mem name maps ->
    List.concat_map (fun (k, v) -> fields ~maps (join "*") (path @ [ Key k ]) v) l
  | Json.Assoc l ->
    List.concat_map
      (fun (k, v) -> ((join k, path @ [ Key k ], v) :: fields ~maps (join k) (path @ [ Key k ]) v))
      l
  | Json.List (v :: _) -> fields ~maps name (path @ [ Idx 0 ]) v
  | _ -> []

let kind = function
  | Json.Int _ | Json.Float _ -> "number"
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.String _ -> "string"
  | Json.List _ -> "list"
  | Json.Assoc _ -> "object"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let decoder_table_case { label; decode; doc; optional; maps; tags } =
  let run what doc =
    match decode doc with
    | r -> r
    | exception e -> Alcotest.failf "%s: %s raised %s" label what (Printexc.to_string e)
  in
  (match run "the valid document" doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: valid document rejected: %s" label e);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (name, path, value) ->
      Hashtbl.replace seen name ();
      let key = match List.rev path with Key k :: _ -> k | _ -> name in
      let opt = List.mem name optional in
      if not (List.mem name tags) then (
        match (run ("dropping " ^ name) (update doc path (fun _ -> None)), opt) with
        | Ok (), true -> ()
        | Error e, false when contains e key -> ()
        | Ok (), false -> Alcotest.failf "%s: dropping required %s decodes" label name
        | Error e, false -> Alcotest.failf "%s: dropping %s: error %S does not name it" label name e
        | Error e, true -> Alcotest.failf "%s: dropping optional %s: %s" label name e);
      List.iter
        (fun v ->
          if kind v <> kind value then
            match run ("retyping " ^ name) (update doc path (fun _ -> Some v)) with
            | Ok () when not opt ->
              Alcotest.failf "%s: %s retyped to %s decodes" label name (Json.to_string v)
            | _ -> ())
        [ Json.String "bogus"; Json.Null; Json.List []; Json.Int (-1) ])
    (fields ~maps "" [] doc);
  List.iter
    (fun name ->
      if not (Hashtbl.mem seen name) then Alcotest.failf "%s: no field %s" label name)
    optional

let decoder_table () =
  let request r = Proto.request_to_json r in
  let ok_body =
    {
      Proto.kernel = "nn"; cycles = 11464; offloads = 1; mem_checksum = 5; shard = 0;
      site = Proto.Fabric; rerouted = true; retries = 1; quarantines = 1;
      faults_detected = 1; latency_ms = 2.5;
    }
  in
  let point =
    { Dse.kernel = "nn";
      fabric =
        { Fabric.rows = 4; cols = 4; ports = 2; kind = Interconnect.Mesh_noc; l1_kb = 64;
          l2_kb = 8192 } }
  in
  let outcome =
    { Dse.point; mapped = false; reject = Some "too big"; cycles = 0; iterations = 0;
      energy_nj = 0.0; power_w = 0.0; area_mm2 = 1.5; perf = 0.0; perf_per_watt = 0.0 }
  in
  let frame =
    let q = { Telemetry.q_count = 1; q_p50 = 1.0; q_p90 = 1.0; q_p99 = 1.0; q_max = 1.0 } in
    {
      Telemetry.f_seq = 1; f_at_ms = 2.0; f_dropped = 0;
      f_outcomes = [ ("ok", { Telemetry.o_total = 1; o_delta = 1; o_window = q }) ];
      f_kernels =
        [ ("nn", { Telemetry.k_window = q; k_profile_windows = 1; k_refine_accepts = 0 }) ];
      f_deltas = [ ("service.admitted", 1) ];
      f_totals = [ ("service.admitted", 1) ];
    }
  in
  let span =
    { Telemetry.sp_seq = 1; sp_at_ms = 2.0; sp_req = 3; sp_kernel = "nn"; sp_shard = 0;
      sp_phase = Telemetry.Execute; sp_outcome = "ok"; sp_detail = "d" }
  in
  let profile =
    let _, report =
      Runner.mesa
        ~options:(Controller.default_options ~grid:Grid.m64 ~profile:true ())
        (Workloads.find "nn")
    in
    match Profile.of_report ~kernel:"nn" report with
    | Ok p -> Profile.to_json p
    | Error e -> Alcotest.fail e
  in
  let fabric = Fuzz.draw_fabric (Prng.create 1) in
  let case ?(optional = []) ?(maps = []) ?(tags = []) label decode doc =
    { label; decode = (fun j -> Result.map ignore (decode j)); doc; optional; maps; tags }
  in
  List.iter decoder_table_case
    [
      case "run request" Proto.request_of_json
        (request (Proto.Run (Proto.run_request ~deadline_ms:5.0 ~inject:"x" ~id:1 "nn")))
        ~optional:[ "op"; "deadline_ms"; "inject"; "fault_seed"; "allow_fallback" ];
      case "watch request" Proto.request_of_json
        (request (Proto.Watch (Proto.watch_request ~frames:2 ~id:1 ())))
        ~optional:[ "interval_ms"; "frames" ] ~tags:[ "op" ];
      case "trace request" Proto.request_of_json
        (request (Proto.Trace (Proto.trace_request ~spans:2 ~id:1 ())))
        ~optional:[ "spans" ] ~tags:[ "op" ];
      case "ping request" Proto.request_of_json (request (Proto.Ping 1)) ~tags:[ "op" ];
      case "ok response" Proto.response_of_json
        (Proto.response_to_json { Proto.rsp_id = 1; body = Proto.Ok_run ok_body })
        ~optional:
          [ "ok.rerouted"; "ok.retries"; "ok.quarantines"; "ok.faults_detected"; "ok.latency_ms" ];
      case "error response" Proto.response_of_json
        (Proto.response_to_json
           { Proto.rsp_id = 1; body = Proto.Err { Proto.kind = Proto.Internal; message = "m" } });
      case "span" Telemetry.span_of_json (Telemetry.span_to_json span)
        ~optional:[ "req"; "kernel"; "shard"; "outcome"; "detail" ];
      case "frame" Telemetry.frame_of_json (Telemetry.frame_to_json frame)
        ~maps:[ "outcomes"; "kernels"; "deltas"; "totals" ];
      case "dse checkpoint" Dse.checkpoint_of_json
        (Dse.checkpoint_to_json ~strategy:Dse.Guided Dse.default_spec [ outcome ])
        ~optional:[ "strategy"; "outcomes.reject" ];
      case "profile" Profile.of_json profile ~maps:[ "mem" ];
      case "tile spec" Tile_dsl.of_json (Tile_dsl.to_json (Tile_gen.generate ~seed:3));
      case "fuzz fabric" Fuzz.fabric_of_json (Fuzz.fabric_to_json fabric) ~optional:[ "profile" ];
    ]

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "prng determinism" `Quick prng_determinism;
        Alcotest.test_case "prng seed sensitivity" `Quick prng_seed_sensitivity;
        Alcotest.test_case "prng int ranges" `Quick prng_int_range;
        Alcotest.test_case "prng float ranges" `Quick prng_float_range;
        Alcotest.test_case "stats mean/geomean" `Quick stats_mean_geomean;
        Alcotest.test_case "stats percentile" `Quick stats_percentile;
        Alcotest.test_case "stats clamp/div_ceil" `Quick stats_clamp_divceil;
        Alcotest.test_case "running average" `Quick stats_running;
        Alcotest.test_case "tables render" `Quick tables_render;
        Alcotest.test_case "tables arity" `Quick tables_arity_check;
        Alcotest.test_case "tables cells" `Quick tables_cells;
        Alcotest.test_case "json file write and read" `Quick json_file_roundtrip;
        Alcotest.test_case "json readers" `Quick json_readers;
        Alcotest.test_case "decoder table" `Quick decoder_table;
      ] );
  ]
