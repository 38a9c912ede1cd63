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

let prng_shuffle_permutes () =
  let rng = Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let prng_split_independent () =
  let rng = Prng.create 11 in
  let child = Prng.split rng in
  let a = Prng.bits64 rng and b = Prng.bits64 child in
  check Alcotest.bool "independent draws differ" true (a <> b)

let stats_mean_geomean () =
  check float_eq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check float_eq "mean empty" 0.0 (Stats.mean []);
  check float_eq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check float_eq "geomean singleton" 3.0 (Stats.geomean [ 3.0 ])

let stats_stddev () =
  check float_eq "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "known" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ] *. sqrt 2.0)

let stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check float_eq "median" 3.0 (Stats.percentile 0.5 xs);
  check float_eq "min" 1.0 (Stats.percentile 0.0 xs);
  check float_eq "max" 5.0 (Stats.percentile 1.0 xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 0.5 []))

let stats_clamp_divceil () =
  check float_eq "clamp low" 1.0 (Stats.clamp ~lo:1.0 ~hi:2.0 0.5);
  check float_eq "clamp high" 2.0 (Stats.clamp ~lo:1.0 ~hi:2.0 3.0);
  check Alcotest.int "iclamp" 4 (Stats.iclamp ~lo:0 ~hi:4 9);
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
  check Alcotest.int "count" 2 (Stats.Running.count r);
  check float_eq "sum" 6.0 (Stats.Running.sum r);
  Stats.Running.reset r;
  check Alcotest.int "reset count" 0 (Stats.Running.count r)

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

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "prng determinism" `Quick prng_determinism;
        Alcotest.test_case "prng seed sensitivity" `Quick prng_seed_sensitivity;
        Alcotest.test_case "prng int ranges" `Quick prng_int_range;
        Alcotest.test_case "prng float ranges" `Quick prng_float_range;
        Alcotest.test_case "prng shuffle permutes" `Quick prng_shuffle_permutes;
        Alcotest.test_case "prng split" `Quick prng_split_independent;
        Alcotest.test_case "stats mean/geomean" `Quick stats_mean_geomean;
        Alcotest.test_case "stats stddev" `Quick stats_stddev;
        Alcotest.test_case "stats percentile" `Quick stats_percentile;
        Alcotest.test_case "stats clamp/div_ceil" `Quick stats_clamp_divceil;
        Alcotest.test_case "running average" `Quick stats_running;
        Alcotest.test_case "tables render" `Quick tables_render;
        Alcotest.test_case "tables arity" `Quick tables_arity_check;
        Alcotest.test_case "tables cells" `Quick tables_cells;
        Alcotest.test_case "json file write and read" `Quick json_file_roundtrip;
      ] );
  ]
