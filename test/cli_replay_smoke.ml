(* Bad input on the `mesa_cli` command line — a missing or malformed
   `fuzz --replay` corpus file, an unwritable output path, a non-positive
   count — must fail with a one-line diagnostic and a non-zero exit, never
   an uncaught exception or a raw backtrace, and a rejected `serve` must
   leave no socket file behind. Cmdliner follows an argument error with
   its usage hint ("Usage: ..." and "Try ..."), which is not counted as a
   diagnostic. argv: mesa_cli path. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let run cli args =
  let stderr_file = Filename.temp_file "cli-smoke" ".err" in
  let code =
    Sys.command
      (Filename.quote_command cli ~stdout:Filename.null ~stderr:stderr_file args)
  in
  let ic = open_in stderr_file in
  let len = in_channel_length ic in
  let err = really_input_string ic len in
  close_in ic;
  Sys.remove stderr_file;
  (code, err)

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_case cli (label, args) =
  let code, err = run cli args in
  if code = 0 then fail "%s: expected a non-zero exit, got 0" label;
  let lines =
    List.filter
      (fun l ->
        String.trim l <> "" && not (starts_with "Usage: " l || starts_with "Try '" l))
      (String.split_on_char '\n' err)
  in
  (match lines with
  | [ _ ] -> ()
  | _ ->
    fail "%s: expected exactly one diagnostic line, got %d:\n%s" label
      (List.length lines) err);
  List.iter
    (fun marker ->
      List.iter
        (fun l ->
          if contains l marker then
            fail "%s: diagnostic looks like a crash: %s" label l)
        lines)
    [ "uncaught exception"; "Raised at"; "Raised by"; "Called from"; "Fatal error" ];
  Printf.printf "%s: exit %d, %s\n" label code (List.hd lines)

let temp_json contents =
  let path = Filename.temp_file "cli-smoke" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let () =
  let cli = Sys.argv.(1) in
  let sockets = Filename.temp_dir "cli-smoke" "" in
  let socket name = Filename.concat sockets name in
  let malformed = temp_json "{ this is not json\n" in
  let nospec = temp_json "{\"note\": \"valid json, not a corpus entry\"}\n" in
  List.iter (check_case cli)
    [
      ("missing corpus file", [ "fuzz"; "--replay"; "no-such-corpus-entry.json" ]);
      ("malformed corpus file", [ "fuzz"; "--replay"; malformed ]);
      ("json without spec/fabric", [ "fuzz"; "--replay"; nospec ]);
      ("unwritable dse --out", [ "dse"; "--out"; "/nonexistent/x.json" ]);
      ("unwritable dse --frontier-out", [ "dse"; "--frontier-out"; "/nonexistent/x.txt" ]);
      ("map --grid 0", [ "map"; "nn"; "--grid"; "0" ]);
      ("fuzz --jobs 0", [ "fuzz"; "--jobs"; "0" ]);
      ("dse --jobs 0", [ "dse"; "--jobs"; "0" ]);
      ("fuzz --count=-3", [ "fuzz"; "--count=-3" ]);
      ("fuzz --count=0", [ "fuzz"; "--count=0" ]);
      ("serve --shards 0", [ "serve"; "--shards"; "0"; "--socket"; socket "shards.sock" ]);
      ( "serve --queue-depth 0",
        [ "serve"; "--queue-depth"; "0"; "--socket"; socket "queue.sock" ] );
      ("serve --shard-pes 2", [ "serve"; "--shard-pes"; "2"; "--socket"; socket "pes.sock" ]);
      ( "serve --deadline-ms 0",
        [ "serve"; "--deadline-ms"; "0"; "--socket"; socket "deadline.sock" ] );
    ];
  List.iter
    (fun name ->
      if Sys.file_exists (socket name) then fail "rejected serve left %s behind" (socket name))
    [ "shards.sock"; "queue.sock"; "pes.sock"; "deadline.sock" ];
  Sys.rmdir sockets;
  Sys.remove malformed;
  Sys.remove nospec;
  print_endline "cli smoke ok"
