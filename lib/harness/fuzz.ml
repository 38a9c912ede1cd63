(* See fuzz.mli. Everything here is deterministic from the master seed:
   per-case seeds are drawn sequentially before any work is distributed, so
   the worker count never changes what each case computes. *)

type fabric = { fabric : Fabric.t; profile : bool }

(* The same axes the PR 4 differential qcheck draws from, plus the DSE's
   cache-size axes. *)
let rows_choices = [| 4; 6; 8; 16 |]
let cols_choices = [| 4; 8 |]
let ports_choices = [| 1; 2; 4; 8; 16 |]

let kind_choices =
  [| Interconnect.Mesh_noc; Interconnect.Hierarchical_rows; Interconnect.Pure_mesh |]

let l1_choices = [| 16; 32; 64 |]
let l2_choices = [| 1024; 4096; 8192 |]
let pick rng a = a.(Prng.int rng (Array.length a))

(* The draw order, last field first, is part of what a fabric seed
   means: another order draws other fabrics and moves every campaign
   digest. *)
let draw_fabric rng =
  let profile = Prng.int rng 8 = 0 in
  let l2_kb = pick rng l2_choices in
  let l1_kb = pick rng l1_choices in
  let kind = pick rng kind_choices in
  let ports = pick rng ports_choices in
  let cols = pick rng cols_choices in
  let rows = pick rng rows_choices in
  { fabric = { Fabric.rows; cols; ports; kind; l1_kb; l2_kb }; profile }

let fabric_to_string { fabric = f; profile } =
  Printf.sprintf "%dx%d ports=%d %s L1:%dK L2:%dK%s" f.Fabric.rows f.cols f.ports
    (Interconnect.kind_to_string f.kind) f.l1_kb f.l2_kb
    (if profile then " +profile" else "")

let fabric_to_json f =
  Json.Assoc (Fabric.to_fields f.fabric @ [ ("profile", Json.Bool f.profile) ])

let read_fabric j =
  let fabric = Fabric.of_fields j in
  { fabric; profile = Json.(field_or ~default:false "profile" bool j) }

let fabric_of_json = Json.decode ~what:"fabric" read_fabric

(* ------------------------------------------------------------------ *)
(* One differential case.                                              *)

type observation = { cycles : int; offloads : int; mem_checksum : int }

let run_case ?defect spec (f : fabric) =
  let ( let* ) = Result.bind in
  let* b = Tile_lower.lower ?defect spec in
  let mem = Main_memory.create () in
  b.Tile_lower.setup mem;
  let machine = Machine.create ~pc:(Program.entry b.Tile_lower.program) mem in
  Machine.set_args machine (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n);
  let expected = Machine.copy machine ~mem:(Main_memory.copy mem) () in
  let i_halt, _ = Interp.run b.Tile_lower.program expected in
  let* () =
    if i_halt = Interp.Ecall_halt then Ok ()
    else Error "interpreter did not reach ecall"
  in
  let options =
    { (Controller.default_options ~grid:(Fabric.grid f.fabric) ~profile:f.profile ()) with
      Controller.kind = f.fabric.kind }
  in
  let report =
    Controller.run ~options ~hier:(Fabric.hier_config f.fabric) b.Tile_lower.program machine
  in
  let* () =
    if report.Controller.halt = Interp.Ecall_halt then Ok ()
    else Error "controller did not reach ecall"
  in
  let* () =
    if Main_memory.equal expected.Machine.mem mem then Ok ()
    else Error "memory differs from the interpreter"
  in
  let* () =
    if Machine.arch_equal expected machine then Ok ()
    else Error "architectural registers differ from the interpreter"
  in
  let* () =
    match b.Tile_lower.check mem with
    | Ok () -> Ok ()
    | Error e -> Error ("DSL reference mismatch: " ^ e)
  in
  let* () =
    if
      report.Controller.total_cycles
      = report.Controller.cpu_cycles + report.Controller.accel_cycles
        + report.Controller.overhead_cycles
    then Ok ()
    else Error "cycle accounting does not close"
  in
  let* () =
    if not f.profile then Ok ()
    else
      match Profile.of_report ~kernel:spec.Tile_dsl.sname report with
      | Error e -> Error ("profile: " ^ e)
      | Ok p ->
        if
          Profile.closes p
          && p.Profile.attributed_cycles
             = report.Controller.accel_cycles + report.Controller.overhead_cycles
        then Ok ()
        else Error "stall attribution does not close"
  in
  Ok
    {
      cycles = report.Controller.total_cycles;
      offloads = report.Controller.offloads;
      mem_checksum = Main_memory.checksum mem;
    }

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                          *)

type failure = {
  index : int;
  kernel_seed : int;
  fabric : fabric;
  detail : string;
  spec : Tile_dsl.spec;
  shrunk : Tile_dsl.spec;
  shrunk_detail : string;
  shrink_steps : int;
}

let shrink ?defect ?(max_attempts = 300) spec fabric =
  let attempts = ref 0 in
  let fails s =
    if !attempts >= max_attempts then None
    else begin
      incr attempts;
      match run_case ?defect s fabric with Ok _ -> None | Error d -> Some d
    end
  in
  match fails spec with
  | None -> (spec, "not reproducible", 0)
  | Some detail0 ->
    let rec go current detail steps =
      let rec first = function
        | [] -> None
        | c :: rest -> (
          match fails c with Some d -> Some (c, d) | None -> first rest)
      in
      match first (Tile_gen.shrink_candidates current) with
      | Some (c, d) when !attempts < max_attempts -> go c d (steps + 1)
      | Some (c, d) -> (c, d, steps + 1)
      | None -> (current, detail, steps)
    in
    go spec detail0 0

(* ------------------------------------------------------------------ *)
(* The campaign.                                                       *)

type summary = {
  cases : int;
  offloaded_cases : int;
  total_offloads : int;
  failures : failure list;
  digest : int;
}

let fnv_prime = 0x100000001b3

let fnv acc x =
  let acc = (acc lxor (x land 0xFFFFFFFF)) * fnv_prime in
  ((acc lxor (x lsr 32)) * fnv_prime) land max_int

let run ?jobs ?defect ?(max_shrink = 300) ~seed ~count () =
  let master = Prng.create seed in
  let cases =
    List.init count (fun i ->
        let kernel_seed = Int64.to_int (Prng.bits64 master) land max_int in
        let fabric_seed = Int64.to_int (Prng.bits64 master) land max_int in
        (i, kernel_seed, fabric_seed))
  in
  let results =
    Pool.run ?jobs
      (fun (i, kernel_seed, fabric_seed) ->
        let spec = Tile_gen.generate ~seed:kernel_seed in
        let fabric = draw_fabric (Prng.create fabric_seed) in
        match run_case ?defect spec fabric with
        | Ok obs -> Ok (i, obs)
        | Error detail ->
          let shrunk, shrunk_detail, shrink_steps =
            shrink ?defect ~max_attempts:max_shrink spec fabric
          in
          Error
            {
              index = i;
              kernel_seed;
              fabric;
              detail;
              spec;
              shrunk;
              shrunk_detail;
              shrink_steps;
            })
      cases
  in
  let summary =
    List.fold_left
      (fun acc r ->
        match r with
        | Ok (_, obs) ->
          {
            acc with
            offloaded_cases = acc.offloaded_cases + (if obs.offloads > 0 then 1 else 0);
            total_offloads = acc.total_offloads + obs.offloads;
            digest =
              fnv (fnv (fnv acc.digest obs.cycles) obs.offloads) obs.mem_checksum;
          }
        | Error f ->
          { acc with failures = f :: acc.failures; digest = fnv acc.digest (-1) })
      { cases = count; offloaded_cases = 0; total_offloads = 0; failures = [];
        digest = Int64.to_int 0xcbf29ce484222325L land max_int }
      results
  in
  { summary with failures = List.rev summary.failures }

(* ------------------------------------------------------------------ *)
(* Corpus.                                                             *)

let failure_to_json ~master_seed f =
  let listing spec =
    match Tile_lower.lower spec with
    | Ok b ->
      Json.List
        (String.split_on_char '\n' (Disasm.listing b.Tile_lower.program)
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> Json.String l))
    | Error e -> Json.String ("unloaderable: " ^ e)
  in
  Json.Assoc
    [
      ("master_seed", Json.Int master_seed);
      ("index", Json.Int f.index);
      ("kernel_seed", Json.Int f.kernel_seed);
      ("fabric", fabric_to_json f.fabric);
      ("detail", Json.String f.detail);
      ("shrunk_detail", Json.String f.shrunk_detail);
      ("shrink_steps", Json.Int f.shrink_steps);
      ("shrunk_statements", Json.Int (Tile_dsl.stmt_count f.shrunk));
      ("spec", Tile_dsl.to_json f.spec);
      ("shrunk", Tile_dsl.to_json f.shrunk);
      ("shrunk_pretty", Json.String (Tile_dsl.to_string f.shrunk));
      ("disasm", listing f.shrunk);
    ]

let write_corpus ~dir ~master_seed f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "fail-%04d.json" f.index) in
  Json.write_file path (failure_to_json ~master_seed f);
  path

let report ~corpus ~seed s =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "fuzz: seed %d, %d case(s), %d offloaded, %d offload(s) total, digest %016x\n"
    seed s.cases s.offloaded_cases s.total_offloads s.digest;
  if s.failures = [] then Buffer.add_string b "no differential mismatches\n"
  else begin
    List.iter
      (fun f ->
        let path = write_corpus ~dir:corpus ~master_seed:seed f in
        Printf.bprintf b
          "FAIL case %d (kernel seed %d, %s): %s\n  shrunk to %d statement(s) in %d step(s): %s\n  corpus: %s\n"
          f.index f.kernel_seed (fabric_to_string f.fabric) f.detail
          (Tile_dsl.stmt_count f.shrunk) f.shrink_steps f.shrunk_detail path)
      s.failures;
    Printf.bprintf b "%d failing case(s)\n" (List.length s.failures)
  end;
  Buffer.contents b

type replay_error = Malformed of string | Still_fails of string

let replay ?defect j =
  let entry j =
    let open Json in
    let spec v = match Tile_dsl.of_json v with Ok s -> s | Error e -> fail "%s" e in
    let fabric = field "fabric" read_fabric j in
    let spec =
      match field_opt "shrunk" spec j with Some s -> s | None -> field "spec" spec j
    in
    (spec, fabric)
  in
  match Json.decode entry j with
  | Error e -> Error (Malformed e)
  | Ok (spec, fabric) -> Result.map_error (fun e -> Still_fails e) (run_case ?defect spec fabric)
