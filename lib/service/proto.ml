type error_kind =
  | Bad_request
  | Deadline_exceeded
  | Overloaded
  | Fabric_quarantined
  | Internal

let all_error_kinds =
  [ Bad_request; Deadline_exceeded; Overloaded; Fabric_quarantined; Internal ]

let error_kind_to_string = function
  | Bad_request -> "bad_request"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Fabric_quarantined -> "fabric_quarantined"
  | Internal -> "internal"

let error_kind_of_string s =
  match
    List.find_opt (fun k -> error_kind_to_string k = s) all_error_kinds
  with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "unknown error kind %S" s)

type error = { kind : error_kind; message : string }

type run_request = {
  id : int;
  kernel : string;
  deadline_ms : float option;
  inject : string option;
  fault_seed : int;
  allow_fallback : bool;
}

let run_request ?deadline_ms ?inject ?(fault_seed = 0x5EED)
    ?(allow_fallback = true) ~id kernel =
  { id; kernel; deadline_ms; inject; fault_seed; allow_fallback }

type watch_request = { w_id : int; interval_ms : float; frames : int option }

let watch_request ?(interval_ms = 250.0) ?frames ~id () =
  { w_id = id; interval_ms; frames }

type trace_request = { t_id : int; spans : int option }

let trace_request ?spans ~id () = { t_id = id; spans }

type request =
  | Run of run_request
  | Get_stats of int
  | Ping of int
  | Watch of watch_request
  | Trace of trace_request

type site = Fabric | Cpu

let site_to_string = function Fabric -> "fabric" | Cpu -> "cpu"

let site_of_string = function
  | "fabric" -> Ok Fabric
  | "cpu" -> Ok Cpu
  | s -> Error (Printf.sprintf "unknown execution site %S" s)

type ok_body = {
  kernel : string;
  cycles : int;
  offloads : int;
  mem_checksum : int;
  shard : int;
  site : site;
  rerouted : bool;
  retries : int;
  quarantines : int;
  faults_detected : int;
  latency_ms : float;
}

type body =
  | Ok_run of ok_body
  | Err of error
  | Stats_dump of Json.t
  | Pong
  | Frame of Json.t
  | Span of Json.t
  | End_stream

type response = { rsp_id : int; body : body }

(* ---------------- encoding ---------------- *)

let request_to_json = function
  | Ping id -> Json.Assoc [ ("op", Json.String "ping"); ("id", Json.Int id) ]
  | Get_stats id ->
    Json.Assoc [ ("op", Json.String "stats"); ("id", Json.Int id) ]
  | Watch w ->
    Json.Assoc
      ([
         ("op", Json.String "watch");
         ("id", Json.Int w.w_id);
         ("interval_ms", Json.Float w.interval_ms);
       ]
      @ match w.frames with None -> [] | Some n -> [ ("frames", Json.Int n) ])
  | Trace tr ->
    Json.Assoc
      ([ ("op", Json.String "trace"); ("id", Json.Int tr.t_id) ]
      @ match tr.spans with None -> [] | Some n -> [ ("spans", Json.Int n) ])
  | Run r ->
    Json.Assoc
      ([
         ("op", Json.String "run");
         ("id", Json.Int r.id);
         ("kernel", Json.String r.kernel);
       ]
      @ (match r.deadline_ms with
        | None -> []
        | Some d -> [ ("deadline_ms", Json.Float d) ])
      @ (match r.inject with
        | None -> []
        | Some s -> [ ("inject", Json.String s) ])
      @ [
          ("fault_seed", Json.Int r.fault_seed);
          ("allow_fallback", Json.Bool r.allow_fallback);
        ])

let ok_body_to_json (b : ok_body) =
  Json.Assoc
    [
      ("kernel", Json.String b.kernel);
      ("cycles", Json.Int b.cycles);
      ("offloads", Json.Int b.offloads);
      ("mem_checksum", Json.Int b.mem_checksum);
      ("shard", Json.Int b.shard);
      ("site", Json.String (site_to_string b.site));
      ("rerouted", Json.Bool b.rerouted);
      ("retries", Json.Int b.retries);
      ("quarantines", Json.Int b.quarantines);
      ("faults_detected", Json.Int b.faults_detected);
      ("latency_ms", Json.Float b.latency_ms);
    ]

let response_to_json { rsp_id; body } =
  let fields =
    match body with
    | Ok_run b -> [ ("ok", ok_body_to_json b) ]
    | Err e ->
      [
        ( "error",
          Json.Assoc
            [
              ("kind", Json.String (error_kind_to_string e.kind));
              ("message", Json.String e.message);
            ] );
      ]
    | Stats_dump j -> [ ("stats", j) ]
    | Pong -> [ ("pong", Json.Bool true) ]
    | Frame j -> [ ("frame", j) ]
    | Span j -> [ ("span", j) ]
    | End_stream -> [ ("done", Json.Bool true) ]
  in
  Json.Assoc (("id", Json.Int rsp_id) :: fields)

(* ---------------- decoding ---------------- *)

(* Fields are read in document order, so the first bad one is the one
   reported. *)

let positive name zero read j =
  let v = read j in
  if v > zero then v else Json.fail "field %S must be positive" name

let read_run_request j =
  let open Json in
  let id = field "id" int j in
  let kernel = field "kernel" string j in
  let deadline_ms = field_opt "deadline_ms" (positive "deadline_ms" 0.0 float) j in
  let inject = field_opt "inject" string j in
  let fault_seed = field_or ~default:0x5EED "fault_seed" int j in
  let allow_fallback = field_or ~default:true "allow_fallback" bool j in
  { id; kernel; deadline_ms; inject; fault_seed; allow_fallback }

let read_request j =
  let open Json in
  (* A missing op means "run" — the common case stays terse. *)
  match field_or ~default:"run" "op" string j with
  | "run" -> Run (read_run_request j)
  | "stats" -> Get_stats (field "id" int j)
  | "ping" -> Ping (field "id" int j)
  | "watch" ->
    let w_id = field "id" int j in
    let interval_ms =
      field_or ~default:250.0 "interval_ms" (positive "interval_ms" 0.0 float) j
    in
    let frames = field_opt "frames" (positive "frames" 0 int) j in
    Watch { w_id; interval_ms; frames }
  | "trace" ->
    let t_id = field "id" int j in
    let spans = field_opt "spans" (positive "spans" 0 int) j in
    Trace { t_id; spans }
  | other -> fail "unknown op %S" other

let request_of_json = function
  | Json.Assoc _ as j -> Json.decode read_request j
  | _ -> Error "request is not a JSON object"

let read_ok_body j =
  let open Json in
  let kernel = field "kernel" string j in
  let cycles = field "cycles" int j in
  let offloads = field "offloads" int j in
  let mem_checksum = field "mem_checksum" int j in
  let shard = field "shard" int j in
  let site = field "site" (lift site_of_string) j in
  let rerouted = field_or ~default:false "rerouted" bool j in
  let retries = field_or ~default:0 "retries" int j in
  let quarantines = field_or ~default:0 "quarantines" int j in
  let faults_detected = field_or ~default:0 "faults_detected" int j in
  let latency_ms = field_or ~default:0.0 "latency_ms" float j in
  {
    kernel;
    cycles;
    offloads;
    mem_checksum;
    shard;
    site;
    rerouted;
    retries;
    quarantines;
    faults_detected;
    latency_ms;
  }

let read_error j =
  let open Json in
  let kind = field "kind" (lift error_kind_of_string) j in
  let message = field "message" string j in
  { kind; message }

(* The first body key present, in this order, names the body. *)
let body_keys =
  [
    ("ok", fun b -> Ok_run (read_ok_body b));
    ("error", fun e -> Err (read_error e));
    ("stats", fun s -> Stats_dump s);
    ("pong", fun _ -> Pong);
    ("frame", fun f -> Frame f);
    ("span", fun s -> Span s);
    ("done", fun _ -> End_stream);
  ]

let read_response j =
  let open Json in
  let rsp_id = field "id" int j in
  let present k = field_or ~default:None k Option.some j in
  match List.find_map (fun (k, f) -> Option.map f (present k)) body_keys with
  | Some body -> { rsp_id; body }
  | None -> fail "response has none of ok/error/stats/pong/frame/span/done"

let response_of_json = function
  | Json.Assoc _ as j -> Json.decode read_response j
  | _ -> Error "response is not a JSON object"

let request_to_line r = Json.to_string ~indent:0 (request_to_json r)
let response_to_line r = Json.to_string ~indent:0 (response_to_json r)
