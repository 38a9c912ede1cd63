let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (log_sum /. float_of_int (List.length xs))

let percentile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    let rank = max 0 (min (n - 1) rank) in
    List.nth sorted rank

let div_ceil a b = (a + b - 1) / b

module Running = struct
  type t = { mutable sum : float; mutable count : int }

  let create () = { sum = 0.0; count = 0 }

  let add t x =
    t.sum <- t.sum +. x;
    t.count <- t.count + 1

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let mean_or t default = if t.count = 0 then default else mean t
end

(* ===================================================================== *)
(* Hierarchical performance-counter registry.

   The measure-then-remap loop (paper §5) and every experiment in the
   harness need a uniform way to enumerate, dump, diff and test the
   simulator's counters. Groups form a dot-separated hierarchy
   ("cache.l1.hits"); leaves are plain counters (one mutable int, so
   incrementing in a hot loop costs a single store), histograms
   (count/sum/min/max — the hardware tallies exactly these), or probes
   (closures sampled at snapshot time, used to expose pre-existing model
   state without touching its hot paths). *)

type value = VInt of int | VFloat of float

type hist = { hcount : int; hsum : float; hmin : float; hmax : float }

let hist_mean h = if h.hcount = 0 then 0.0 else h.hsum /. float_of_int h.hcount

type counter = { mutable c : int }

(* All-float, so its fields are stored flat and unboxed: [observe]
   allocates nothing and needs no write barrier. The count is a float too,
   exact below 2^53 samples. *)
type histogram = {
  mutable n : float;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type node =
  | Counter of counter
  | Histogram of histogram
  | Probe of (unit -> value)
  | Group of group

and group = {
  gname : string; (* full dotted path; "" for the root *)
  order : string list ref; (* child names in registration order *)
  children : (string, node) Hashtbl.t;
}

type registry = group

let valid_name name =
  String.length name > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       name

let make_group gname = { gname; order = ref []; children = Hashtbl.create 8 }

let registry () = make_group ""

let register (g : group) name node =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Stats: invalid stat name %S" name);
  if Hashtbl.mem g.children name then
    invalid_arg
      (Printf.sprintf "Stats: duplicate stat name %S in group %S" name g.gname);
  Hashtbl.add g.children name node;
  g.order := name :: !(g.order)

let child_path g name = if g.gname = "" then name else g.gname ^ "." ^ name

let group (r : registry) name =
  let g = make_group name in
  register r name (Group g);
  g

let subgroup (parent : group) name =
  let g = make_group (child_path parent name) in
  register parent name (Group g);
  g

let counter (g : group) name =
  let c = { c = 0 } in
  register g name (Counter c);
  c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let get c = c.c

let histogram (g : group) name =
  let h = { n = 0.0; sum = 0.0; mn = infinity; mx = neg_infinity } in
  register g name (Histogram h);
  h

let[@inline] observe h x =
  h.n <- h.n +. 1.0;
  h.sum <- h.sum +. x;
  if x < h.mn then h.mn <- x;
  if x > h.mx then h.mx <- x

let observe_n h x k =
  if k > 0 then begin
    let k = float_of_int k in
    h.n <- h.n +. k;
    h.sum <- h.sum +. (k *. x);
    if x < h.mn then h.mn <- x;
    if x > h.mx then h.mx <- x
  end

let probe (g : group) name f = register g name (Probe f)
let derived g name f = probe g name (fun () -> VFloat (f ()))
let int_probe g name f = probe g name (fun () -> VInt (f ()))

(* ------------------------------------------------------------------ *)
(* Snapshots: immutable, ordered (path, entry) lists. *)

type entry = Value of value | Hist of hist

type snapshot = (string * entry) list

let snapshot (r : registry) : snapshot =
  let acc = ref [] in
  let rec walk prefix (g : group) =
    List.iter
      (fun name ->
        let path = if prefix = "" then name else prefix ^ "." ^ name in
        match Hashtbl.find g.children name with
        | Counter c -> acc := (path, Value (VInt c.c)) :: !acc
        | Histogram h ->
          let hcount = int_of_float h.n in
          acc := (path, Hist { hcount; hsum = h.sum; hmin = h.mn; hmax = h.mx }) :: !acc
        | Probe f -> acc := (path, Value (f ())) :: !acc
        | Group child -> walk path child)
      (List.rev !(g.order))
  in
  walk "" r;
  List.rev !acc

let to_assoc (s : snapshot) = s
let find (s : snapshot) path =
  match List.assoc_opt path s with Some (Value v) -> Some v | _ -> None

let find_int (s : snapshot) path =
  match find s path with
  | Some (VInt i) -> Some i
  | Some (VFloat _) | None -> None

let find_hist (s : snapshot) path =
  match List.assoc_opt path s with Some (Hist h) -> Some h | _ -> None

let hists_under (s : snapshot) prefix =
  let p = prefix ^ "." in
  let plen = String.length p in
  List.filter_map
    (fun (path, e) ->
      match e with
      | Hist h when String.length path > plen && String.sub path 0 plen = p ->
        Some (String.sub path plen (String.length path - plen), h)
      | _ -> None)
    s

(* ------------------------------------------------------------------ *)
(* Dumpers *)

let value_to_json = function VInt i -> Json.Int i | VFloat f -> Json.Float f

(* A histogram object is recognized on parse by carrying exactly these
   keys; group objects never collide because stat names are registered. *)
let hist_to_json h =
  Json.Assoc
    [
      ("count", Json.Int h.hcount);
      ("sum", Json.Float h.hsum);
      ("min", Json.Float (if h.hcount = 0 then 0.0 else h.hmin));
      ("max", Json.Float (if h.hcount = 0 then 0.0 else h.hmax));
    ]

let to_json (s : snapshot) : Json.t =
  (* Rebuild the nesting from the dotted paths; entries arrive in
     registration order, which we preserve. *)
  let rec insert fields segments entry =
    match segments with
    | [] -> fields
    | [ leaf ] ->
      let v = match entry with Value v -> value_to_json v | Hist h -> hist_to_json h in
      fields @ [ (leaf, v) ]
    | seg :: rest ->
      let nested, others =
        match List.assoc_opt seg fields with
        | Some (Json.Assoc inner) -> (inner, List.remove_assoc seg fields)
        | _ -> ([], fields)
      in
      let updated = Json.Assoc (insert nested rest entry) in
      if List.mem_assoc seg fields then
        List.map (fun (k, v) -> if k = seg then (k, updated) else (k, v)) fields
      else others @ [ (seg, updated) ]
  in
  Json.Assoc
    (List.fold_left
       (fun fields (path, entry) ->
         insert fields (String.split_on_char '.' path) entry)
       [] s)

let of_json (j : Json.t) : (snapshot, string) result =
  let is_hist fields =
    List.length fields = 4
    && List.for_all (fun k -> List.mem_assoc k fields) [ "count"; "sum"; "min"; "max" ]
  in
  let num name fields =
    match List.assoc_opt name fields with
    | Some (Json.Int i) -> Ok (float_of_int i)
    | Some (Json.Float f) -> Ok f
    | _ -> Error (Printf.sprintf "histogram field %s is not a number" name)
  in
  let ( let* ) = Result.bind in
  let rec walk prefix j acc =
    match j with
    | Json.Assoc fields when is_hist fields && prefix <> "" ->
      let* c = num "count" fields in
      let* s = num "sum" fields in
      let* mn = num "min" fields in
      let* mx = num "max" fields in
      Ok ((prefix, Hist { hcount = int_of_float c; hsum = s; hmin = mn; hmax = mx }) :: acc)
    | Json.Assoc fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          walk (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        (Ok acc) fields
    | Json.Int i -> Ok ((prefix, Value (VInt i)) :: acc)
    | Json.Float f -> Ok ((prefix, Value (VFloat f)) :: acc)
    | Json.Null -> Ok ((prefix, Value (VFloat Float.nan)) :: acc)
    | Json.Bool _ | Json.String _ | Json.List _ ->
      Error (Printf.sprintf "unexpected JSON at %S" prefix)
  in
  Result.map List.rev (walk "" j [])

(* ------------------------------------------------------------------ *)
(* Diff & invariants *)

type delta = { path : string; before : float; after : float }

let scalar = function
  | Value (VInt i) -> float_of_int i
  | Value (VFloat f) -> f
  | Hist h -> h.hsum

let diff (before : snapshot) (after : snapshot) : delta list =
  (* Every path present in either snapshot whose scalar projection changed;
     histograms project to their sample sum, with the count reported as a
     synthetic ".count" path. *)
  let expand s =
    List.concat_map
      (fun (path, e) ->
        match e with
        | Hist h -> [ (path, h.hsum); (path ^ ".count", float_of_int h.hcount) ]
        | v -> [ (path, scalar v) ])
      s
  in
  let b = expand before and a = expand after in
  let paths =
    List.sort_uniq compare (List.map fst b @ List.map fst a)
  in
  List.filter_map
    (fun path ->
      let v0 = Option.value (List.assoc_opt path b) ~default:0.0 in
      let v1 = Option.value (List.assoc_opt path a) ~default:0.0 in
      if v0 = v1 then None else Some { path; before = v0; after = v1 })
    paths

type gate = {
  deltas : delta list;
  prefixes : string list;
  max_regress : float;
  violations : delta list;
}

let default_gate_prefixes =
  [
    "controller.total_cycles"; "controller.accel_cycles";
    "controller.overhead_cycles"; "cpu.cycles";
  ]

let gated prefixes d =
  List.exists (fun p -> String.starts_with ~prefix:p d.path) prefixes

let gate ?(prefixes = []) ~max_regress before after =
  let prefixes = if prefixes = [] then default_gate_prefixes else prefixes in
  let deltas = diff before after in
  let limit d = (d.before *. (1.0 +. (max_regress /. 100.0))) +. 1e-9 in
  let violations =
    List.filter (fun d -> gated prefixes d && d.after > limit d) deltas
  in
  { deltas; prefixes; max_regress; violations }

let render_gate g =
  let b = Buffer.create 1024 in
  List.iter
    (fun d ->
      Printf.bprintf b "  %c %-48s %.6g -> %.6g\n"
        (if gated g.prefixes d then '*' else ' ')
        d.path d.before d.after)
    g.deltas;
  if g.violations = [] then
    Printf.bprintf b
      "stats-diff: OK (%d changed counter(s), none gated past %.1f%%)\n"
      (List.length g.deltas) g.max_regress
  else
    List.iter
      (fun d ->
        Printf.bprintf b "REGRESSED %s: %.6g -> %.6g (limit +%.1f%%)\n" d.path
          d.before d.after g.max_regress)
      g.violations;
  Buffer.contents b

let check_invariants (s : snapshot) =
  let problems =
    List.filter_map
      (fun (path, e) ->
        match e with
        | Value (VInt i) when i < 0 ->
          Some (Printf.sprintf "%s: negative counter (%d)" path i)
        | Value (VFloat f) when Float.is_nan f ->
          Some (Printf.sprintf "%s: NaN" path)
        | Hist h when h.hcount < 0 ->
          Some (Printf.sprintf "%s: negative sample count" path)
        | Hist h when h.hcount > 0 && h.hmin > h.hmax ->
          Some (Printf.sprintf "%s: min %.3f > max %.3f" path h.hmin h.hmax)
        | _ -> None)
      s
  in
  if problems = [] then Ok () else Error problems
