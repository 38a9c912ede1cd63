open Tile_dsl

(* -------------------- generation -------------------- *)

(* Arrays get their element counts after the fact: every reference records
   the largest index it can reach, and the declaration is sized to fit. *)
type sizer = (string, int) Hashtbl.t

let record (sz : sizer) scope name (aff : affine) =
  let hi =
    List.fold_left
      (fun acc (v, c) ->
        let extent = List.assoc v scope in
        acc + if c >= 0 then c * (extent - 1) else 0)
      aff.const aff.coeffs
  in
  let prev = Option.value ~default:0 (Hashtbl.find_opt sz name) in
  Hashtbl.replace sz name (max prev hi)

(* An index expression over [scope] (outermost first): row-major-ish, the
   innermost variable always participates with a small coefficient. *)
let gen_affine rng sz scope name =
  let inner = fst (List.nth scope (List.length scope - 1)) in
  let coeffs =
    List.filter (fun (v, _) -> v = inner || Prng.int rng 10 < 6) scope
    |> List.map (fun (v, _) ->
           if v = inner then (v, 1 + Prng.int rng 2) else (v, 1 + Prng.int rng 8))
  in
  let aff = { coeffs; const = Prng.int rng 3 } in
  record sz scope name aff;
  aff

type mode = Ints | Floats | Mixed

let in_arrays mode =
  match mode with
  | Ints -> [ ("x", I32); ("y", I32) ]
  | Floats -> [ ("x", F32); ("y", F32) ]
  | Mixed -> [ ("x", I32); ("y", F32) ]

let out_dtype = function Ints -> I32 | Floats | Mixed -> F32

let rec gen_iexp rng sz scope mode depth =
  let int_loads =
    List.filter_map (fun (a, d) -> if d = I32 then Some a else None) (in_arrays mode)
  in
  let leaf () =
    match Prng.int rng 5 with
    | 0 | 1 when int_loads <> [] ->
      let a = List.nth int_loads (Prng.int rng (List.length int_loads)) in
      Iload (a, gen_affine rng sz scope a)
    | 2 -> Ivar (fst (List.nth scope (Prng.int rng (List.length scope))))
    | 3 -> Itmp 0
    | _ -> Iconst (1 + Prng.int rng 9)
  in
  if depth = 0 || Prng.int rng 4 = 0 then leaf ()
  else
    let op =
      match Prng.int rng 6 with
      | 0 | 1 -> Add
      | 2 -> Sub
      | 3 -> Mul
      | 4 -> Xor
      | _ -> And
    in
    Ibin (op, gen_iexp rng sz scope mode (depth - 1), gen_iexp rng sz scope mode (depth - 1))

let rec gen_fexp rng sz scope mode depth =
  let fp_loads =
    List.filter_map (fun (a, d) -> if d = F32 then Some a else None) (in_arrays mode)
  in
  let leaf () =
    match Prng.int rng 5 with
    | 0 | 1 when fp_loads <> [] ->
      let a = List.nth fp_loads (Prng.int rng (List.length fp_loads)) in
      Fload (a, gen_affine rng sz scope a)
    | 2 when mode = Mixed -> I2f (gen_iexp rng sz scope mode 1)
    | 3 -> Ftmp 0
    | _ -> Fconst (Machine.round32 (Prng.float_in rng (-2.0) 2.0))
  in
  if depth = 0 || Prng.int rng 4 = 0 then leaf ()
  else
    let op =
      match Prng.int rng 6 with
      | 0 | 1 -> Fadd
      | 2 -> Fsub
      | 3 | 4 -> Fmul
      | _ -> Fmin
    in
    Fbin (op, gen_fexp rng sz scope mode (depth - 1), gen_fexp rng sz scope mode (depth - 1))

let gen_guard rng scope body =
  let inner = fst (List.nth scope (List.length scope - 1)) in
  let e1 =
    if Prng.bool rng then Ibin (And, Ivar inner, Iconst 1) else Ivar inner
  in
  let c = match Prng.int rng 3 with 0 -> Lt | 1 -> Ne | _ -> Ge in
  If (c, e1, Iconst (Prng.int rng 4), body)

let draw ~seed =
  let rng = Prng.create seed in
  let mode = match Prng.int rng 3 with 0 -> Ints | 1 -> Floats | _ -> Mixed in
  let depth = 1 + Prng.int rng 3 in
  let reduce = depth >= 2 && Prng.int rng 3 = 0 in
  let tiled = Prng.int rng 10 < 3 in
  (* Trip counts must leave room for detection (8 consecutive iterations)
     plus translation latency before an offload can fire: depth-1 nests get
     one long run, deeper nests get shorter inner loops but several outer
     re-entries for a pending configuration to land on. *)
  let inner_extent =
    if tiled then (if Prng.bool rng then 12 else 16) * (2 + Prng.int rng 2)
    else if depth = 1 then Prng.int_in rng 200 500
    else Prng.int_in rng 32 96
  in
  let tile_factor = if inner_extent mod 12 = 0 then 12 else 16 in
  let var_names = [ "i"; "j"; "k" ] in
  let extents =
    List.init depth (fun d ->
        if d = depth - 1 then inner_extent else Prng.int_in rng 3 8)
  in
  let scope = List.map2 (fun v e -> (v, e)) (List.filteri (fun i _ -> i < depth) var_names) extents in
  let sz : sizer = Hashtbl.create 4 in
  let inner_var = fst (List.nth scope (depth - 1)) in
  let outer_scope = List.filteri (fun i _ -> i < depth - 1) scope in
  let fp = mode <> Ints in
  (* innermost statements *)
  let store_aff () =
    (* innermost coefficient 1..2 guarantees per-iteration injectivity *)
    let coeffs =
      List.filteri (fun i _ -> i = depth - 1 || Prng.bool rng) scope
      |> List.map (fun (v, _) ->
             if v = inner_var then (v, 1 + Prng.int rng 2) else (v, 1 + Prng.int rng 8))
    in
    let aff = { coeffs; const = Prng.int rng 2 } in
    record sz scope "out" aff;
    aff
  in
  let inner_body =
    if reduce then
      if fp then [ accum_f 0 Fadd (gen_fexp rng sz scope mode 2) ]
      else [ accum_i 0 Add (gen_iexp rng sz scope mode 2) ]
    else begin
      let set =
        if Prng.bool rng then
          if fp then [ Fset (0, gen_fexp rng sz scope mode 2) ]
          else [ Iset (0, gen_iexp rng sz scope mode 2) ]
        else []
      in
      let store () =
        if fp then Fstore ("out", store_aff (), gen_fexp rng sz scope mode 2)
        else Istore ("out", store_aff (), gen_iexp rng sz scope mode 2)
      in
      let first = store () in
      let extra =
        if Prng.int rng 10 < 3 then
          let s = store () in
          if Prng.bool rng then [ gen_guard rng scope [ s ] ] else [ s ]
        else []
      in
      set @ [ first ] @ extra
    end
  in
  let inner_for = For { var = inner_var; extent = inner_extent; tile_tag = None; body = inner_body } in
  let inner_for =
    if tiled then
      match tile ~t:tile_factor inner_for with Ok s -> s | Error _ -> inner_for
    else inner_for
  in
  (* wrap outward; a reduction initialises / stores in the immediate parent *)
  let rec wrap ~is_parent levels inner =
    match levels with
    | [] -> inner
    | (v, e) :: rest ->
      let body =
        if reduce && is_parent then begin
          let parent_scope = List.filteri (fun i _ -> i < depth - 1) scope in
          let coeffs =
            List.map (fun (v, _) -> (v, 1 + Prng.int rng 8)) parent_scope
          in
          let aff = { coeffs; const = 0 } in
          record sz parent_scope "out" aff;
          if fp then
            [ Fset (0, Fconst 0.0); inner; Fstore ("out", aff, Ftmp 0) ]
          else [ Iset (0, Iconst 0); inner; Istore ("out", aff, Itmp 0) ]
        end
        else [ inner ]
      in
      wrap ~is_parent:false rest (For { var = v; extent = e; tile_tag = None; body })
  in
  (* outer_scope is outermost-first; wrap from the inside out *)
  let nest = wrap ~is_parent:true (List.rev outer_scope) inner_for in
  let elems name = 1 + Option.value ~default:0 (Hashtbl.find_opt sz name) in
  let arrays =
    List.map
      (fun (a, d) ->
        { aname = a; dtype = d; input = true; elems = elems a })
      (in_arrays mode)
    @ [ { aname = "out"; dtype = out_dtype mode; input = false; elems = elems "out" } ]
  in
  {
    sname = Printf.sprintf "gen%d" (abs seed mod 1_000_000_000);
    seed;
    arrays;
    body = [ nest ];
  }

(* About one draw in 3,000 builds an expression that needs more scratch
   slots than the DSL allows. Such a draw is replaced by one from a seed
   derived from it, keeping the caller's seed and name, so every valid draw
   is unchanged and the result is still a pure function of [seed]. *)
let rec generate ~seed =
  let spec = draw ~seed in
  if validate spec = Ok () then spec
  else
    let next = Int64.to_int (Prng.bits64 (Prng.create seed)) in
    { (generate ~seed:next) with sname = spec.sname; seed }

(* -------------------- shrinking -------------------- *)

let rec variants_of_list stmts =
  match stmts with
  | [] -> []
  | s :: rest ->
    let here =
      (match s with For _ -> [] | _ -> [ rest ])
      @ (match s with If (_, _, _, body) -> [ body @ rest ] | _ -> [])
      @ (match s with
        | For l ->
          (match untile s with Some s' -> [ s' :: rest ] | None -> [])
          @ (if l.extent >= 2 then
               [ For { l with extent = l.extent / 2 } :: rest ]
             else [])
          @ List.map
              (fun body' -> For { l with body = body' } :: rest)
              (variants_of_list l.body)
        | If (c, e1, e2, body) ->
          List.map
            (fun body' -> If (c, e1, e2, body') :: rest)
            (variants_of_list body)
        | _ -> [])
    in
    here @ List.map (fun rest' -> s :: rest') (variants_of_list rest)

let shrink_candidates spec =
  variants_of_list spec.body
  |> List.map (fun body -> { spec with body })
  |> List.filter (fun s -> validate s = Ok ())
