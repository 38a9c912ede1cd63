(* See tile_lower.mli for the register map. Tile_dsl.validate has already
   bounded every resource, so emission never allocates: each DSL object has
   a fixed register. *)

open Tile_dsl

type built = {
  spec : Tile_dsl.spec;
  program : Program.t;
  n : int;
  parallel : bool;
  fp : bool;
  setup : Main_memory.t -> unit;
  args : lo:int -> hi:int -> (Reg.t * int) list;
  fargs : (Reg.t * float) list;
  check : Main_memory.t -> (unit, string) result;
}

type defect = Store_skew

let defect_to_string Store_skew = "store-skew"

let int_scratch = [| Reg.t4; Reg.t5; Reg.t6; Reg.a6; Reg.a7 |]
let fp_scratch = [| Reg.ft3; Reg.ft4; Reg.ft5; Reg.ft6; Reg.ft7 |]
let itmp_reg = [| Reg.t1; Reg.t2; Reg.t3 |]
let ftmp_reg = [| Reg.ft0; Reg.ft1; Reg.ft2 |]
let ind_reg = [| Reg.s2; Reg.s3; Reg.s4; Reg.s5; Reg.s6 |]
let bound_reg = [| Reg.s7; Reg.s8; Reg.s9; Reg.s10 |]
let base_reg = [| Reg.a0; Reg.a1; Reg.a2; Reg.a3 |]

let log2 n =
  let rec go k n = if n = 1 then k else go (k + 1) (n / 2) in
  go 0 n

let float_bits f = Int32.to_int (Int32.bits_of_float f)

let emit spec ~defect ~parallel =
  let b = Asm.create () in
  let array_index name =
    let rec go i = function
      | a :: _ when a.aname = name -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> assert false
    in
    go 0 spec.arrays
  in
  let guard_id = ref 0 in
  (* Address of [arr[aff]] into [dst], clobbering t0. *)
  let emit_addr dst ~scope arr (aff : affine) ~skew =
    Asm.mv b dst base_reg.(array_index arr);
    let const = aff.const + skew in
    if const <> 0 then Asm.addi b dst dst (4 * const);
    List.iter
      (fun (v, c) ->
        if c <> 0 then begin
          let ind = List.assoc v scope in
          let bc = 4 * c in
          if bc > 0 && bc land (bc - 1) = 0 then Asm.slli b Reg.t0 ind (log2 bc)
          else begin
            Asm.li b Reg.t0 bc;
            Asm.mul b Reg.t0 Reg.t0 ind
          end;
          Asm.add b dst dst Reg.t0
        end)
      aff.coeffs
  in
  (* Evaluate into scratch slot [sp] of the file matching the type. *)
  let rec eval_i ~scope sp e =
    let dst = int_scratch.(sp) in
    match e with
    | Iconst c -> Asm.li b dst c
    | Ivar v -> Asm.mv b dst (List.assoc v scope)
    | Itmp t -> Asm.mv b dst itmp_reg.(t)
    | Iload (a, aff) ->
      emit_addr dst ~scope a aff ~skew:0;
      Asm.lw b dst 0 dst
    | Ibin (op, l, r) ->
      eval_i ~scope sp l;
      eval_i ~scope (sp + 1) r;
      let rop =
        match op with
        | Add -> Asm.add | Sub -> Asm.sub | Mul -> Asm.mul
        | And -> Asm.and_ | Or -> Asm.or_ | Xor -> Asm.xor
      in
      rop b dst dst int_scratch.(sp + 1)
    | F2i e ->
      eval_f ~scope sp e;
      Asm.fcvt_w_s b dst fp_scratch.(sp)
    | Fconst _ | Ftmp _ | Fload _ | Fbin _ | I2f _ -> assert false
  and eval_f ~scope sp e =
    let dst = fp_scratch.(sp) in
    match e with
    | Fconst f ->
      Asm.li b int_scratch.(sp) (float_bits f);
      Asm.fmv_w_x b dst int_scratch.(sp)
    | Ftmp t -> Asm.fmv b dst ftmp_reg.(t)
    | Fload (a, aff) ->
      emit_addr int_scratch.(sp) ~scope a aff ~skew:0;
      Asm.flw b dst 0 int_scratch.(sp)
    | Fbin (op, l, r) ->
      eval_f ~scope sp l;
      eval_f ~scope (sp + 1) r;
      let fop =
        match op with
        | Fadd -> Asm.fadd | Fsub -> Asm.fsub | Fmul -> Asm.fmul
        | Fmin -> Asm.fmin | Fmax -> Asm.fmax
      in
      fop b dst dst fp_scratch.(sp + 1)
    | I2f e ->
      eval_i ~scope sp e;
      Asm.fcvt_s_w b dst int_scratch.(sp)
    | Iconst _ | Ivar _ | Itmp _ | Iload _ | Ibin _ | F2i _ -> assert false
  in
  let store_skew (aff : affine) =
    match defect with
    | Some Store_skew
      when List.length (List.filter (fun (_, c) -> c <> 0) aff.coeffs) >= 2 ->
      1
    | _ -> 0
  in
  let rec emit_stmt ~depth ~scope s =
    match s with
    | Iset (t, e) ->
      eval_i ~scope 0 e;
      Asm.mv b itmp_reg.(t) int_scratch.(0)
    | Fset (t, e) ->
      eval_f ~scope 0 e;
      Asm.fmv b ftmp_reg.(t) fp_scratch.(0)
    | Istore (a, aff, e) ->
      eval_i ~scope 0 e;
      emit_addr int_scratch.(1) ~scope a aff ~skew:(store_skew aff);
      Asm.sw b int_scratch.(0) 0 int_scratch.(1)
    | Fstore (a, aff, e) ->
      eval_f ~scope 0 e;
      emit_addr int_scratch.(0) ~scope a aff ~skew:(store_skew aff);
      Asm.fsw b fp_scratch.(0) 0 int_scratch.(0)
    | If (c, e1, e2, body) ->
      eval_i ~scope 0 e1;
      eval_i ~scope 1 e2;
      incr guard_id;
      let skip = Printf.sprintf "G%d" !guard_id in
      let br =
        (* branch on the negation: fall through into the guarded body *)
        match c with
        | Lt -> Asm.bge | Ge -> Asm.blt | Eq -> Asm.bne | Ne -> Asm.beq
      in
      br b int_scratch.(0) int_scratch.(1) skip;
      List.iter (emit_stmt ~depth ~scope) body;
      Asm.label b skip
    | For l ->
      let ind = ind_reg.(depth) in
      let bound = if depth = 0 then Reg.a5 else bound_reg.(depth - 1) in
      if depth = 0 then Asm.mv b ind Reg.a4
      else begin
        Asm.li b ind 0;
        Asm.li b bound l.extent
      end;
      let innermost = not (List.exists (function For _ -> true | _ -> false) l.body) in
      if innermost && parallel then Asm.pragma b Program.Omp_parallel;
      let lbl = "L_" ^ l.var in
      Asm.label b lbl;
      List.iter (emit_stmt ~depth:(depth + 1) ~scope:((l.var, ind) :: scope)) l.body;
      Asm.addi b ind ind 1;
      Asm.blt b ind bound lbl
  in
  (* Preamble: zero the DSL temporaries so every register the body reads is
     defined on entry. *)
  Array.iter (fun r -> Asm.li b r 0) itmp_reg;
  if fp_spec spec then
    Array.iter (fun r -> Asm.fmv_w_x b r Reg.zero) ftmp_reg;
  List.iter (emit_stmt ~depth:0 ~scope:[]) spec.body;
  Asm.ecall b;
  Asm.assemble b

let lower ?defect spec =
  match validate spec with
  | Error e -> Error e
  | Ok () ->
    let parallel = innermost_parallel spec in
    let program = emit spec ~defect ~parallel in
    let args ~lo ~hi =
      List.mapi (fun i a -> (base_reg.(i), base_of spec a.aname)) spec.arrays
      @ [ (Reg.a4, lo); (Reg.a5, hi) ]
    in
    Ok
      {
        spec;
        program;
        n = outer_extent spec;
        parallel;
        fp = fp_spec spec;
        setup = setup spec;
        args;
        fargs = [];
        check = check spec;
      }

let lower_exn spec =
  match lower spec with
  | Ok b -> b
  | Error e -> failwith ("Tile_lower: " ^ e)
