type t = {
  forwarding : (int * int) list;
  vector_groups : int list list;
  prefetched : int list;
  induction_regs : Reg.t list;
}

type kind = K_int_load | K_fp_load | K_int_store | K_fp_store

let mem_info (nd : Dfg.node) =
  match nd.Dfg.instr with
  | Isa.Load (op, _, _, off) ->
    let width = match op with Isa.LB | Isa.LBU -> 1 | Isa.LH | Isa.LHU -> 2 | Isa.LW -> 4 in
    Some (K_int_load, width, nd.Dfg.srcs.(0), off)
  | Isa.Flw (_, _, off) -> Some (K_fp_load, 4, nd.Dfg.srcs.(0), off)
  | Isa.Store (op, _, _, off) ->
    let width = match op with Isa.SB -> 1 | Isa.SH -> 2 | Isa.SW -> 4 in
    Some (K_int_store, width, nd.Dfg.srcs.(1), off)
  | Isa.Fsw (_, _, off) -> Some (K_fp_store, 4, nd.Dfg.srcs.(1), off)
  | _ -> None

let is_load = function K_int_load | K_fp_load -> true | K_int_store | K_fp_store -> false

let forward_compatible ~store_kind ~load_kind =
  match (store_kind, load_kind) with
  | K_int_store, K_int_load | K_fp_store, K_fp_load -> true
  | _ -> false

let analyze (dfg : Dfg.t) =
  let nodes = dfg.Dfg.nodes in
  let n = Array.length nodes in
  let unguarded j = nodes.(j).Dfg.guards = [] in
  (* Induction registers: live-outs produced by r <- r + imm. *)
  let induction_regs =
    List.filter_map
      (fun (r, src) ->
        match src with
        | Dfg.Node p -> (
          match (nodes.(p).Dfg.instr, nodes.(p).Dfg.srcs) with
          | Isa.Itype (Isa.ADDI, _, _, _), [| Dfg.Reg_in (r', Dfg.X) |] when r' = r -> Some r
          | _ -> None)
        | Dfg.Reg_in _ -> None)
      dfg.Dfg.live_out_x
  in
  (* Store-load forwarding: walk back from each load while the base source
     stays provably the same; a store off a different base could alias, so
     stop there. *)
  let forwarding = ref [] in
  for j = 0 to n - 1 do
    match mem_info nodes.(j) with
    | Some (lk, lw, lbase, loff) when is_load lk && unguarded j ->
      let rec back i =
        if i < 0 then ()
        else
          match mem_info nodes.(i) with
          | Some (sk, sw, sbase, soff) when not (is_load sk) ->
            if sbase = lbase then begin
              if soff = loff && sw = lw && sw = 4 && forward_compatible ~store_kind:sk ~load_kind:lk
              then forwarding := (j, i) :: !forwarding
              else if soff = loff then () (* partial overlap: no forwarding *)
              else back (i - 1) (* same base, disjoint offset: keep walking *)
            end
            else if unguarded i then () (* unknown base: possible alias, stop *)
            else () (* guarded store: conservatively stop *)
          | Some _ | None -> back (i - 1)
      in
      back (j - 1)
    | Some _ | None -> ()
  done;
  let forwarded_loads = List.map fst !forwarding in
  (* Vectorization: loads sharing one renamed base source. *)
  let groups : (Dfg.src * kind, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  for j = 0 to n - 1 do
    match mem_info nodes.(j) with
    | Some (lk, _, base, off)
      when is_load lk && unguarded j && not (List.mem j forwarded_loads) -> (
      match Hashtbl.find_opt groups (base, lk) with
      | Some l -> l := (off, j) :: !l
      | None -> Hashtbl.add groups (base, lk) (ref [ (off, j) ]))
    | Some _ | None -> ()
  done;
  let vector_groups =
    Hashtbl.fold
      (fun _ l acc ->
        if List.length !l >= 2 then
          (List.sort compare !l |> List.map snd) :: acc
        else acc)
      groups []
    |> List.sort compare
  in
  (* Prefetching: the address chain must bottom out in induction registers,
     x0 or loop-invariant live-ins, through pure integer arithmetic. *)
  let invariant_reg r =
    r = 0 || List.mem r induction_regs || not (List.mem_assoc r dfg.Dfg.live_out_x)
  in
  let memo = Hashtbl.create 16 in
  let rec invariant_src = function
    | Dfg.Reg_in (r, Dfg.X) -> invariant_reg r
    | Dfg.Reg_in (_, Dfg.F) -> false
    | Dfg.Node p -> (
      match Hashtbl.find_opt memo p with
      | Some b -> b
      | None ->
        let b =
          (match Isa.op_class nodes.(p).Dfg.instr with
          | Isa.C_alu | Isa.C_mul -> true
          | _ -> false)
          && nodes.(p).Dfg.guards = []
          && Array.for_all invariant_src nodes.(p).Dfg.srcs
        in
        Hashtbl.add memo p b;
        b)
  in
  let prefetched = ref [] in
  for j = n - 1 downto 0 do
    match mem_info nodes.(j) with
    | Some (lk, _, base, _)
      when is_load lk && unguarded j && not (List.mem j forwarded_loads) ->
      if invariant_src base then prefetched := j :: !prefetched
    | Some _ | None -> ()
  done;
  { forwarding = List.rev !forwarding; vector_groups; prefetched = !prefetched; induction_regs }
