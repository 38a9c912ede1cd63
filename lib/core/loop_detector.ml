(* Stability threshold before vetting, and the C3 instruction-mix bounds. *)
let confirm_iterations = 8
let min_compute_fraction = 0.2
let max_memory_fraction = 0.6

type verdict = Accepted of Region.t | Rejected of { entry : int; reason : string }

type candidate = { entry : int; last : int; mutable consecutive : int }

type t = {
  capacity : int;  (* C1 bound = trace-cache capacity *)
  prog : Program.t;
  mutable candidate : candidate option;
  decided : (int, unit) Hashtbl.t; (* entries already accepted or rejected *)
}

let create ~capacity prog =
  { capacity; prog; candidate = None; decided = Hashtbl.create 16 }

(* C2: vet every instruction of the body. The final instruction must be the
   confirming backward branch; everything else must be fabric-executable. *)
let control_check (instrs : Isa.t array) ~entry ~last =
  let n = Array.length instrs in
  let addr_of i = entry + (4 * i) in
  let rec go i =
    if i = n - 1 then Ok ()
    else
      let a = addr_of i in
      match instrs.(i) with
      | Isa.Jal _ | Isa.Jalr _ -> Error (Printf.sprintf "jump at 0x%x" a)
      | Isa.Ecall | Isa.Ebreak -> Error (Printf.sprintf "system instruction at 0x%x" a)
      | Isa.Fence -> Error (Printf.sprintf "fence at 0x%x" a)
      | Isa.Branch (_, _, _, off) ->
        let target = a + off in
        if off <= 0 then Error (Printf.sprintf "inner loop at 0x%x" a)
        else if target > last then
          Error (Printf.sprintf "branch at 0x%x escapes the region" a)
        else go (i + 1)
      | Isa.Rtype _ | Isa.Itype _ | Isa.Load _ | Isa.Store _ | Isa.Lui _
      | Isa.Auipc _ | Isa.Ftype _ | Isa.Fcmp _ | Isa.Flw _ | Isa.Fsw _
      | Isa.Fcvt_w_s _ | Isa.Fcvt_s_w _ | Isa.Fmv_x_w _ | Isa.Fmv_w_x _ ->
        go (i + 1)
  in
  match instrs.(n - 1) with
  | Isa.Branch (_, _, _, off) when addr_of (n - 1) + off = entry -> go 0
  | _ -> Error "region does not end in its backward branch"

let vet t ~entry ~last ~observed =
  let n = ((last - entry) / 4) + 1 in
  if n > t.capacity then
    Error (Printf.sprintf "C1: %d instructions exceed capacity %d" n t.capacity)
  else begin
    let instrs = Array.init n (fun i -> Program.fetch_exn t.prog (entry + (4 * i))) in
    match control_check instrs ~entry ~last with
    | Error e -> Error ("C2: " ^ e)
    | Ok () ->
      let region =
        {
          Region.entry;
          back_branch_addr = last;
          instrs;
          pragma = Program.pragma_at t.prog entry;
          observed_iterations = observed;
        }
      in
      let mix = Region.mix region in
      let size = float_of_int n in
      let compute_frac = float_of_int mix.Region.compute /. size in
      let memory_frac = float_of_int mix.Region.memory /. size in
      if mix.Region.unsupported > 0 then Error "C2: unsupported instruction"
      else if compute_frac < min_compute_fraction then
        Error (Printf.sprintf "C3: compute fraction %.2f too low" compute_frac)
      else if memory_frac > max_memory_fraction then
        Error (Printf.sprintf "C3: memory fraction %.2f too high" memory_frac)
      else Ok region
  end

let feed t ~pc ~off =
  let entry = pc + off and last = pc in
  if Hashtbl.mem t.decided entry then None
  else begin
    (match t.candidate with
    | Some c when c.entry = entry && c.last = last -> c.consecutive <- c.consecutive + 1
    | Some _ | None -> t.candidate <- Some { entry; last; consecutive = 1 });
    match t.candidate with
    | Some c when c.consecutive >= confirm_iterations ->
      Hashtbl.replace t.decided entry ();
      t.candidate <- None;
      (match vet t ~entry ~last ~observed:c.consecutive with
      | Ok region -> Some (Accepted region)
      | Error reason -> Some (Rejected { entry; reason }))
    | Some _ | None -> None
  end
