type file = X | F

type src = Node of int | Reg_in of Reg.t * file

type node = {
  instr : Isa.t;
  addr : int;
  srcs : src array;
  guards : (int * bool) list;
  hidden : src option;
  prev_store : int option;
}

type t = {
  nodes : node array;
  live_in_x : Reg.t list;
  live_in_f : Reg.t list;
  live_out_x : (Reg.t * src) list;
  live_out_f : (Reg.t * src) list;
  back_branch : int;
  entry_addr : int;
  exit_addr : int;
}

type edge_kind = Data of int | Hidden | Guard | Mem_order

let node_count t = Array.length t.nodes

let edges t =
  let acc = ref [] in
  Array.iteri
    (fun j nd ->
      Array.iteri
        (fun k s -> match s with Node i -> acc := (i, j, Data k) :: !acc | Reg_in _ -> ())
        nd.srcs;
      (match nd.hidden with
      | Some (Node i) -> acc := (i, j, Hidden) :: !acc
      | Some (Reg_in _) | None -> ());
      List.iter (fun (b, _) -> acc := (b, j, Guard) :: !acc) nd.guards;
      match nd.prev_store with
      | Some s -> acc := (s, j, Mem_order) :: !acc
      | None -> ())
    t.nodes;
  List.rev !acc

let arrival_deps t =
  Array.map
    (fun nd ->
      let ds = ref [] in
      Array.iter (function Node i -> ds := i :: !ds | Reg_in _ -> ()) nd.srcs;
      (match nd.hidden with Some (Node i) -> ds := i :: !ds | Some (Reg_in _) | None -> ());
      List.iter (fun (b, _) -> ds := b :: !ds) nd.guards;
      if Isa.is_store nd.instr then Option.iter (fun s -> ds := s :: !ds) nd.prev_store;
      Array.of_list (List.rev !ds))
    t.nodes

let is_branch_node t i = Isa.op_class t.nodes.(i).instr = Isa.C_branch

let validate t =
  let n = node_count t in
  let check_src j = function
    | Node i when i >= j ->
      Error (Printf.sprintf "node %d has forward/self source %d" j i)
    | Node i when i < 0 -> Error (Printf.sprintf "node %d has negative source %d" j i)
    | Node _ | Reg_in _ -> Ok ()
  in
  let rec fold_result f = function
    | [] -> Ok ()
    | x :: rest -> ( match f x with Ok () -> fold_result f rest | Error _ as e -> e)
  in
  let check_node j =
    let nd = t.nodes.(j) in
    match fold_result (check_src j) (Array.to_list nd.srcs) with
    | Error _ as e -> e
    | Ok () -> (
      match Option.map (check_src j) nd.hidden with
      | Some (Error _ as e) -> e
      | Some (Ok ()) | None ->
        let guard_ok (b, _) =
          if b < 0 || b >= j then
            Error (Printf.sprintf "node %d has invalid guard %d" j b)
          else if not (is_branch_node t b) then
            Error (Printf.sprintf "node %d guarded by non-branch %d" j b)
          else Ok ()
        in
        (match fold_result guard_ok nd.guards with
        | Error _ as e -> e
        | Ok () -> (
          match nd.prev_store with
          | Some s when s >= j || s < 0 ->
            Error (Printf.sprintf "node %d has invalid store link %d" j s)
          | Some s when not (Isa.is_store t.nodes.(s).instr) ->
            Error (Printf.sprintf "node %d store link %d is not a store" j s)
          | Some _ | None -> Ok ())))
  in
  if n = 0 then Error "empty graph"
  else if t.back_branch < 0 || t.back_branch >= n then Error "back_branch out of range"
  else if not (is_branch_node t t.back_branch) then Error "back_branch is not a branch"
  else
    let rec go j = if j = n then Ok () else
      match check_node j with Ok () -> go (j + 1) | Error _ as e -> e
    in
    go 0

let loop_carried t =
  let written_x = t.live_out_x and written_f = t.live_out_f in
  let carried_of file live_ins written =
    List.filter_map
      (fun r ->
        match List.assoc_opt r written with
        | Some producer -> Some (r, file, producer)
        | None -> None)
      live_ins
  in
  carried_of X t.live_in_x written_x @ carried_of F t.live_in_f written_f

(* Equation 2 over every dependence kind. Program order is topological, so a
   single left-to-right sweep suffices. *)
let completion_times t ~op_latency ~transfer =
  let n = node_count t in
  let compl_ = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let nd = t.nodes.(j) in
    let arrival = ref 0.0 in
    let note_src = function
      | Node i -> arrival := Float.max !arrival (compl_.(i) +. transfer i j)
      | Reg_in _ -> ()
    in
    Array.iter note_src nd.srcs;
    Option.iter note_src nd.hidden;
    List.iter (fun (b, _) -> note_src (Node b)) nd.guards;
    Option.iter (fun s -> note_src (Node s)) nd.prev_store;
    compl_.(j) <- !arrival +. op_latency j
  done;
  compl_

let iteration_latency t ~op_latency ~transfer =
  let compl_ = completion_times t ~op_latency ~transfer in
  Array.fold_left Float.max 0.0 compl_

let critical_path t ~op_latency ~transfer =
  let compl_ = completion_times t ~op_latency ~transfer in
  let n = node_count t in
  (* Start from the globally latest node, then walk the maximizing arrival
     backwards. *)
  let last = ref 0 in
  for j = 1 to n - 1 do
    if compl_.(j) > compl_.(!last) then last := j
  done;
  let rec walk j acc =
    let nd = t.nodes.(j) in
    let best = ref None in
    let consider = function
      | Node i ->
        let arr = compl_.(i) +. transfer i j in
        (match !best with
        | Some (_, a) when a >= arr -> ()
        | _ -> best := Some (i, arr))
      | Reg_in _ -> ()
    in
    Array.iter consider nd.srcs;
    Option.iter consider nd.hidden;
    List.iter (fun (b, _) -> consider (Node b)) nd.guards;
    Option.iter (fun s -> consider (Node s)) nd.prev_store;
    match !best with None -> j :: acc | Some (i, _) -> walk i (j :: acc)
  in
  walk !last []

let pp ppf t =
  Format.fprintf ppf "@[<v>DFG: %d nodes, entry 0x%x, exit 0x%x, back branch %d@,"
    (node_count t) t.entry_addr t.exit_addr t.back_branch;
  Array.iteri
    (fun j nd ->
      let src_str = function
        | Node i -> Printf.sprintf "n%d" i
        | Reg_in (r, X) -> Reg.name r
        | Reg_in (r, F) -> Reg.fname r
      in
      let srcs = Array.to_list nd.srcs |> List.map src_str |> String.concat ", " in
      Format.fprintf ppf "  n%-3d %-28s <- [%s]" j
        (Format.asprintf "%a" Isa.pp nd.instr)
        srcs;
      if nd.guards <> [] then
        Format.fprintf ppf " guards:%s"
          (String.concat ","
             (List.map (fun (b, w) -> Printf.sprintf "n%d/%b" b w) nd.guards));
      Format.fprintf ppf "@,")
    t.nodes;
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dfg {\n  rankdir=TB;\n  node [shape=box, fontname=monospace];\n";
  Array.iteri
    (fun j nd ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%d: %s\"];\n" j j
           (Format.asprintf "%a" Isa.pp nd.instr)))
    t.nodes;
  List.iter
    (fun (i, j, kind) ->
      let style =
        match kind with
        | Data _ -> ""
        | Hidden -> " [style=dashed]"
        | Guard -> " [style=dotted, color=blue]"
        | Mem_order -> " [style=dotted, color=red]"
      in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" i j style))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
