type state =
  | Fetch          (* read the next LDFG entry (Algorithm 1 line 1) *)
  | Generate       (* position the candidate matrix (line 4) *)
  | Filter         (* mask by F_free and F_op (line 5) *)
  | Reduce of int  (* reduction level, finding argmin latency (lines 8-18) *)
  | Writeback      (* commit the position to the SDFG (line 19) *)

type step = { cycle : int; node : int; state : state }

let window = Mapper.window_rows * Mapper.window_cols

let stages =
  [ Fetch; Generate; Filter ]
  @ List.init Mapper.reduction_depth (fun k -> Reduce k)
  @ [ Writeback ]

let simulate (dfg : Dfg.t) =
  let steps = ref [] in
  let cycle = ref 0 in
  for node = 0 to Dfg.node_count dfg - 1 do
    List.iter
      (fun state ->
        steps := { cycle = !cycle; node; state } :: !steps;
        incr cycle)
      stages
  done;
  List.rev !steps

let cycles dfg =
  match List.rev (simulate dfg) with [] -> 0 | last :: _ -> last.cycle + 1

let glyph = function
  | Fetch -> 'F'
  | Generate -> 'G'
  | Filter -> 'L'
  | Reduce _ -> 'R'
  | Writeback -> 'W'

let timing_diagram ?(max_nodes = 8) dfg =
  let steps = simulate dfg in
  let shown = min max_nodes (Dfg.node_count dfg) in
  let per_node = List.length stages in
  let width = shown * per_node in
  let rows = Array.init shown (fun _ -> Bytes.make width '.') in
  List.iter
    (fun s -> if s.node < shown then Bytes.set rows.(s.node) s.cycle (glyph s.state))
    steps;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "imap FSM, %d-entry candidate window: F=fetch G=candidates L=filter R=reduce W=writeback\n"
       window);
  Array.iteri
    (fun i row ->
      Buffer.add_string buf (Printf.sprintf "i%-3d %s\n" i (Bytes.to_string row)))
    rows;
  if Dfg.node_count dfg > shown then
    Buffer.add_string buf
      (Printf.sprintf "... %d more instructions, %d cycles total\n"
         (Dfg.node_count dfg - shown) (cycles dfg));
  Buffer.contents buf
