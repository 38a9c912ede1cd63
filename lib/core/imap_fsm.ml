type state =
  | Fetch          (* read the next LDFG entry (Algorithm 1 line 1) *)
  | Generate       (* position the candidate matrix (line 4) *)
  | Filter         (* mask by F_free and F_op (line 5) *)
  | Reduce of int  (* reduction level, finding argmin latency (lines 8-18) *)
  | Writeback      (* commit the position to the SDFG (line 19) *)

let window = Mapper.window_rows * Mapper.window_cols

let stages =
  [ Fetch; Generate; Filter ]
  @ List.init Mapper.reduction_depth (fun k -> Reduce k)
  @ [ Writeback ]

let glyph = function
  | Fetch -> 'F'
  | Generate -> 'G'
  | Filter -> 'L'
  | Reduce _ -> 'R'
  | Writeback -> 'W'

(* The FSM handles one instruction at a time: instruction [i] runs the
   stages in the [i]-th block of cycles and idles in every other. *)
let timing_diagram ?(max_nodes = 8) dfg =
  let shown = min max_nodes (Dfg.node_count dfg) in
  let per_node = List.length stages in
  let busy = String.of_seq (List.to_seq (List.map glyph stages)) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "imap FSM, %d-entry candidate window: F=fetch G=candidates L=filter R=reduce W=writeback\n"
       window);
  for i = 0 to shown - 1 do
    Printf.bprintf buf "i%-3d %s%s%s\n" i
      (String.make (i * per_node) '.')
      busy
      (String.make ((shown - i - 1) * per_node) '.')
  done;
  if Dfg.node_count dfg > shown then
    Buffer.add_string buf
      (Printf.sprintf "... %d more instructions, %d cycles total\n"
         (Dfg.node_count dfg - shown) (Mapper.map_cycles dfg));
  Buffer.contents buf
