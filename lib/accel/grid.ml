type coord = { row : int; col : int }

let coord row col = { row; col }
let manhattan a b = abs (a.row - b.row) + abs (a.col - b.col)

type t = {
  rows : int;
  cols : int;
  ls_entries : int;
  mem_ports : int;
  name : string;
  masked : coord list;
}

(* FP slices are [fp_tile x fp_tile] blocks. *)
let fp_tile = 2
let slice_width = 4

let make ?(mem_ports = 2) ?name ~rows ~cols () =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid.make: empty grid";
  let name = Option.value name ~default:(Printf.sprintf "M-%d" (rows * cols)) in
  {
    rows;
    cols;
    ls_entries = max 4 (rows * cols / 2);
    mem_ports;
    name;
    masked = [];
  }

let m64 = make ~rows:16 ~cols:4 ~name:"M-64" ()
let m128 = make ~rows:16 ~cols:8 ~name:"M-128" ()
let m512 = make ~rows:64 ~cols:8 ~mem_ports:4 ~name:"M-512" ()

let of_pe_count n =
  if n <= 0 then invalid_arg "Grid.of_pe_count: non-positive PE count";
  let cols = if n >= 64 then 8 else if n >= 16 then 4 else 2 in
  let rows = Stats.div_ceil n cols in
  make ~rows ~cols ~name:(Printf.sprintf "M-%d" (rows * cols)) ()

let pe_count t = t.rows * t.cols
let in_bounds t c = c.row >= 0 && c.row < t.rows && c.col >= 0 && c.col < t.cols
let is_masked t c = List.mem c t.masked

let mask t coords =
  let fresh =
    List.filter (fun c -> in_bounds t c && not (is_masked t c)) coords
  in
  let fresh = List.sort_uniq compare fresh in
  if fresh = [] then t else { t with masked = t.masked @ fresh }

let healthy_pe_count t = pe_count t - List.length t.masked

let has_fp c =
  ((c.row / fp_tile) + (c.col / fp_tile)) mod 2 = 0

let supports t c (cls : Isa.op_class) =
  in_bounds t c
  && (not (is_masked t c))
  &&
  match cls with
  | Isa.C_alu | Isa.C_mul | Isa.C_div | Isa.C_branch -> true
  | Isa.C_fadd | Isa.C_fmul | Isa.C_fdiv -> has_fp c
  | Isa.C_load | Isa.C_store | Isa.C_jump | Isa.C_system -> false

let ls_row t e = e mod t.rows

let iter_coords t f =
  for row = 0 to t.rows - 1 do
    for col = 0 to t.cols - 1 do
      f { row; col }
    done
  done
