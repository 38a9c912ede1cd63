type kind = Mesh_noc | Hierarchical_rows | Pure_mesh
type route = Local | Noc

(* Direct links reach immediate neighbours; values can chain through at most
   [local_reach] hops before the NoC becomes the faster/only path. *)
let local_reach = 3

let route _grid kind a b =
  match kind with
  | Hierarchical_rows | Pure_mesh -> Local
  | Mesh_noc -> if Grid.manhattan a b <= local_reach then Local else Noc

let latency _grid kind (a : Grid.coord) (b : Grid.coord) =
  let d = Grid.manhattan a b in
  match kind with
  | Pure_mesh -> max 1 d
  | Hierarchical_rows -> if a.row = b.row then 1 else 3
  | Mesh_noc ->
    if d <= local_reach then max 1 d
    else
      (* Inject + ride the half-ring (one hop per slice of PEs) + eject. *)
      2 + Stats.div_ceil d Grid.slice_width + 1

let noc_slice (grid : Grid.t) (c : Grid.coord) =
  (c.row * grid.cols + c.col) / Grid.slice_width

let slices (grid : Grid.t) =
  ((grid.rows * grid.cols) - 1) / Grid.slice_width + 1

let ls_coord (grid : Grid.t) e = Grid.coord (Grid.ls_row grid e) (-1)
