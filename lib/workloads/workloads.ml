(* Built once at module initialisation: kernels are immutable values, and
   every request, DSE point and refine pass looks them up by name. An eager
   value (not a [Lazy.t]) is safe to read from several domains at once. *)
let registry =
  [
    Kernel_backprop.make ();
    Kernel_bfs.make ();
    Kernel_btree.make ();
    Kernel_cfd.make ();
    Kernel_gaussian.make ();
    Kernel_heartwall.make ();
    Kernel_hotspot.make ();
    Kernel_hybridsort.make ();
    Kernel_kmeans.make ();
    Kernel_lavamd.make ();
    Kernel_leukocyte.make ();
    Kernel_lud.make ();
    Kernel_mummergpu.make ();
    Kernel_myocyte.make ();
    Kernel_nn.make ();
    Kernel_nw.make ();
    Kernel_particlefilter.make ();
    Kernel_pathfinder.make ();
    Kernel_srad.make ();
    Kernel_stencil_conv.make ();
    Kernel_streamcluster.make ();
    Kernel_tiled_gemm.make ~t:2 ();
    Kernel_tiled_gemm.make ~t:4 ();
  ]

let all () = registry

let find name =
  match List.find_opt (fun k -> k.Kernel.name = name) registry with
  | Some k -> k
  | None -> raise Not_found

let opencgra_compatible () =
  List.map find
    [ "backprop"; "btree"; "cfd"; "gaussian"; "hotspot"; "lud"; "nn"; "streamcluster" ]

let dynaspam_shared () =
  List.map find [ "backprop"; "bfs"; "cfd"; "hotspot"; "kmeans"; "lud"; "nn"; "nw" ]

let nn ?n () = Kernel_nn.make ?n ()
