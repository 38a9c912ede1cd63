(** Registry of all benchmark kernels used by the evaluation. *)

val all : unit -> Kernel.t list
(** The full kernel suite at default sizes, in alphabetical order: the 20
    Rodinia kernels plus the three tile-DSL-built ones (stencil_conv and
    the two tiled_gemm variants). Built once when the module is
    initialised, so every call returns the same (immutable) kernels. *)

val find : string -> Kernel.t
(** Lookup by name. Raises [Not_found] on an unknown name. *)

val opencgra_compatible : unit -> Kernel.t list
(** The eight kernels used for the OpenCGRA comparison (Figure 12) — the
    ones without predicated bodies, which the baseline scheduler handles. *)

val dynaspam_shared : unit -> Kernel.t list
(** Kernels shared with the DynaSpAM evaluation (Figure 14). *)

val nn : ?n:int -> unit -> Kernel.t
(** The PE-scaling kernel (Figure 15) at a custom size. *)
