type t = {
  xregs : int array;
  fregs : float array;
  mutable pc : int;
  mem : Main_memory.t;
}

let create ?(pc = 0x1000) mem =
  { xregs = Array.make Reg.count 0; fregs = Array.make Reg.count 0.0; pc; mem }

let to_s32 v = (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)
let to_u32 v = v land 0xFFFFFFFF
let[@inline] round32 f = Int32.float_of_bits (Int32.bits_of_float f)

let get_x t r = if r = 0 then 0 else t.xregs.(r)
let set_x t r v = if r <> 0 then t.xregs.(r) <- to_s32 v
let[@inline] get_f t r = t.fregs.(r)
let[@inline] set_f t r v = t.fregs.(r) <- round32 v

let set_args t args = List.iter (fun (r, v) -> set_x t r v) args
let set_fargs t args = List.iter (fun (r, v) -> set_f t r v) args

let copy t ?mem () =
  {
    xregs = Array.copy t.xregs;
    fregs = Array.copy t.fregs;
    pc = t.pc;
    mem = Option.value mem ~default:t.mem;
  }

let restore t ~from =
  Array.blit from.xregs 0 t.xregs 0 Reg.count;
  Array.blit from.fregs 0 t.fregs 0 Reg.count;
  t.pc <- from.pc

let arch_equal a b =
  (* FP registers compare by bit pattern: NaN payloads are architectural
     state too, and [nan = nan] is false under OCaml's [=]. *)
  a.pc = b.pc
  && Array.for_all2 ( = ) a.xregs b.xregs
  && Array.for_all2
       (fun x y -> Int32.bits_of_float x = Int32.bits_of_float y)
       a.fregs b.fregs
