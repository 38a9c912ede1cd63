type t = { data : Bytes.t }

(* Recycled backing buffers. The harness allocates one default-sized (16 MiB)
   memory per measurement; creating each from scratch costs a major-heap
   allocation that, across parallel worker domains, dominates GC pacing.
   Released buffers park here (shared across domains — a mutex around a
   rarely-touched list) and are re-zeroed on reuse, which is observably
   identical to a fresh allocation at a fraction of the cost. *)
let pool_lock = Mutex.create ()
let pool : Bytes.t list ref = ref []
let pool_bytes = ref 0
let pool_cap = 256 * 1024 * 1024

let create ?(size = 16 * 1024 * 1024) () =
  let recycled =
    Mutex.protect pool_lock (fun () ->
        match List.partition (fun b -> Bytes.length b = size) !pool with
        | b :: rest_same, rest ->
          pool := rest_same @ rest;
          pool_bytes := !pool_bytes - Bytes.length b;
          Some b
        | [], _ -> None)
  in
  match recycled with
  | Some b ->
    Bytes.fill b 0 size '\000';
    { data = b }
  | None -> { data = Bytes.make size '\000' }

let release t =
  Mutex.protect pool_lock (fun () ->
      if !pool_bytes + Bytes.length t.data <= pool_cap then begin
        pool := t.data :: !pool;
        pool_bytes := !pool_bytes + Bytes.length t.data
      end)

let size t = Bytes.length t.data

let check t addr width =
  if addr < 0 || addr + width > Bytes.length t.data then
    invalid_arg (Printf.sprintf "Main_memory: access at 0x%x width %d out of bounds" addr width)

let sign_extend ~bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let load_byte_u t addr =
  check t addr 1;
  Char.code (Bytes.get t.data addr)

let load_byte t addr = sign_extend ~bits:8 (load_byte_u t addr)

let load_half_u t addr =
  check t addr 2;
  Bytes.get_uint16_le t.data addr

let load_half t addr = sign_extend ~bits:16 (load_half_u t addr)

let load_word t addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr)

let store_byte t addr v =
  check t addr 1;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let store_half t addr v =
  check t addr 2;
  Bytes.set_uint16_le t.data addr (v land 0xFFFF)

let store_word t addr v =
  check t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let load_float32 t addr =
  check t addr 4;
  Int32.float_of_bits (Bytes.get_int32_le t.data addr)

let store_float32 t addr f =
  check t addr 4;
  Bytes.set_int32_le t.data addr (Int32.bits_of_float f)

let copy t = { data = Bytes.copy t.data }

let restore t ~from =
  if Bytes.length t.data <> Bytes.length from.data then
    invalid_arg "Main_memory.restore: size mismatch";
  Bytes.blit from.data 0 t.data 0 (Bytes.length t.data)

let equal a b = Bytes.equal a.data b.data

(* FNV-1a with the offset basis truncated to OCaml's 63-bit int, folded to a
   non-negative value so it prints identically on every 64-bit platform. *)
let checksum t =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Bytes.length t.data - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get t.data i)) * 0x100000001b3
  done;
  !h land max_int

let blit_words t addr ws =
  Array.iteri (fun i w -> store_word t (addr + (4 * i)) w) ws

let blit_floats t addr fs =
  Array.iteri (fun i f -> store_float32 t (addr + (4 * i)) f) fs

let read_words t addr n = Array.init n (fun i -> load_word t (addr + (4 * i)))
let read_floats t addr n = Array.init n (fun i -> load_float32 t (addr + (4 * i)))
