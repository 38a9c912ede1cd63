(* Memory is a table of 4 KiB pages. Every slot starts out holding the one
   shared [zero_page]; the first store into a slot gives it a private zeroed
   page. Untouched memory therefore costs one array slot per page, and copy,
   restore, equal and checksum skip it. [zero_page] is never written: every
   store goes through [writable_page]. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

type t = { size : int; pages : Bytes.t array }

let create ?(size = 16 * 1024 * 1024) () =
  if size < 0 then invalid_arg "Main_memory.create: negative size";
  { size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let release t = Array.fill t.pages 0 (Array.length t.pages) zero_page

let check t addr width =
  if addr < 0 || addr + width > t.size then
    invalid_arg (Printf.sprintf "Main_memory: access at 0x%x width %d out of bounds" addr width)

let sign_extend ~bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

let writable_page t addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i p;
    p
  end

(* An access of [width] bytes at page offset [off] fits in one page. *)
let in_page off width = off <= page_size - width

(* Accesses that straddle a page boundary go byte by byte, little-endian. *)
let load_slow t addr width =
  let v = ref 0 in
  for a = addr + width - 1 downto addr do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get (page t a) (a land page_mask))
  done;
  !v

let store_slow t addr width v =
  for i = 0 to width - 1 do
    let a = addr + i in
    Bytes.unsafe_set (writable_page t a) (a land page_mask)
      (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

let load_byte_u t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let load_byte t addr = sign_extend ~bits:8 (load_byte_u t addr)

let load_half_u t addr =
  check t addr 2;
  let off = addr land page_mask in
  if in_page off 2 then Bytes.get_uint16_le (page t addr) off else load_slow t addr 2

let load_half t addr = sign_extend ~bits:16 (load_half_u t addr)

let load_word t addr =
  check t addr 4;
  let off = addr land page_mask in
  if in_page off 4 then Int32.to_int (Bytes.get_int32_le (page t addr) off)
  else sign_extend ~bits:32 (load_slow t addr 4)

let store_byte t addr v =
  check t addr 1;
  Bytes.unsafe_set (writable_page t addr) (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let store_half t addr v =
  check t addr 2;
  let off = addr land page_mask in
  if in_page off 2 then Bytes.set_uint16_le (writable_page t addr) off (v land 0xFFFF)
  else store_slow t addr 2 v

let store_word t addr v =
  check t addr 4;
  let off = addr land page_mask in
  if in_page off 4 then Bytes.set_int32_le (writable_page t addr) off (Int32.of_int v)
  else store_slow t addr 4 v

let load_float32 t addr =
  check t addr 4;
  let off = addr land page_mask in
  if in_page off 4 then Int32.float_of_bits (Bytes.get_int32_le (page t addr) off)
  else Int32.float_of_bits (Int32.of_int (load_slow t addr 4))

let store_float32 t addr f =
  check t addr 4;
  let off = addr land page_mask in
  let bits = Int32.bits_of_float f in
  if in_page off 4 then Bytes.set_int32_le (writable_page t addr) off bits
  else store_slow t addr 4 (Int32.to_int bits)

let own p = if p == zero_page then p else Bytes.copy p

let copy t = { size = t.size; pages = Array.map own t.pages }

let restore t ~from =
  if t.size <> from.size then invalid_arg "Main_memory.restore: size mismatch";
  Array.iteri
    (fun i src ->
      let dst = t.pages.(i) in
      if src == zero_page || dst == zero_page then t.pages.(i) <- own src
      else Bytes.blit src 0 dst 0 page_size)
    from.pages

(* A page written back to all zeros equals the zero page. *)
let same_page a b = a == b || Bytes.equal a b

let equal a b =
  a.size = b.size
  &&
  let rec go i = i = Array.length a.pages || (same_page a.pages.(i) b.pages.(i) && go (i + 1)) in
  go 0

(* FNV-1a with the offset basis truncated to OCaml's 63-bit int, folded to a
   non-negative value so it prints identically on every 64-bit platform.
   A zero byte only multiplies by the prime, so [n] zero bytes multiply by
   prime^n; [int] arithmetic wraps, so the power folds exactly. *)
let fnv_prime = 0x100000001b3

let prime_pow n =
  let r = ref 1 in
  for _ = 1 to n do
    r := !r * fnv_prime
  done;
  !r

let zero_page_factor = prime_pow page_size

let checksum t =
  let h = ref 0x3bf29ce484222325 in
  Array.iteri
    (fun i p ->
      let len = min page_size (t.size - (i lsl page_bits)) in
      if p == zero_page then
        h := !h * (if len = page_size then zero_page_factor else prime_pow len)
      else
        for j = 0 to len - 1 do
          h := (!h lxor Char.code (Bytes.unsafe_get p j)) * fnv_prime
        done)
    t.pages;
  !h land max_int

let blit_words t addr ws =
  for i = 0 to Array.length ws - 1 do
    store_word t (addr + (4 * i)) (Array.unsafe_get ws i)
  done

let blit_floats t addr fs =
  for i = 0 to Array.length fs - 1 do
    store_float32 t (addr + (4 * i)) (Array.unsafe_get fs i)
  done

let read_words t addr n = Array.init n (fun i -> load_word t (addr + (4 * i)))
