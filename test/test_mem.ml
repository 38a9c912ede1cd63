let check = Alcotest.check
let accesses c = Cache.hits c + Cache.misses c

(* -------------------- main memory -------------------- *)

let mem_endianness () =
  let m = Main_memory.create ~size:4096 () in
  Main_memory.store_word m 0 0x12345678;
  check Alcotest.int "little-endian byte 0" 0x78 (Main_memory.load_byte_u m 0);
  check Alcotest.int "little-endian byte 3" 0x12 (Main_memory.load_byte_u m 3);
  check Alcotest.int "half" 0x5678 (Main_memory.load_half_u m 0)

let mem_sign_extension () =
  let m = Main_memory.create ~size:4096 () in
  Main_memory.store_word m 0 (-1);
  check Alcotest.int "signed byte" (-1) (Main_memory.load_byte m 0);
  check Alcotest.int "unsigned byte" 0xFF (Main_memory.load_byte_u m 0);
  check Alcotest.int "signed half" (-1) (Main_memory.load_half m 0);
  check Alcotest.int "signed word" (-1) (Main_memory.load_word m 0)

let mem_bounds () =
  let m = Main_memory.create ~size:64 () in
  Alcotest.check_raises "oob word"
    (Invalid_argument "Main_memory: access at 0x3d width 4 out of bounds") (fun () ->
      ignore (Main_memory.load_word m 61));
  (match Main_memory.store_word m (-4) 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative address accepted")

let mem_float_roundtrip () =
  let m = Main_memory.create ~size:64 () in
  Main_memory.store_float32 m 0 1.5;
  check (Alcotest.float 0.0) "exact" 1.5 (Main_memory.load_float32 m 0);
  Main_memory.store_float32 m 4 0.1;
  check (Alcotest.float 0.0) "rounded consistently" (Machine.round32 0.1)
    (Main_memory.load_float32 m 4)

let mem_copy_equal () =
  let m = Main_memory.create ~size:65536 () in
  Main_memory.store_word m 8 42;
  let c = Main_memory.copy m in
  check Alcotest.bool "equal" true (Main_memory.equal m c);
  Main_memory.store_word c 8 43;
  check Alcotest.bool "diverged" false (Main_memory.equal m c);
  check Alcotest.int "original untouched" 42 (Main_memory.load_word m 8);
  let c = Main_memory.copy m in
  Main_memory.store_word m 8 44;
  Main_memory.store_word m 40000 9;
  check Alcotest.int "copy keeps its stored page" 42 (Main_memory.load_word c 8);
  check Alcotest.int "copy keeps its untouched page" 0 (Main_memory.load_word c 40000)

let mem_blit_read () =
  let m = Main_memory.create ~size:256 () in
  Main_memory.blit_words m 16 [| 1; -2; 3 |];
  check (Alcotest.array Alcotest.int) "words" [| 1; -2; 3 |] (Main_memory.read_words m 16 3);
  Main_memory.blit_floats m 64 [| 1.0; 2.5 |];
  check (Alcotest.array (Alcotest.float 0.0)) "floats" [| 1.0; 2.5 |]
    (Array.init 2 (fun i -> Main_memory.load_float32 m (64 + (4 * i))))

(* The checksum of untouched memory, pinned to what the byte-at-a-time FNV
   loop gives over 16 MiB of zeros. *)
let mem_untouched_checksum () =
  check Alcotest.int "16 MiB of zeros" 0x2195bf0618222325
    (Main_memory.checksum (Main_memory.create ()))

let mem_zero_stores () =
  let size = 65536 in
  let fresh = Main_memory.create ~size () in
  let m = Main_memory.create ~size () in
  Main_memory.store_word m 4096 0;
  Main_memory.store_byte m 8195 0;
  Main_memory.store_word m 20000 77;
  Main_memory.store_word m 20000 0;
  check Alcotest.bool "equal to fresh" true (Main_memory.equal m fresh);
  check Alcotest.bool "fresh equal to it" true (Main_memory.equal fresh m);
  check Alcotest.int "same checksum" (Main_memory.checksum fresh) (Main_memory.checksum m);
  check Alcotest.bool "sizes differ" false
    (Main_memory.equal fresh (Main_memory.create ~size:(size + 1) ()))

let mem_restore_isolated () =
  let checkpoint = Main_memory.create ~size:65536 () in
  Main_memory.store_word checkpoint 8 1;
  let m = Main_memory.create ~size:65536 () in
  Main_memory.store_word m 40000 5;
  Main_memory.restore m ~from:checkpoint;
  check Alcotest.int "restored" 1 (Main_memory.load_word m 8);
  check Alcotest.int "page cleared" 0 (Main_memory.load_word m 40000);
  Main_memory.store_word m 8 2;
  check Alcotest.int "checkpoint not shared" 1 (Main_memory.load_word checkpoint 8);
  Main_memory.restore m ~from:checkpoint;
  check Alcotest.bool "equal to checkpoint" true (Main_memory.equal m checkpoint)

(* Differential property: the paged memory against a flat [Bytes] model,
   over random loads and stores of every width (page-straddling and
   out-of-bounds addresses included), copy, restore, equal and checksum. *)

type width = W8 | W16 | W32 | F32

type mem_op =
  | Store of width * int * int
  | Store_f of int * float
  | Load of width * bool * int
  | Snapshot
  | Restore
  | Compare

let width_bytes = function W8 -> 1 | W16 -> 2 | W32 | F32 -> 4
let width_name = function W8 -> "8" | W16 -> "16" | W32 -> "32" | F32 -> "f32"

let print_op = function
  | Store (w, a, v) -> Printf.sprintf "st%s 0x%x %d" (width_name w) a v
  | Store_f (a, f) -> Printf.sprintf "stf32 0x%x %h" a f
  | Load (w, signed, a) -> Printf.sprintf "ld%s%s 0x%x" (width_name w) (if signed then "" else "u") a
  | Snapshot -> "copy"
  | Restore -> "restore"
  | Compare -> "compare"

let print_case (size, ops) =
  Printf.sprintf "size %d: %s" size (String.concat "; " (List.map print_op ops))

let gen_case =
  let open QCheck2.Gen in
  (* 16 MiB cases cost the most (the model allocates and hashes it all), so
     they are drawn less often. *)
  frequencyl [ (2, 64); (2, 4096); (2, 4097); (2, 65536); (1, 16 * 1024 * 1024) ]
  >>= fun size ->
  let pages = (size + 4095) / 4096 in
  let addr =
    frequency
      [
        (3, int_range 0 (min size 512 - 1));
        (2, int_range 0 (size - 1));
        ( 3,
          (* near a page boundary, so wide accesses straddle it *)
          oneof [ int_range 0 (pages - 1); oneofl [ 1; pages - 1 ] ] >>= fun p ->
          int_range (-4) 3 >|= fun d -> (p * 4096) + d );
        (1, int_range (size - 6) (size + 4));
        (1, int_range (-8) (-1));
      ]
  in
  let width = oneofl [ W8; W16; W32; F32 ] in
  let float32 =
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e-45; 3.5e38; 1e40 ];
      ]
  in
  let op =
    frequency
      [
        (4, map3 (fun w a v -> Store (w, a, v)) width addr int);
        (1, map2 (fun a f -> Store_f (a, f)) addr float32);
        (5, map3 (fun w s a -> Load (w, s, a)) width bool addr);
        (1, return Snapshot);
        (1, return Restore);
        (1, return Compare);
      ]
  in
  list_size (int_range 1 40) op >|= fun ops -> (size, ops)

let fnv_bytes b =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  !h land max_int

(* The outcome of one access, as bits: a value or the bounds error. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let paged_vs_flat (size, ops) =
  let m = Main_memory.create ~size () in
  let flat = Bytes.make size '\000' in
  let saved = ref None in
  let in_bounds a w f =
    if a < 0 || a + w > size then
      invalid_arg (Printf.sprintf "Main_memory: access at 0x%x width %d out of bounds" a w)
    else f ()
  in
  let agree what got want =
    if got <> want then Alcotest.failf "%s diverges from the flat model" what
  in
  let compare_saved () =
    match !saved with
    | None -> ()
    | Some (c, cflat) -> agree "equal" (Main_memory.equal m c) (Bytes.equal flat cflat)
  in
  List.iter
    (function
      | Store (w, a, v) ->
        let paged () =
          match w with
          | W8 -> Main_memory.store_byte m a v
          | W16 -> Main_memory.store_half m a v
          | W32 -> Main_memory.store_word m a v
          | F32 -> Main_memory.store_float32 m a (Int32.float_of_bits (Int32.of_int v))
        in
        let model () =
          in_bounds a (width_bytes w) (fun () ->
              match w with
              | W8 -> Bytes.set_uint8 flat a (v land 0xFF)
              | W16 -> Bytes.set_uint16_le flat a (v land 0xFFFF)
              | W32 -> Bytes.set_int32_le flat a (Int32.of_int v)
              | F32 ->
                Bytes.set_int32_le flat a
                  (Int32.bits_of_float (Int32.float_of_bits (Int32.of_int v))))
        in
        agree (print_op (Store (w, a, v))) (outcome paged) (outcome model)
      | Store_f (a, f) ->
        let paged () = Main_memory.store_float32 m a f in
        let model () =
          in_bounds a 4 (fun () -> Bytes.set_int32_le flat a (Int32.bits_of_float f))
        in
        agree (print_op (Store_f (a, f))) (outcome paged) (outcome model)
      | Load (w, signed, a) ->
        let bits_of_float f = Int64.to_int (Int64.bits_of_float f) in
        let paged () =
          match (w, signed) with
          | W8, true -> Main_memory.load_byte m a
          | W8, false -> Main_memory.load_byte_u m a
          | W16, true -> Main_memory.load_half m a
          | W16, false -> Main_memory.load_half_u m a
          | W32, _ -> Main_memory.load_word m a
          | F32, _ -> bits_of_float (Main_memory.load_float32 m a)
        in
        let model () =
          in_bounds a (width_bytes w) (fun () ->
              match (w, signed) with
              | W8, true -> Bytes.get_int8 flat a
              | W8, false -> Bytes.get_uint8 flat a
              | W16, true -> Bytes.get_int16_le flat a
              | W16, false -> Bytes.get_uint16_le flat a
              | W32, _ -> Int32.to_int (Bytes.get_int32_le flat a)
              | F32, _ -> bits_of_float (Int32.float_of_bits (Bytes.get_int32_le flat a)))
        in
        agree (print_op (Load (w, signed, a))) (outcome paged) (outcome model)
      | Snapshot -> saved := Some (Main_memory.copy m, Bytes.copy flat)
      | Restore -> (
        match !saved with
        | None -> ()
        | Some (c, cflat) ->
          Main_memory.restore m ~from:c;
          Bytes.blit cflat 0 flat 0 size)
      | Compare -> compare_saved ())
    ops;
  (* Checksums only once per case: the model's byte loop over 16 MiB is
     the slowest step of the property. *)
  compare_saved ();
  agree "checksum" (Main_memory.checksum m) (fnv_bytes flat);
  Option.iter
    (fun (c, cflat) -> agree "snapshot checksum" (Main_memory.checksum c) (fnv_bytes cflat))
    !saved;
  true

let mem_paged_vs_flat =
  QCheck2.Test.make ~name:"paged memory matches a flat byte model" ~count:150
    ~print:print_case gen_case paged_vs_flat

(* -------------------- cache -------------------- *)

let small_cache () =
  Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64 ~hit_latency:2)

let cache_hit_after_miss () =
  let c = small_cache () in
  check Alcotest.bool "first is miss" true (Cache.access c 0 ~write:false <> Cache.Hit);
  check Alcotest.bool "second hits" true (Cache.access c 0 ~write:false = Cache.Hit);
  check Alcotest.bool "same line hits" true (Cache.access c 63 ~write:false = Cache.Hit);
  check Alcotest.bool "next line misses" true (Cache.access c 64 ~write:false <> Cache.Hit)

let cache_lru_eviction () =
  let c = small_cache () in
  (* 8 sets x 2 ways; addresses 0, 8*64, 16*64 map to set 0. *)
  let a0 = 0 and a1 = 8 * 64 and a2 = 16 * 64 in
  ignore (Cache.access c a0 ~write:false);
  ignore (Cache.access c a1 ~write:false);
  ignore (Cache.access c a0 ~write:false); (* a0 freshly used; a1 is LRU *)
  ignore (Cache.access c a2 ~write:false); (* evicts a1 *)
  check Alcotest.bool "a0 survived" true (Cache.probe c a0);
  check Alcotest.bool "a1 evicted" false (Cache.probe c a1);
  check Alcotest.bool "a2 present" true (Cache.probe c a2)

let cache_dirty_writeback () =
  let c = small_cache () in
  ignore (Cache.access c 0 ~write:true);
  ignore (Cache.access c (8 * 64) ~write:false);
  (match Cache.access c (16 * 64) ~write:false with
  | Cache.Miss_dirty -> ()
  | _ -> Alcotest.fail "expected a dirty eviction");
  check Alcotest.int "writeback counted" 1 (Cache.writebacks c)

let cache_stats_conservation () =
  let c = small_cache () in
  let rng = Prng.create 5 in
  for _ = 1 to 500 do
    ignore (Cache.access c (Prng.int rng 8192) ~write:(Prng.bool rng))
  done;
  let reg = Stats.registry () in
  Cache.register_stats c (Stats.group reg "l1");
  let s = Stats.snapshot reg in
  check Alcotest.(option int) "hits + misses = accesses" (Some 500)
    (Stats.find_int s "l1.accesses");
  check Alcotest.bool "hit rate in [0,1]" true
    (match Stats.find s "l1.hit_rate" with
     | Some (Stats.VFloat r) -> r >= 0.0 && r <= 1.0
     | _ -> false);
  Cache.reset_stats c;
  check Alcotest.int "stats reset" 0 (accesses c)

let cache_probe_no_side_effect () =
  let c = small_cache () in
  check Alcotest.bool "cold probe" false (Cache.probe c 0);
  check Alcotest.int "probe counts nothing" 0 (accesses c)

let cache_invalidate () =
  let c = small_cache () in
  ignore (Cache.access c 0 ~write:false);
  Cache.invalidate_all c;
  check Alcotest.bool "gone" false (Cache.probe c 0)

let cache_config_validation () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.config: line size must be a power of two") (fun () ->
      ignore (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:48 ~hit_latency:1))

(* The flat reference for the set-lazy cache: the structure-of-arrays
   implementation it replaced, with every line allocated up front and
   indexed [set * ways + way]. *)
module Flat_cache = struct
  type t = {
    ways : int;
    tags : int array;
    meta : int array;
    lru : int array;
    set_mask : int;
    line_shift : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable writebacks : int;
  }

  let create (cfg : Cache.config) =
    let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
    let nlines = nsets * cfg.ways in
    let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
    {
      ways = cfg.ways;
      tags = Array.make nlines 0;
      meta = Array.make nlines 0;
      lru = Array.make nlines 0;
      set_mask = nsets - 1;
      line_shift = log2 cfg.line_bytes 0;
      clock = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
    }

  let find_way t base tag =
    let rec go i =
      if i = t.ways then -1
      else if t.meta.(base + i) land 1 <> 0 && t.tags.(base + i) = tag then base + i
      else go (i + 1)
    in
    go 0

  let access t addr ~write =
    t.clock <- t.clock + 1;
    let line_addr = addr lsr t.line_shift in
    let base = (line_addr land t.set_mask) * t.ways in
    let i = find_way t base line_addr in
    if i >= 0 then begin
      t.hits <- t.hits + 1;
      t.lru.(i) <- t.clock;
      if write then t.meta.(i) <- t.meta.(i) lor 2;
      Cache.Hit
    end
    else begin
      t.misses <- t.misses + 1;
      let best = ref base in
      for k = base to base + t.ways - 1 do
        if t.meta.(k) land 1 = 0 then begin
          if t.meta.(!best) land 1 <> 0 then best := k
        end
        else if t.meta.(!best) land 1 <> 0 && t.lru.(k) < t.lru.(!best) then best := k
      done;
      let v = !best in
      let dirty_eviction = t.meta.(v) land 3 = 3 in
      if dirty_eviction then t.writebacks <- t.writebacks + 1;
      t.tags.(v) <- line_addr;
      t.meta.(v) <- (if write then 3 else 1);
      t.lru.(v) <- t.clock;
      if dirty_eviction then Cache.Miss_dirty else Cache.Miss_clean
    end

  let probe t addr =
    let line_addr = addr lsr t.line_shift in
    find_way t ((line_addr land t.set_mask) * t.ways) line_addr >= 0

  let invalidate_all t = Array.fill t.meta 0 (Array.length t.meta) 0

  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0;
    t.writebacks <- 0

  let reset t =
    invalidate_all t;
    reset_stats t;
    t.clock <- 0
end

type cache_op =
  | Read of int
  | Write of int
  | Probe of int
  | Invalidate_all
  | Reset
  | Reset_stats

let print_cache_op = function
  | Read a -> Printf.sprintf "rd 0x%x" a
  | Write a -> Printf.sprintf "wr 0x%x" a
  | Probe a -> Printf.sprintf "probe 0x%x" a
  | Invalidate_all -> "invalidate"
  | Reset -> "reset"
  | Reset_stats -> "reset_stats"

let cache_geometries =
  [
    ("tiny", Cache.config ~size_bytes:512 ~ways:2 ~line_bytes:64 ~hit_latency:1);
    ("L1", Hierarchy.default_config.Hierarchy.l1);
    ("L2", Hierarchy.default_config.Hierarchy.l2);
  ]

let gen_cache_case =
  let open QCheck2.Gen in
  oneofl cache_geometries >>= fun (name, (cfg : Cache.config)) ->
  let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  (* Mostly a few hot sets with more tags than ways, so lines hit, evict
     and write back; sometimes any address at all. The cache keeps its
     sets in chunks of 256, so on a larger cache the hot sets sometimes
     straddle a chunk boundary (sets 255-257). *)
  (if nsets > 256 then oneofl [ 0; 255 ] else return 0) >>= fun first ->
  let addr =
    frequency
      [
        ( 5,
          map3
            (fun set tag off -> (((tag * nsets) + first + set) * cfg.line_bytes) + off)
            (int_range 0 (min nsets 3 - 1))
            (int_range 0 (cfg.ways + 2))
            (int_range 0 (cfg.line_bytes - 1)) );
        (1, int_range 0 0x3fff_ffff);
      ]
  in
  let op =
    frequency
      [
        (6, map (fun a -> Read a) addr);
        (4, map (fun a -> Write a) addr);
        (2, map (fun a -> Probe a) addr);
        (1, return Invalidate_all);
        (1, return Reset);
        (1, return Reset_stats);
      ]
  in
  list_size (int_range 1 120) op >|= fun ops -> (name, cfg, ops)

let print_cache_case (name, _, ops) =
  Printf.sprintf "%s: %s" name (String.concat "; " (List.map print_cache_op ops))

let lazy_vs_flat (_, cfg, ops) =
  let c = Cache.create cfg and f = Flat_cache.create cfg in
  List.iter
    (fun op ->
      let what = print_cache_op op in
      (match op with
      | Read a | Write a ->
        let write = match op with Write _ -> true | _ -> false in
        if Cache.access c a ~write <> Flat_cache.access f a ~write then
          Alcotest.failf "%s: outcome diverges from the flat model" what
      | Probe a ->
        if Cache.probe c a <> Flat_cache.probe f a then
          Alcotest.failf "%s: probe diverges from the flat model" what
      | Invalidate_all ->
        Cache.invalidate_all c;
        Flat_cache.invalidate_all f
      | Reset ->
        Cache.reset c;
        Flat_cache.reset f
      | Reset_stats ->
        Cache.reset_stats c;
        Flat_cache.reset_stats f);
      if
        (Cache.hits c, Cache.misses c, Cache.writebacks c)
        <> (f.Flat_cache.hits, f.misses, f.writebacks)
      then Alcotest.failf "%s: counters diverge from the flat model" what)
    ops;
  true

let cache_lazy_vs_flat =
  QCheck2.Test.make ~name:"set-lazy cache matches the flat model" ~count:200
    ~print:print_cache_case gen_cache_case lazy_vs_flat

(* -------------------- hierarchy -------------------- *)

let hierarchy_latency_bounds () =
  let h = Hierarchy.create Hierarchy.default_config in
  let rng = Prng.create 13 in
  for _ = 1 to 300 do
    let lat = Hierarchy.load_latency h (Prng.int rng (1 lsl 20)) in
    check Alcotest.bool "within bounds" true
      (lat >= Hierarchy.min_latency h && lat <= Hierarchy.max_latency h)
  done

let hierarchy_warm_hits () =
  let h = Hierarchy.create Hierarchy.default_config in
  let cold = Hierarchy.load_latency h 4096 in
  let warm = Hierarchy.load_latency h 4096 in
  check Alcotest.bool "cold slower than warm" true (cold > warm);
  check Alcotest.int "warm is an L1 hit" (Hierarchy.min_latency h) warm

let hierarchy_shared_l2 () =
  let hs = Hierarchy.create_shared Hierarchy.default_config ~cores:2 in
  (* Core 0 warms the L2; core 1 misses L1 but hits the shared L2. *)
  let cold = Hierarchy.load_latency hs.(0) 8192 in
  let sibling = Hierarchy.load_latency hs.(1) 8192 in
  check Alcotest.bool "sibling faster than DRAM" true (sibling < cold);
  check Alcotest.bool "sibling slower than its own L1" true
    (sibling > Hierarchy.min_latency hs.(1))

let hierarchy_independent () =
  let a = Hierarchy.create Hierarchy.default_config in
  let b = Hierarchy.create Hierarchy.default_config in
  ignore (Hierarchy.store_latency a 4096);
  check Alcotest.int "a counted its access" 1 (accesses (Hierarchy.l2 a));
  check Alcotest.int "b's L1 untouched" 0 (accesses (Hierarchy.l1 b));
  check Alcotest.int "b's L2 untouched" 0 (accesses (Hierarchy.l2 b));
  check Alcotest.bool "line not in b" false (Cache.probe (Hierarchy.l1 b) 4096);
  let hs = Hierarchy.create_shared Hierarchy.default_config ~cores:2 in
  ignore (Hierarchy.load_latency hs.(0) 4096);
  check Alcotest.int "sibling sees the shared L2 miss" 1
    (Cache.misses (Hierarchy.l2 hs.(1)));
  check Alcotest.int "sibling's L1 is private" 0 (accesses (Hierarchy.l1 hs.(1)));
  Hierarchy.release a;
  check Alcotest.int "release resets the counters" 0 (accesses (Hierarchy.l2 a));
  check Alcotest.bool "release drops the lines" false (Cache.probe (Hierarchy.l1 a) 4096)

(* Words allocated per access, on hits and on misses of both levels, clean
   and dirty. Storage is set-lazy, so the first access to a set allocates
   that set's block once; the sets are touched beforehand (1 MiB of
   consecutive lines covers every L1 and L2 set) so the count is the
   access itself. *)
let hierarchy_accesses_allocate_nothing () =
  let h = Hierarchy.create Hierarchy.default_config in
  let mib = 1 lsl 20 in
  for i = 0 to (mib / 64) - 1 do
    ignore (Hierarchy.load_latency h (i * 64))
  done;
  let words name access =
    let n = 4096 in
    let before = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (access i))
    done;
    let per_access = (Gc.minor_words () -. before) /. float_of_int n in
    check (Alcotest.float 0.0) (name ^ ": words per access") 0.0 per_access
  in
  words "L1 hits" (fun i -> Hierarchy.load_latency h ((i land 63) * 64));
  (* A fresh megabyte per pass misses in both levels; stores leave dirty
     lines that the next pass evicts. *)
  words "L2 misses" (fun i -> Hierarchy.load_latency h ((2 * mib) + (i * 64)));
  words "dirtying store misses" (fun i -> Hierarchy.store_latency h ((4 * mib) + (i * 64)));
  words "dirty evictions" (fun i -> Hierarchy.store_latency h ((6 * mib) + (i * 64)));
  check Alcotest.bool "dirty lines were written back" true
    (Cache.writebacks (Hierarchy.l1 h) > 0)

(* A fresh hierarchy allocates nothing on the major heap: the L2's set
   table is chunked and a chunk comes with the first access to one of its
   sets, so a hierarchy per run leaves the major GC nothing to free.
   Promoted words are subtracted, so a minor collection during the loop
   does not count. *)
let hierarchy_create_no_major_words () =
  let direct () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Hierarchy.create Hierarchy.default_config))
  done;
  check (Alcotest.float 0.0) "major words per create" 0.0 ((direct () -. before) /. 100.0)

let hierarchy_sharing_penalty () =
  let solo = Hierarchy.create Hierarchy.default_config in
  let crowd = Hierarchy.create ~sharers:16 Hierarchy.default_config in
  (* First access misses everywhere: the 16-sharer L2 must cost more. *)
  let a = Hierarchy.load_latency solo 0 and b = Hierarchy.load_latency crowd 0 in
  check Alcotest.bool "shared L2 slower" true (b > a)

(* -------------------- contention -------------------- *)

let contention_respects_ready () =
  let c = Contention.create ~capacity:2 in
  let t = Contention.claim c 10.0 in
  check Alcotest.bool "not before ready" true (t >= 10.0)

let contention_serializes_at_capacity () =
  let c = Contention.create ~capacity:1 in
  let t1 = Contention.claim c 5.0 in
  let t2 = Contention.claim c 5.0 in
  let t3 = Contention.claim c 5.0 in
  check Alcotest.bool "distinct cycles" true (t1 < t2 && t2 < t3);
  check Alcotest.int "claim count" 3 (Contention.claimed c)

let contention_late_claim_no_blocking () =
  (* The bug that motivated this module: a claim far in the future must not
     consume earlier idle slots. *)
  let c = Contention.create ~capacity:1 in
  let late = Contention.claim c 100.0 in
  let early = Contention.claim c 0.0 in
  check Alcotest.bool "late claim unaffected" true (late >= 100.0);
  check Alcotest.bool "early slot still free" true (early < 2.0)

let contention_capacity_per_cycle () =
  let c = Contention.create ~capacity:3 in
  let ts = List.init 7 (fun _ -> Contention.claim c 0.0) in
  let at0 = List.length (List.filter (fun t -> t < 1.0) ts) in
  check Alcotest.int "three per cycle" 3 at0

let contention_reset () =
  let c = Contention.create ~capacity:1 in
  ignore (Contention.claim c 0.0);
  Contention.reset c;
  check Alcotest.int "cleared" 0 (Contention.claimed c);
  check Alcotest.bool "slot free again" true (Contention.claim c 0.0 < 1.0)

(* Bookings in visit order: [fold_from] conses each cycle as it reaches
   it, so the reversed accumulator is the order of the walk. *)
let folded c ~from =
  List.rev (Contention.fold_from c ~from (fun cy n acc -> (cy, n) :: acc) [])

let contention_fold_from capacity () =
  (* Claims in arbitrary order at ready times over 1,200 cycles: the window
     outgrows the initial 1,024-slot ring, so the fold also sees the ring
     re-laid by a grow. At capacity 1 every claim takes a fresh cycle; at
     capacity 2 cycles fill in pairs. *)
  let c = Contention.create ~capacity in
  let rng = Prng.create 11 in
  let model = Hashtbl.create 1024 in
  for _ = 1 to 1600 do
    let cycle = int_of_float (Contention.claim c (float_of_int (Prng.int rng 1200))) in
    Hashtbl.replace model cycle (1 + Option.value ~default:0 (Hashtbl.find_opt model cycle))
  done;
  let booked = List.sort compare (List.of_seq (Hashtbl.to_seq model)) in
  let last = List.fold_left (fun m (cy, _) -> max m cy) 0 booked in
  check Alcotest.bool "window wider than the initial ring" true (last >= 1024);
  List.iter
    (fun from ->
      (* [booked] is sorted, so equality also asserts ascending order. *)
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "bookings from %d, ascending" from)
        (List.filter (fun (cy, _) -> cy >= from) booked)
        (folded c ~from))
    [ -5; 0; 1; 377; last / 2; last ];
  List.iter
    (fun from ->
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "nothing booked from %d > last %d" from last)
        [] (folded c ~from))
    [ last + 1; last + 100 ];
  (* A reset table folds empty, and a fresh claim far below the old
     window folds alone. *)
  Contention.reset c;
  check Alcotest.(list (pair int int)) "reset folds empty" [] (folded c ~from:0);
  ignore (Contention.claim c 3.0);
  check Alcotest.(list (pair int int)) "fresh claim folds alone" [ (3, 1) ]
    (folded c ~from:0)

(* The naive model of a contention table: cycle -> claims, and a linear
   scan for the first cycle with spare capacity. *)
type contention_op = Claim of int * int  (* floor advance, start - floor *) | Reset

let print_contention_case (capacity, ops) =
  Printf.sprintf "capacity %d: %s" capacity
    (String.concat "; "
       (List.map
          (function
            | Claim (adv, off) -> Printf.sprintf "+%d@%d" adv off
            | Reset -> "reset")
          ops))

let gen_contention_case =
  let open QCheck2.Gen in
  (* Mostly short offsets over a slowly advancing floor, so claims pile
     into full runs; sometimes a far claim or a long floor jump, so the
     window outgrows the ring and retires or grows, at times past the
     size [reset] keeps. *)
  let claim =
    map2
      (fun adv off -> Claim (adv, off))
      (frequency [ (8, int_range 0 3); (1, int_range 0 400) ])
      (frequency [ (8, int_range 0 24); (1, int_range 0 12_000) ])
  in
  pair (int_range 1 3)
    (list_size (int_range 1 400) (frequency [ (40, claim); (1, return Reset) ]))

let ring_vs_model (capacity, ops) =
  let c = Contention.create ~capacity in
  let model = Hashtbl.create 64 in
  let floor = ref 0 and claims = ref 0 in
  let count cy = Option.value ~default:0 (Hashtbl.find_opt model cy) in
  let agree_fold what =
    let expect =
      Hashtbl.fold (fun cy n acc -> if cy >= !floor then (cy, n) :: acc else acc) model []
      |> List.sort compare
    in
    if folded c ~from:!floor <> expect then
      Alcotest.failf "%s: fold_from ~from:%d diverges from the model" what !floor
  in
  List.iteri
    (fun k op ->
      match op with
      | Reset ->
        Contention.reset c;
        Hashtbl.reset model;
        floor := 0;
        claims := 0
      | Claim (adv, off) ->
        floor := !floor + adv;
        let start = !floor + off in
        let expect = ref start in
        while count !expect >= capacity do
          incr expect
        done;
        let used = count !expect in
        Hashtbl.replace model !expect (used + 1);
        incr claims;
        let what = Printf.sprintf "claim %d at %d (floor %d)" k start !floor in
        let got = Contention.claim_cycle c ~floor:!floor start in
        if got <> !expect then
          Alcotest.failf "%s: booked %d, the model %d" what got !expect;
        if Contention.last_slot c <> used then
          Alcotest.failf "%s: sub-slot %d, the model %d" what
            (Contention.last_slot c) used;
        if Contention.claimed c <> !claims then
          Alcotest.failf "%s: %d claimed, the model %d" what
            (Contention.claimed c) !claims;
        if Contention.busy_cycles c <> Hashtbl.length model then
          Alcotest.failf "%s: %d busy cycles, the model %d" what
            (Contention.busy_cycles c) (Hashtbl.length model);
        if k mod 37 = 0 then agree_fold what)
    ops;
  agree_fold "end of case";
  true

let contention_ring_vs_model =
  QCheck2.Test.make ~name:"ring under an advancing floor matches the naive model"
    ~count:200 ~print:print_contention_case gen_contention_case ring_vs_model

(* An exactly saturated port (two claims per cycle of floor advance, at
   capacity 2) books 50,000 cycles. Retiring behind the floor keeps the
   ring at its backlog's size; a table that kept every cycle would hold
   them all, which no cycle count would notice. *)
let contention_ring_stays_bounded () =
  let c = Contention.create ~capacity:2 in
  for i = 0 to 99_999 do
    let floor = i / 2 in
    ignore (Contention.claim_cycle c ~floor (floor + (i * 7 mod 5)))
  done;
  check Alcotest.int "claimed" 100_000 (Contention.claimed c);
  let words = Obj.reachable_words (Obj.repr c) in
  if words > 8192 then
    Alcotest.failf "ring holds %d words after 100k saturated claims" words

let contention_floor_guards () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must raise Invalid_argument" what
  in
  let c = Contention.create ~capacity:1 in
  raises "a claim below its floor" (fun () -> Contention.claim_cycle c ~floor:10 9);
  (* One claim per cycle up past the initial ring forces a retirement. *)
  for cy = 0 to 1500 do
    ignore (Contention.claim_cycle c ~floor:cy cy)
  done;
  raises "a claim below a retired floor" (fun () ->
      Contention.claim_cycle c ~floor:0 5);
  raises "an unfloored claim below a retired floor" (fun () ->
      Contention.claim c 5.0);
  check Alcotest.int "a claim at the floor still books" 1501
    (Contention.claim_cycle c ~floor:1500 1500)

let suites =
  [
    ( "main_memory",
      [
        Alcotest.test_case "endianness" `Quick mem_endianness;
        Alcotest.test_case "sign extension" `Quick mem_sign_extension;
        Alcotest.test_case "bounds" `Quick mem_bounds;
        Alcotest.test_case "float roundtrip" `Quick mem_float_roundtrip;
        Alcotest.test_case "copy/equal" `Quick mem_copy_equal;
        Alcotest.test_case "blit/read" `Quick mem_blit_read;
        Alcotest.test_case "untouched checksum" `Quick mem_untouched_checksum;
        Alcotest.test_case "zero stores equal fresh" `Quick mem_zero_stores;
        Alcotest.test_case "restore isolated from checkpoint" `Quick mem_restore_isolated;
        QCheck_alcotest.to_alcotest mem_paged_vs_flat;
      ] );
    ( "cache",
      [
        Alcotest.test_case "hit after miss" `Quick cache_hit_after_miss;
        Alcotest.test_case "LRU eviction" `Quick cache_lru_eviction;
        Alcotest.test_case "dirty writeback" `Quick cache_dirty_writeback;
        Alcotest.test_case "stats conservation" `Quick cache_stats_conservation;
        Alcotest.test_case "probe side-effect-free" `Quick cache_probe_no_side_effect;
        Alcotest.test_case "invalidate" `Quick cache_invalidate;
        Alcotest.test_case "config validation" `Quick cache_config_validation;
        QCheck_alcotest.to_alcotest cache_lazy_vs_flat;
      ] );
    ( "hierarchy",
      [
        Alcotest.test_case "latency bounds" `Quick hierarchy_latency_bounds;
        Alcotest.test_case "warm hits" `Quick hierarchy_warm_hits;
        Alcotest.test_case "shared L2" `Quick hierarchy_shared_l2;
        Alcotest.test_case "sharing penalty" `Quick hierarchy_sharing_penalty;
        Alcotest.test_case "independent instances" `Quick hierarchy_independent;
        Alcotest.test_case "accesses allocate nothing" `Quick
          hierarchy_accesses_allocate_nothing;
        Alcotest.test_case "create allocates no major words" `Quick
          hierarchy_create_no_major_words;
      ] );
    ( "contention",
      [
        Alcotest.test_case "respects ready" `Quick contention_respects_ready;
        Alcotest.test_case "serializes at capacity" `Quick contention_serializes_at_capacity;
        Alcotest.test_case "late claim no blocking" `Quick contention_late_claim_no_blocking;
        Alcotest.test_case "capacity per cycle" `Quick contention_capacity_per_cycle;
        Alcotest.test_case "reset" `Quick contention_reset;
        Alcotest.test_case "fold_from" `Quick (contention_fold_from 2);
        Alcotest.test_case "fold_from capacity 1" `Quick (contention_fold_from 1);
        QCheck_alcotest.to_alcotest contention_ring_vs_model;
        Alcotest.test_case "ring stays bounded under a saturated port" `Quick
          contention_ring_stays_bounded;
        Alcotest.test_case "claims below the floor raise" `Quick
          contention_floor_guards;
      ] );
  ]
