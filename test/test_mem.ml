let check = Alcotest.check

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
    (Main_memory.read_floats m 64 2)

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
  | Cache.Miss { dirty_eviction = true } -> ()
  | _ -> Alcotest.fail "expected a dirty eviction");
  check Alcotest.int "writeback counted" 1 (Cache.writebacks c)

let cache_stats_conservation () =
  let c = small_cache () in
  let rng = Prng.create 5 in
  for _ = 1 to 500 do
    ignore (Cache.access c (Prng.int rng 8192) ~write:(Prng.bool rng))
  done;
  check Alcotest.int "hits + misses = accesses" 500 (Cache.accesses c);
  check Alcotest.bool "hit rate in [0,1]" true
    (Cache.hit_rate c >= 0.0 && Cache.hit_rate c <= 1.0);
  Cache.reset_stats c;
  check Alcotest.int "stats reset" 0 (Cache.accesses c)

let cache_probe_no_side_effect () =
  let c = small_cache () in
  check Alcotest.bool "cold probe" false (Cache.probe c 0);
  check Alcotest.int "probe counts nothing" 0 (Cache.accesses c)

let cache_invalidate () =
  let c = small_cache () in
  ignore (Cache.access c 0 ~write:false);
  Cache.invalidate_all c;
  check Alcotest.bool "gone" false (Cache.probe c 0)

let cache_config_validation () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.config: line size must be a power of two") (fun () ->
      ignore (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:48 ~hit_latency:1))

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
      ] );
    ( "hierarchy",
      [
        Alcotest.test_case "latency bounds" `Quick hierarchy_latency_bounds;
        Alcotest.test_case "warm hits" `Quick hierarchy_warm_hits;
        Alcotest.test_case "shared L2" `Quick hierarchy_shared_l2;
        Alcotest.test_case "sharing penalty" `Quick hierarchy_sharing_penalty;
      ] );
    ( "contention",
      [
        Alcotest.test_case "respects ready" `Quick contention_respects_ready;
        Alcotest.test_case "serializes at capacity" `Quick contention_serializes_at_capacity;
        Alcotest.test_case "late claim no blocking" `Quick contention_late_claim_no_blocking;
        Alcotest.test_case "capacity per cycle" `Quick contention_capacity_per_cycle;
        Alcotest.test_case "reset" `Quick contention_reset;
      ] );
  ]
