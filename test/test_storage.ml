module Backend = Riot_storage.Backend
module Io_stats = Riot_storage.Io_stats
module Daf = Riot_storage.Daf
module Lab_tree = Riot_storage.Lab_tree
module Block_store = Riot_storage.Block_store
module Buffer_pool = Riot_storage.Buffer_pool
module Config = Riot_ir.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let layout ~grid ~block =
  { Config.grid; block_elems = block; elem_size = 8 }

let tmpdir () = Filename.temp_file "riot" "" |> fun f -> Sys.remove f; f

let sim () = Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0.01 ()

let payload layout seed =
  let n = Config.block_elems_total layout in
  Array.init n (fun i -> float_of_int (seed * 1000) +. float_of_int i)

let bytes_of_floats a =
  let b = Bytes.create (Array.length a * 8) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v)) a;
  b

let floats_of_bytes b =
  Array.init (Bytes.length b / 8) (fun i -> Int64.float_of_bits (Bytes.get_int64_le b (i * 8)))

(* --- Backends ------------------------------------------------------------ *)

let test_sim_backend_roundtrip () =
  let b = sim () in
  b.Backend.pwrite ~name:"x" ~off:100 ~data:(Bytes.of_string "hello");
  let r = b.Backend.pread ~name:"x" ~off:100 ~len:5 in
  Alcotest.(check string) "roundtrip" "hello" (Bytes.to_string r);
  check_int "size" 105 (b.Backend.size ~name:"x");
  (* Overwrite in the middle. *)
  b.Backend.pwrite ~name:"x" ~off:102 ~data:(Bytes.of_string "LL");
  Alcotest.(check string) "middle overwrite" "heLLo"
    (Bytes.to_string (b.Backend.pread ~name:"x" ~off:100 ~len:5));
  check_int "reads counted" 2 b.Backend.stats.Io_stats.reads;
  check_int "writes counted" 2 b.Backend.stats.Io_stats.writes;
  check_bool "virtual time advanced" true (b.Backend.stats.Io_stats.virtual_time > 0.)

let test_file_backend_roundtrip () =
  let root = tmpdir () in
  let b = Backend.file ~root in
  b.Backend.pwrite ~name:"y" ~off:0 ~data:(Bytes.of_string "abcdef");
  b.Backend.pwrite ~name:"y" ~off:2 ~data:(Bytes.of_string "XY");
  Alcotest.(check string) "file roundtrip" "abXYef"
    (Bytes.to_string (b.Backend.pread ~name:"y" ~off:0 ~len:6));
  check_int "bytes written" 8 b.Backend.stats.Io_stats.bytes_written;
  (* Reading past EOF yields zeroes. *)
  let r = b.Backend.pread ~name:"y" ~off:4 ~len:8 in
  Alcotest.(check string) "tail" "ef" (Bytes.to_string (Bytes.sub r 0 2));
  check_bool "zero fill" true (Bytes.get r 7 = '\000');
  b.Backend.close ()

let test_discard_io_counts () =
  let b = sim () in
  b.Backend.read_discard ~name:"z" ~off:0 ~len:1000;
  b.Backend.write_discard ~name:"z" ~off:0 ~len:500;
  check_int "bytes read" 1000 b.Backend.stats.Io_stats.bytes_read;
  check_int "bytes written" 500 b.Backend.stats.Io_stats.bytes_written;
  check_int "size grows" 500 (b.Backend.size ~name:"z")

(* --- DAF ------------------------------------------------------------------ *)

let test_daf_roundtrip () =
  let l = layout ~grid:[| 3; 4 |] ~block:[| 5; 7 |] in
  let b = sim () in
  let d = Daf.create b ~name:"A" ~layout:l in
  let p12 = payload l 12 and p00 = payload l 1 in
  Daf.write_block d [ 1; 2 ] (bytes_of_floats p12);
  Daf.write_block d [ 0; 0 ] (bytes_of_floats p00);
  check_bool "block roundtrip" true (floats_of_bytes (Daf.read_block d [ 1; 2 ]) = p12);
  check_bool "second block" true (floats_of_bytes (Daf.read_block d [ 0; 0 ]) = p00);
  (* Unwritten blocks are zeroes. *)
  check_bool "unwritten zero" true
    (Array.for_all (( = ) 0.) (floats_of_bytes (Daf.read_block d [ 2; 3 ])));
  check_bool "bad arity" true
    (try ignore (Daf.read_block d [ 1 ]); false with Invalid_argument _ -> true);
  check_bool "out of grid" true
    (try ignore (Daf.read_block d [ 3; 0 ]); false with Invalid_argument _ -> true)

let test_daf_linearization_column_major () =
  let l = layout ~grid:[| 3; 4 |] ~block:[| 1; 1 |] in
  check_int "first column" 1 (Daf.linear_index l [ 1; 0 ]);
  check_int "second column" 3 (Daf.linear_index l [ 0; 1 ]);
  check_int "last" 11 (Daf.linear_index l [ 2; 3 ])

(* --- LAB-tree --------------------------------------------------------------- *)

let test_lab_roundtrip () =
  let l = layout ~grid:[| 4; 4 |] ~block:[| 3; 3 |] in
  let b = sim () in
  let t = Lab_tree.create b ~name:"B" ~layout:l in
  Lab_tree.write_block t [ 2; 1 ] (bytes_of_floats (payload l 21));
  Lab_tree.write_block t [ 0; 3 ] (bytes_of_floats (payload l 3));
  check_bool "roundtrip" true
    (floats_of_bytes (Lab_tree.read_block t [ 2; 1 ]) = payload l 21);
  check_bool "unwritten zero" true
    (Array.for_all (( = ) 0.) (floats_of_bytes (Lab_tree.read_block t [ 1; 1 ])));
  check_int "two blocks" 2 (Lab_tree.block_count t);
  (* Overwrite stays in place. *)
  Lab_tree.write_block t [ 2; 1 ] (bytes_of_floats (payload l 99));
  check_int "still two blocks" 2 (Lab_tree.block_count t);
  check_bool "overwritten" true
    (floats_of_bytes (Lab_tree.read_block t [ 2; 1 ]) = payload l 99)

let test_lab_splits () =
  (* Enough keys to force leaf and internal splits (max 64 per node). *)
  let l = layout ~grid:[| 100; 100 |] ~block:[| 2; 2 |] in
  let b = sim () in
  let t = Lab_tree.create b ~name:"C" ~layout:l in
  let blocks = List.init 500 (fun i -> [ i mod 100; i / 100 ]) in
  List.iteri
    (fun i idx -> Lab_tree.write_block t idx (bytes_of_floats (payload l i)))
    blocks;
  check_int "all stored" 500 (Lab_tree.block_count t);
  check_bool "tree grew" true (Lab_tree.depth t >= 2);
  List.iteri
    (fun i idx ->
      if floats_of_bytes (Lab_tree.read_block t idx) <> payload l i then
        Alcotest.failf "block %d corrupted after splits" i)
    blocks

let test_lab_persistence () =
  (* Re-open from the same backend: meta page must restore the tree. *)
  let l = layout ~grid:[| 4; 4 |] ~block:[| 2; 2 |] in
  let b = sim () in
  let t = Lab_tree.create b ~name:"P" ~layout:l in
  Lab_tree.write_block t [ 3; 3 ] (bytes_of_floats (payload l 7));
  let t2 = Lab_tree.create b ~name:"P" ~layout:l in
  check_bool "reopened" true
    (floats_of_bytes (Lab_tree.read_block t2 [ 3; 3 ]) = payload l 7)

let test_formats_agree () =
  let l = layout ~grid:[| 3; 3 |] ~block:[| 4; 4 |] in
  let b = sim () in
  let d = Block_store.create b ~format:Block_store.Daf_format ~name:"D1" ~layout:l in
  let t = Block_store.create b ~format:Block_store.Lab_format ~name:"D2" ~layout:l in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let p = payload l ((i * 3) + j) in
      Block_store.write_floats d [ i; j ] p;
      Block_store.write_floats t [ i; j ] p
    done
  done;
  for i = 0 to 2 do
    for j = 0 to 2 do
      if Block_store.read_floats d [ i; j ] <> Block_store.read_floats t [ i; j ] then
        Alcotest.failf "formats disagree at (%d,%d)" i j
    done
  done

(* The block codec stores each double's IEEE bits little-endian: NaN
   payloads (quiet, signalling, negative), signed zeros, infinities and
   subnormals must survive a write_floats/read_floats round trip bit for bit,
   on disk in the same bytes an independent encoder produces. *)
let codec_specials =
  [| Int64.float_of_bits 0x7ff8000000000000L; Int64.float_of_bits 0x7ff0000000000001L;
     Int64.float_of_bits 0xfff80000deadbeefL; Int64.float_of_bits 0x7ff4000000abcdefL;
     0.; -0.; Float.infinity; Float.neg_infinity; 4.9e-324; -4.9e-324;
     2.2250738585072009e-308; Float.min_float; Float.max_float; -1.5; Float.pi |]

let test_codec_bit_exact () =
  let l = layout ~grid:[| 2; 2 |] ~block:[| 3; 5 |] in
  let p = codec_specials in
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (label, b) ->
      let st = Block_store.create b ~format:Block_store.Daf_format ~name:"C" ~layout:l in
      Block_store.write_floats st [ 1; 0 ] p;
      check_bool (label ^ " encoded bytes") true
        (Bytes.equal (Block_store.read_block st [ 1; 0 ]) (bytes_of_floats p));
      check_bool (label ^ " decoded bits") true
        (bits (Block_store.read_floats st [ 1; 0 ]) = bits p);
      b.Backend.close ())
    [ ("sim", sim ()); ("file", Backend.file ~root:(tmpdir ())) ]

(* The per-element codec loops that the bulk copy replaced, frozen as the
   reference encoder and decoder. *)
let ref_get_floats b ~off n =
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Int64.float_of_bits (Bytes.get_int64_le b (off + (8 * i))))
  done;
  a

let ref_set_floats b ~off (a : float array) =
  for i = 0 to Array.length a - 1 do
    Bytes.set_int64_le b (off + (8 * i)) (Int64.bits_of_float (Array.unsafe_get a i))
  done

let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Random bit patterns and the specials, at every byte offset 0..7 of a
   buffer with bytes to spare on both sides: both directions agree with the
   reference bit for bit, and the encoder leaves the bytes around the range
   as they were. *)
let test_codec_matches_reference () =
  let st = Random.State.make [| 22 |] in
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun n ->
      let a =
        Array.init n (fun i ->
            if i < Array.length codec_specials then codec_specials.(i)
            else Int64.float_of_bits (Random.State.bits64 st))
      in
      for off = 0 to 7 do
        let len = off + (8 * n) + 5 in
        let src = random_bytes st len in
        let label = Printf.sprintf "n=%d off=%d" n off in
        check_bool (label ^ " decode") true
          (bits (Block_store.get_floats src ~off n) = bits (ref_get_floats src ~off n));
        let got = Bytes.copy src and want = Bytes.copy src in
        Block_store.set_floats got ~off a;
        ref_set_floats want ~off a;
        check_bool (label ^ " encode") true (Bytes.equal got want)
      done)
    [ 0; 1; 2; 15; 64; 1000 ];
  (* A zero-length range is valid at either end of the buffer. *)
  let b = random_bytes st 16 in
  List.iter
    (fun off ->
      check_int "empty decode" 0 (Array.length (Block_store.get_floats b ~off 0));
      Block_store.set_floats b ~off [||])
    [ 0; 9; 16 ]

let test_codec_rejects_bad_ranges () =
  let b = Bytes.init 20 Char.chr in
  let raises label f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (label, off, n) ->
      raises ("get " ^ label) (fun () -> Block_store.get_floats b ~off n))
    [ ("negative off", -1, 1); ("negative n", 0, -1); ("past the end", 8, 2);
      ("off past the end", 21, 0); ("huge n", 0, max_int / 4) ];
  List.iter
    (fun (label, off, n) ->
      let before = Bytes.copy b in
      raises ("set " ^ label) (fun () -> Block_store.set_floats b ~off (Array.make n 1.5));
      check_bool ("set " ^ label ^ " leaves the bytes untouched") true (Bytes.equal b before))
    [ ("negative off", -1, 1); ("past the end", 8, 2); ("one byte short", 5, 2);
      ("off past the end", 21, 0) ]

(* write_floats/read_floats round trips through both formats on both
   backends, with random bit patterns filling the block; a block read
   belongs to the caller, so changing it does not change the next read. *)
let test_codec_store_round_trips () =
  let l = layout ~grid:[| 2; 3 |] ~block:[| 4; 9 |] in
  let st = Random.State.make [| 7 |] in
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (label, b) ->
      List.iter
        (fun (fname, format) ->
          let s = Block_store.create b ~format ~name:("R" ^ fname) ~layout:l in
          let blocks = [ [ 0; 0 ]; [ 1; 2 ]; [ 0; 1 ] ] in
          let data =
            List.map
              (fun idx ->
                let p =
                  Array.init (Config.block_elems_total l) (fun i ->
                      if i < Array.length codec_specials then codec_specials.(i)
                      else Int64.float_of_bits (Random.State.bits64 st))
                in
                Block_store.write_floats s idx p;
                (idx, p))
              blocks
          in
          List.iter
            (fun (idx, p) ->
              let where = Printf.sprintf "%s %s" label fname in
              check_bool (where ^ " bits") true (bits (Block_store.read_floats s idx) = bits p);
              let raw = Block_store.read_block s idx in
              Bytes.fill raw 0 8 '\255';
              check_bool (where ^ " fresh read") true
                (bits (Block_store.read_floats s idx) = bits p))
            data;
          check_bool (label ^ " " ^ fname ^ " unwritten block is zero") true
            (Array.for_all (fun x -> Int64.bits_of_float x = 0L)
               (Block_store.read_floats s [ 1; 1 ])))
        [ ("daf", Block_store.Daf_format); ("lab", Block_store.Lab_format) ];
      b.Backend.close ())
    [ ("sim", sim ()); ("file", Backend.file ~root:(tmpdir ())) ]

(* --- Buffer pool -------------------------------------------------------------- *)

let mk_store ?(name = "S") b l =
  Block_store.create b ~format:Block_store.Daf_format ~name ~layout:l

(* A pool over the one-column store [s]: block id [i] is its block [[i; 0]]. *)
let mk_pool ?phantom ?stats ?on_evict ~cap_bytes s =
  Buffer_pool.create ?phantom ?stats ?on_evict ~cap_bytes
    ~blocks:(Block_store.layout s).Config.grid.(0)
    ~resolve:(fun i -> (s, [ i; 0 ]))
    ()

let test_pool_hit_miss () =
  let l = layout ~grid:[| 4; 1 |] ~block:[| 2; 2 |] in
  let b = sim () in
  let s = mk_store b l in
  Block_store.write_floats s [ 0; 0 ] (payload l 0);
  let before = b.Backend.stats.Io_stats.reads in
  let pool = mk_pool ~cap_bytes:(10 * 32) s in
  ignore (Buffer_pool.get pool 0);
  ignore (Buffer_pool.get pool 0);
  check_int "one physical read" (before + 1) b.Backend.stats.Io_stats.reads;
  check_bool "contains" true (Buffer_pool.contains pool 0)

let test_pool_eviction_lru () =
  let l = layout ~grid:[| 4; 1 |] ~block:[| 2; 2 |] in
  let bb = Config.block_bytes l in
  let b = sim () in
  let s = mk_store b l in
  let evicted = ref [] in
  let on_evict id ~dirty = evicted := (id, dirty) :: !evicted in
  let pool = mk_pool ~on_evict ~cap_bytes:(2 * bb) s in
  ignore (Buffer_pool.get pool 0);
  ignore (Buffer_pool.get pool 1);
  ignore (Buffer_pool.get pool 0);  (* refresh 0 *)
  ignore (Buffer_pool.get pool 2);  (* evicts LRU = block 1 *)
  check_bool "block 1 evicted" false (Buffer_pool.contains pool 1);
  check_bool "block 0 kept" true (Buffer_pool.contains pool 0);
  check_int "peak = cap" (2 * bb) (Buffer_pool.peak_bytes pool);
  Alcotest.(check (list (pair int bool))) "on_evict reports the id" [ (1, false) ] !evicted

let test_pool_pinning () =
  let l = layout ~grid:[| 4; 1 |] ~block:[| 2; 2 |] in
  let bb = Config.block_bytes l in
  let b = sim () in
  let s = mk_store b l in
  let pool = mk_pool ~cap_bytes:(2 * bb) s in
  ignore (Buffer_pool.get pool 0);
  Buffer_pool.pin pool 0;
  ignore (Buffer_pool.get pool 1);
  ignore (Buffer_pool.get pool 2);  (* must evict 1, not pinned 0 *)
  check_bool "pinned survives" true (Buffer_pool.contains pool 0);
  check_bool "unpinned evicted" false (Buffer_pool.contains pool 1);
  (* All pinned -> cannot make room. *)
  Buffer_pool.pin pool 2;
  check_bool "insufficient memory raised" true
    (try ignore (Buffer_pool.get pool 3); false
     with Buffer_pool.Insufficient_memory _ -> true);
  Buffer_pool.unpin pool 0;
  ignore (Buffer_pool.get pool 3);
  check_bool "after unpin ok" true (Buffer_pool.contains pool 3)

let test_pool_dirty_flush_on_evict () =
  let l = layout ~grid:[| 3; 1 |] ~block:[| 2; 2 |] in
  let bb = Config.block_bytes l in
  let b = sim () in
  let s = mk_store b l in
  let evicted = ref [] in
  let on_evict id ~dirty = evicted := (id, dirty) :: !evicted in
  let pool = mk_pool ~on_evict ~cap_bytes:(1 * bb) s in
  let data = Buffer_pool.get_for_write pool 0 in
  data.(0) <- 42.;
  Buffer_pool.mark_dirty pool 0;
  ignore (Buffer_pool.get pool 1);  (* evicts and must flush *)
  check_bool "flushed value" true ((Block_store.read_floats s [ 0; 0 ]).(0) = 42.);
  Alcotest.(check (list (pair int bool))) "on_evict reports the dirty id" [ (0, true) ] !evicted

let test_pool_drop_if_dead () =
  let l = layout ~grid:[| 3; 1 |] ~block:[| 2; 2 |] in
  let b = sim () in
  let s = mk_store b l in
  let pool = mk_pool ~cap_bytes:1000000 s in
  let data = Buffer_pool.get_for_write pool 0 in
  data.(0) <- 7.;
  Buffer_pool.mark_dirty pool 0;
  Buffer_pool.drop pool 0;
  check_bool "dropped" false (Buffer_pool.contains pool 0);
  (* Dead data never reached the store. *)
  check_bool "store untouched" true ((Block_store.read_floats s [ 0; 0 ]).(0) = 0.)

let test_pool_drop_clean_dead () =
  (* Regression: the dead-block drop used to release only dirty buffers, so clean
     dead blocks (read, consumed, never written) lingered and inflated
     used/peak accounting until eviction pressure hit them. *)
  let l = layout ~grid:[| 3; 1 |] ~block:[| 2; 2 |] in
  let b = sim () in
  let s = mk_store b l in
  let pool = mk_pool ~cap_bytes:1000000 s in
  ignore (Buffer_pool.get pool 0);  (* clean: straight from disk *)
  let used = Buffer_pool.used_bytes pool in
  check_bool "resident before" true (Buffer_pool.contains pool 0);
  Buffer_pool.drop pool 0;
  check_bool "clean dead block dropped" false (Buffer_pool.contains pool 0);
  check_int "memory released" (used - Config.block_bytes l) (Buffer_pool.used_bytes pool);
  (* A pinned block is not dead, clean or dirty. *)
  ignore (Buffer_pool.get pool 1);
  Buffer_pool.pin pool 1;
  Buffer_pool.drop pool 1;
  check_bool "pinned block survives" true (Buffer_pool.contains pool 1)

let test_pool_lru_order () =
  (* The intrusive LRU list orders buffers least- to most-recently used, and
     eviction consumes it from the cold end, skipping pinned buffers. *)
  let l = layout ~grid:[| 6; 1 |] ~block:[| 2; 2 |] in
  let bb = Config.block_bytes l in
  let b = sim () in
  let s = mk_store b l in
  let pool = mk_pool ~cap_bytes:(4 * bb) s in
  List.iter (fun i -> ignore (Buffer_pool.get pool i)) [ 0; 1; 2; 3 ];
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3 ] (Buffer_pool.lru_keys pool);
  ignore (Buffer_pool.get pool 1);  (* touch 1 -> most recent *)
  ignore (Buffer_pool.get pool 0);  (* touch 0 -> most recent *)
  Alcotest.(check (list int)) "touches reorder" [ 2; 3; 1; 0 ] (Buffer_pool.lru_keys pool);
  Buffer_pool.pin pool 2;
  ignore (Buffer_pool.get pool 4);  (* 2 is pinned: 3 is the victim *)
  check_bool "pinned cold block skipped" true (Buffer_pool.contains pool 2);
  check_bool "next-coldest evicted" false (Buffer_pool.contains pool 3);
  Buffer_pool.unpin pool 2;
  ignore (Buffer_pool.get pool 5);  (* now 2 goes *)
  check_bool "unpinned cold block evicted" false
    (Buffer_pool.contains pool 2);
  Alcotest.(check (list int)) "final order" [ 1; 0; 4; 5 ] (Buffer_pool.lru_keys pool);
  (* The list holds ids, not block indices: here id [i] names block [[5 - i; 0]]. *)
  let rev =
    Buffer_pool.create ~cap_bytes:(4 * bb) ~blocks:6 ~resolve:(fun i -> (s, [ 5 - i; 0 ])) ()
  in
  List.iter (fun i -> ignore (Buffer_pool.get rev i)) [ 4; 0; 2; 0 ];
  Alcotest.(check (list int)) "ids in recency order" [ 4; 2; 0 ] (Buffer_pool.lru_keys rev)

let test_pool_stats_counters () =
  (* Pool hits/misses/evictions/flushes land in the backend's Io_stats when
     the pool is created with ~stats. *)
  let l = layout ~grid:[| 4; 1 |] ~block:[| 2; 2 |] in
  let bb = Config.block_bytes l in
  let b = sim () in
  let s = mk_store b l in
  let st = b.Backend.stats in
  let pool = mk_pool ~stats:st ~cap_bytes:(2 * bb) s in
  ignore (Buffer_pool.get pool 0);          (* miss *)
  ignore (Buffer_pool.get pool 0);          (* hit *)
  let d = Buffer_pool.get_for_write pool 1 in  (* miss (no read) *)
  d.(0) <- 1.;
  Buffer_pool.mark_dirty pool 1;
  ignore (Buffer_pool.get pool 2);  (* miss; evicts 0 (clean) *)
  ignore (Buffer_pool.get pool 3);  (* miss; evicts dirty 1 -> flush *)
  check_int "hits" 1 st.Io_stats.pool_hits;
  check_int "misses" 4 st.Io_stats.pool_misses;
  check_int "evictions" 2 st.Io_stats.pool_evictions;
  check_int "flushes" 1 st.Io_stats.pool_flushes;
  (* Regression: [write_through] used to clear [dirty] by hand without
     counting the flush, so write-through traffic vanished from the pool
     stats. *)
  Buffer_pool.mark_dirty pool 3;
  Buffer_pool.write_through pool 3;
  check_int "write-through counted as flush" 2 st.Io_stats.pool_flushes;
  (* Write-through is unconditional (journalled and opportunistic callers
     rely on the write happening even for clean buffers). *)
  Buffer_pool.write_through pool 3;
  check_int "clean write-through still flushes" 3 st.Io_stats.pool_flushes;
  (* An id outside the pool, [0, 4) here, is refused before any I/O. *)
  let reads = st.Io_stats.reads and misses = st.Io_stats.pool_misses in
  List.iter
    (fun id ->
      check_bool "id outside the pool refused" true
        (try ignore (Buffer_pool.get pool id); false with Invalid_argument _ -> true))
    [ -1; 4 ];
  check_int "no read for an id outside" reads st.Io_stats.reads;
  check_int "no miss for an id outside" misses st.Io_stats.pool_misses

let test_per_stream_stats () =
  let b = sim () in
  b.Backend.pwrite ~name:"x.daf" ~off:0 ~data:(Bytes.create 100);
  b.Backend.pwrite ~name:"y.daf" ~off:0 ~data:(Bytes.create 300);
  ignore (b.Backend.pread ~name:"x.daf" ~off:0 ~len:100);
  ignore (b.Backend.pread ~name:"x.daf" ~off:0 ~len:50);
  let counts = Io_stats.stream_counts b.Backend.stats in
  let x = List.assoc "x.daf" counts and y = List.assoc "y.daf" counts in
  check_int "x reads" 2 x.Io_stats.c_reads;
  check_int "x bytes read" 150 x.Io_stats.c_bytes_read;
  check_int "x writes" 1 x.Io_stats.c_writes;
  check_int "y writes" 1 y.Io_stats.c_writes;
  check_int "y bytes written" 300 y.Io_stats.c_bytes_written;
  check_int "y reads" 0 y.Io_stats.c_reads;
  (* Aggregates still see everything. *)
  check_int "aggregate reads" 2 b.Backend.stats.Io_stats.reads;
  check_int "aggregate bytes written" 400 b.Backend.stats.Io_stats.bytes_written;
  (* The read-size histogram bucketed both requests by power of two. *)
  let hist = Io_stats.stream_read_hist b.Backend.stats "x.daf" in
  check_int "two histogram entries" 2 (List.length hist);
  check_int "total histogrammed" 2 (List.fold_left (fun a (_, n) -> a + n) 0 hist);
  (* Deltas count streams absent from the snapshot from zero. *)
  let before = counts in
  ignore (b.Backend.pread ~name:"z.daf" ~off:0 ~len:300);
  let delta = Io_stats.counts_delta ~before ~after:(Io_stats.stream_counts b.Backend.stats) in
  check_int "new stream from zero" 1 (List.assoc "z.daf" delta).Io_stats.c_reads;
  check_int "quiet stream zero delta" 0 (List.assoc "x.daf" delta).Io_stats.c_reads

let test_pool_phantom () =
  let l = layout ~grid:[| 4; 1 |] ~block:[| 1000; 1000 |] in
  let b = sim () in
  let s = mk_store b l in
  let pool = mk_pool ~phantom:true ~cap_bytes:(3 * Config.block_bytes l) s in
  let data = Buffer_pool.get pool 0 in
  check_int "no real buffer" 0 (Array.length data);
  check_int "io accounted" (Config.block_bytes l) b.Backend.stats.Io_stats.bytes_read;
  check_int "memory accounted" (Config.block_bytes l) (Buffer_pool.used_bytes pool)

let test_lab_on_file_backend () =
  let root = tmpdir () in
  let l = layout ~grid:[| 6; 6 |] ~block:[| 3; 3 |] in
  let b = Backend.file ~root in
  let t = Lab_tree.create b ~name:"F" ~layout:l in
  for i = 0 to 5 do
    for j = 0 to 5 do
      Lab_tree.write_block t [ i; j ] (bytes_of_floats (payload l ((i * 6) + j)))
    done
  done;
  b.Backend.sync ();
  b.Backend.close ();
  (* Fresh backend and handle: everything must come back from disk. *)
  let b2 = Backend.file ~root in
  let t2 = Lab_tree.create b2 ~name:"F" ~layout:l in
  check_int "blocks persisted" 36 (Lab_tree.block_count t2);
  for i = 0 to 5 do
    for j = 0 to 5 do
      if floats_of_bytes (Lab_tree.read_block t2 [ i; j ]) <> payload l ((i * 6) + j)
      then Alcotest.failf "block (%d,%d) lost across restart" i j
    done
  done;
  b2.Backend.close ()

(* The EOF contract pinned in backend.mli: [pread] at or past the end of a
   stream zero-fills, always returns exactly [len] bytes, and never changes
   the stream's size.  Both backends must agree byte for byte. *)
let test_pread_past_eof () =
  List.iter
    (fun (label, (b : Backend.t)) ->
      b.Backend.pwrite ~name:"e" ~off:0 ~data:(Bytes.of_string "0123456789");
      (* Straddling the end: 6 data bytes then 6 zeroes. *)
      let r = b.Backend.pread ~name:"e" ~off:4 ~len:12 in
      check_int (label ^ " straddle len") 12 (Bytes.length r);
      Alcotest.(check string) (label ^ " straddle")
        "456789\000\000\000\000\000\000" (Bytes.to_string r);
      (* Starting exactly at the end. *)
      let r = b.Backend.pread ~name:"e" ~off:10 ~len:4 in
      Alcotest.(check string) (label ^ " at end") "\000\000\000\000"
        (Bytes.to_string r);
      (* Entirely past the end. *)
      let r = b.Backend.pread ~name:"e" ~off:1000 ~len:3 in
      Alcotest.(check string) (label ^ " far past end") "\000\000\000"
        (Bytes.to_string r);
      (* A stream never written at all reads as zeroes. *)
      let r = b.Backend.pread ~name:"never" ~off:0 ~len:5 in
      Alcotest.(check string) (label ^ " empty stream") "\000\000\000\000\000"
        (Bytes.to_string r);
      (* None of the above grew anything. *)
      check_int (label ^ " size unchanged") 10 (b.Backend.size ~name:"e");
      check_int (label ^ " empty size") 0 (b.Backend.size ~name:"never");
      b.Backend.close ())
    [ ("sim", sim ()); ("file", Backend.file ~root:(tmpdir ())) ]

(* [pread] zeroes only the unread suffix of its uninitialised buffer.  Fresh
   heap memory reads as zero anyway, so the EOF cases run again over a minor
   heap first filled with junk: a suffix left unzeroed would return it. *)
let test_pread_eof_dirty_heap () =
  let junk () =
    for _ = 1 to 1 lsl 15 do
      ignore (Sys.opaque_identity (Bytes.make 120 'Z'))
    done;
    Gc.minor ()
  in
  List.iter
    (fun (label, (b : Backend.t)) ->
      b.Backend.pwrite ~name:"e" ~off:0 ~data:(Bytes.of_string "0123456789");
      junk ();
      Alcotest.(check string) (label ^ " straddle")
        "456789\000\000\000\000\000\000"
        (Bytes.to_string (b.Backend.pread ~name:"e" ~off:4 ~len:12));
      junk ();
      Alcotest.(check string) (label ^ " far past end") "\000\000\000"
        (Bytes.to_string (b.Backend.pread ~name:"e" ~off:1000 ~len:3));
      b.Backend.close ())
    [ ("sim", sim ()); ("file", Backend.file ~root:(tmpdir ())) ]

(* Regression: the file backend's [write_discard] used to write whatever
   happened to sit in its shared scratch buffer — a previous [read_discard]
   would leave real data there, and the "discarded" region came back as
   that garbage instead of zeroes. *)
let test_write_discard_zeroes () =
  let root = tmpdir () in
  let b = Backend.file ~root in
  b.Backend.pwrite ~name:"w" ~off:0 ~data:(Bytes.make 4096 'Z');
  (* Prime the scratch buffer with non-zero data. *)
  b.Backend.read_discard ~name:"w" ~off:0 ~len:4096;
  b.Backend.write_discard ~name:"w" ~off:4096 ~len:4096;
  let r = b.Backend.pread ~name:"w" ~off:4096 ~len:4096 in
  check_bool "discarded region reads back as zeroes" true
    (String.for_all (fun c -> c = '\000') (Bytes.to_string r));
  check_int "size grew past the discarded region" 8192 (b.Backend.size ~name:"w");
  b.Backend.close ()

(* Regression: EOF-short [pread]s on the file backend used to account the
   full requested [len]; only the bytes actually served may be charged —
   the zero-filled suffix is synthesized, not read.  [read_discard] is the
   exception by contract: it models the cost of a read for phantom
   cost-validation runs against never-materialised regions, so it keeps
   full-length accounting, like the sim backend (see backend.mli). *)
let test_file_eof_accounting () =
  let root = tmpdir () in
  let b = Backend.file ~root in
  b.Backend.pwrite ~name:"e" ~off:0 ~data:(Bytes.of_string "0123456789");
  Io_stats.reset b.Backend.stats;
  ignore (b.Backend.pread ~name:"e" ~off:4 ~len:12);  (* 6 served + 6 zero-fill *)
  check_int "straddling read charges actual bytes" 6
    b.Backend.stats.Io_stats.bytes_read;
  ignore (b.Backend.pread ~name:"e" ~off:100 ~len:8);  (* entirely past EOF *)
  check_int "past-EOF read moves nothing" 6 b.Backend.stats.Io_stats.bytes_read;
  b.Backend.read_discard ~name:"e" ~off:8 ~len:16;  (* 2 served, 16 modeled *)
  check_int "discard charges the modeled request" 22
    b.Backend.stats.Io_stats.bytes_read;
  check_int "every request still counted" 3 b.Backend.stats.Io_stats.reads;
  b.Backend.close ()

let test_stats_reset () =
  let b = sim () in
  b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.create 100);
  ignore (b.Backend.pread ~name:"x" ~off:0 ~len:100);
  Riot_storage.Io_stats.reset b.Backend.stats;
  check_int "reads reset" 0 b.Backend.stats.Riot_storage.Io_stats.reads;
  check_int "bytes reset" 0 b.Backend.stats.Riot_storage.Io_stats.bytes_written;
  check_bool "vtime reset" true (b.Backend.stats.Riot_storage.Io_stats.virtual_time = 0.)

let suite =
  ( "storage",
    [ Alcotest.test_case "sim backend" `Quick test_sim_backend_roundtrip;
      Alcotest.test_case "file backend" `Quick test_file_backend_roundtrip;
      Alcotest.test_case "discard io" `Quick test_discard_io_counts;
      Alcotest.test_case "daf roundtrip" `Quick test_daf_roundtrip;
      Alcotest.test_case "daf column-major" `Quick test_daf_linearization_column_major;
      Alcotest.test_case "lab roundtrip" `Quick test_lab_roundtrip;
      Alcotest.test_case "lab splits" `Quick test_lab_splits;
      Alcotest.test_case "lab persistence" `Quick test_lab_persistence;
      Alcotest.test_case "formats agree" `Quick test_formats_agree;
      Alcotest.test_case "codec round trip is bit-exact" `Quick test_codec_bit_exact;
      Alcotest.test_case "codec matches the per-element reference" `Quick
        test_codec_matches_reference;
      Alcotest.test_case "codec rejects bad ranges" `Quick test_codec_rejects_bad_ranges;
      Alcotest.test_case "codec store round trips" `Quick test_codec_store_round_trips;
      Alcotest.test_case "pool hit/miss" `Quick test_pool_hit_miss;
      Alcotest.test_case "pool LRU eviction" `Quick test_pool_eviction_lru;
      Alcotest.test_case "pool pinning" `Quick test_pool_pinning;
      Alcotest.test_case "pool dirty flush" `Quick test_pool_dirty_flush_on_evict;
      Alcotest.test_case "pool drop if dead" `Quick test_pool_drop_if_dead;
      Alcotest.test_case "pool drops clean dead blocks" `Quick test_pool_drop_clean_dead;
      Alcotest.test_case "pool LRU order" `Quick test_pool_lru_order;
      Alcotest.test_case "pool stats counters" `Quick test_pool_stats_counters;
      Alcotest.test_case "per-stream stats" `Quick test_per_stream_stats;
      Alcotest.test_case "pool phantom" `Quick test_pool_phantom;
      Alcotest.test_case "lab on file backend" `Quick test_lab_on_file_backend;
      Alcotest.test_case "stats reset" `Quick test_stats_reset;
      Alcotest.test_case "pread past EOF" `Quick test_pread_past_eof;
      Alcotest.test_case "pread past EOF over a dirty heap" `Quick
        test_pread_eof_dirty_heap;
      Alcotest.test_case "write_discard writes zeroes" `Quick
        test_write_discard_zeroes;
      Alcotest.test_case "file EOF reads charge actual bytes" `Quick
        test_file_eof_accounting ] )
