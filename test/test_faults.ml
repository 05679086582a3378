(* Fault injection, retry, and crash-restart recovery.

   The failpoint registry and the faulty/retrying backend wrappers are
   tested directly; the engine's journal/resume path is tested on real
   accumulating kernels (add_mul's GEMM chains) and, through
   Riotshare.Differential, on randomly generated programs with crash points
   swept across the whole I/O schedule.  All randomness derives from
   Rand_prog.master_seed (RIOT_TEST_SEED, default 77). *)

module Failpoint = Riot_base.Failpoint
module Backend = Riot_storage.Backend
module Io_stats = Riot_storage.Io_stats
module Block_store = Riot_storage.Block_store
module Journal = Riot_exec.Journal
module Engine = Riot_exec.Engine
module Cplan = Riot_plan.Cplan
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Programs = Riot_ops.Programs
module Rand_prog = Riot_ops.Rand_prog
module Config = Riot_ir.Config
module Dense = Riot_kernels.Dense
module Differential = Riotshare.Differential

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sim () = Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. ()

let tmpdir () = Filename.temp_file "riot" "" |> fun f -> Sys.remove f; f

let no_sleep = { Backend.default_retry_policy with sleep = ignore }

(* --- Failpoint registry --------------------------------------------------- *)

let test_failpoint_triggers () =
  Failpoint.reset ();
  check_bool "nothing armed" false (Failpoint.armed ());
  check_bool "unarmed never fails" false (Failpoint.should_fail "x");
  check_int "unarmed not counted" 0 (Failpoint.hits "x");
  Failpoint.arm "a" (Failpoint.Nth 3);
  Failpoint.arm "b" (Failpoint.Every 2);
  Failpoint.arm "c" Failpoint.Always;
  let fires name n = List.init n (fun _ -> Failpoint.should_fail name) in
  Alcotest.(check (list bool))
    "nth:3" [ false; false; true; false; false ] (fires "a" 5);
  Alcotest.(check (list bool))
    "every:2" [ false; true; false; true; false ] (fires "b" 5);
  Alcotest.(check (list bool)) "always" [ true; true ] (fires "c" 2);
  check_int "hits counted" 5 (Failpoint.hits "a");
  check_int "fired counted" 1 (Failpoint.fired "a");
  check_int "total fired" (1 + 2 + 2) (Failpoint.total_fired ());
  Failpoint.disarm "a";
  check_bool "disarmed" false (Failpoint.is_armed "a");
  check_bool "others still armed" true (Failpoint.armed ());
  Failpoint.reset ();
  check_bool "reset disarms" false (Failpoint.armed ())

let test_failpoint_prob_deterministic () =
  Failpoint.reset ();
  let sequence () =
    Failpoint.arm "p" (Failpoint.Prob (0.3, 42));
    List.init 50 (fun _ -> Failpoint.should_fail "p")
  in
  let s1 = sequence () in
  let s2 = sequence () in
  Alcotest.(check (list bool)) "same seed, same schedule" s1 s2;
  check_bool "some fired" true (List.mem true s1);
  check_bool "some passed" true (List.mem false s1);
  Failpoint.arm "p" (Failpoint.Prob (0.3, 43));
  let s3 = List.init 50 (fun _ -> Failpoint.should_fail "p") in
  check_bool "different seed, different schedule" true (s1 <> s3);
  Failpoint.reset ()

let test_failpoint_spec () =
  Failpoint.reset ();
  let spec = "backend.read.error=every:100, backend.crash=nth:3;p=prob:0.5:7" in
  Failpoint.arm_spec spec;
  check_bool "armed from spec" true (Failpoint.is_armed "backend.crash");
  Alcotest.(check (list string))
    "parsed entries"
    [ "backend.crash=nth:3"; "backend.read.error=every:100"; "p=prob:0.5:7" ]
    (List.map
       (fun (n, t, _, _) -> n ^ "=" ^ Failpoint.trigger_to_string t)
       (Failpoint.list ()));
  List.iter
    (fun bad ->
      Alcotest.check_raises ("rejects " ^ bad)
        (Invalid_argument
           (try
              ignore (Failpoint.parse_spec bad);
              "no exception"
            with Invalid_argument m -> m))
        (fun () -> ignore (Failpoint.parse_spec bad)))
    [ "nonsense"; "x=nth:0"; "x=prob:2"; "x=banana:1"; "=nth:1" ];
  check_bool "malformed spec raises" true
    (try
       ignore (Failpoint.parse_spec "x=nth:zero");
       false
     with Invalid_argument _ -> true);
  Failpoint.reset ()

let test_failpoint_env () =
  Failpoint.reset ();
  Unix.putenv Failpoint.env_var "backend.write.error=nth:2";
  check_bool "armed from env" true (Failpoint.arm_from_env ());
  check_bool "entry armed" true (Failpoint.is_armed "backend.write.error");
  Failpoint.reset ();
  Unix.putenv Failpoint.env_var "";
  check_bool "empty env arms nothing" false (Failpoint.arm_from_env ());
  Failpoint.reset ()

(* --- Faulty + retrying backends ------------------------------------------- *)

let test_retry_absorbs_transient () =
  Failpoint.reset ();
  let inner = sim () in
  let b = Backend.retrying ~policy:no_sleep (Backend.faulty inner) in
  b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.of_string "payload!");
  Io_stats.reset inner.Backend.stats;
  Failpoint.arm Backend.fp_read_error (Failpoint.Nth 1);
  let r = b.Backend.pread ~name:"x" ~off:0 ~len:8 in
  Alcotest.(check string) "data despite fault" "payload!" (Bytes.to_string r);
  let s = inner.Backend.stats in
  check_int "one retry" 1 s.Io_stats.retries;
  check_int "per-stream retry" 1 (Io_stats.stream_retries s "x");
  check_int "one fault injected" 1 s.Io_stats.faults_injected;
  (* The failed attempt must not be double-counted in bytes moved. *)
  check_int "one successful read" 1 s.Io_stats.reads;
  check_int "bytes read once" 8 s.Io_stats.bytes_read;
  Failpoint.reset ()

let test_retry_backoff_and_exhaustion () =
  Failpoint.reset ();
  let inner = sim () in
  let delays = ref [] in
  let policy =
    { Backend.attempts = 4;
      base_delay = 0.01;
      multiplier = 2.;
      max_delay = 0.03;
      sleep = (fun d -> delays := d :: !delays) }
  in
  let b = Backend.retrying ~policy (Backend.faulty inner) in
  Failpoint.arm Backend.fp_read_error Failpoint.Always;
  check_bool "exhausted attempts raise" true
    (try
       ignore (b.Backend.pread ~name:"x" ~off:0 ~len:4);
       false
     with Backend.Io_error { transient = true; _ } -> true);
  Alcotest.(check (list (float 1e-9)))
    "exponential backoff, capped" [ 0.01; 0.02; 0.03 ] (List.rev !delays);
  check_int "three retries" 3 inner.Backend.stats.Io_stats.retries;
  check_int "four faults" 4 inner.Backend.stats.Io_stats.faults_injected;
  check_int "nothing read" 0 inner.Backend.stats.Io_stats.reads;
  Failpoint.reset ()

let test_fatal_not_retried () =
  Failpoint.reset ();
  let inner = sim () in
  let b = Backend.retrying ~policy:no_sleep (Backend.faulty inner) in
  Failpoint.arm Backend.fp_read_fatal (Failpoint.Nth 1);
  check_bool "fatal error propagates" true
    (try
       ignore (b.Backend.pread ~name:"x" ~off:0 ~len:4);
       false
     with Backend.Io_error { transient = false; _ } -> true);
  check_int "no retries for fatal faults" 0 inner.Backend.stats.Io_stats.retries;
  Failpoint.reset ()

let test_short_read_retried () =
  Failpoint.reset ();
  let inner = sim () in
  let b = Backend.retrying ~policy:no_sleep (Backend.faulty inner) in
  b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.of_string "0123456789abcdef");
  Failpoint.arm Backend.fp_read_short (Failpoint.Nth 1);
  let r = b.Backend.pread ~name:"x" ~off:0 ~len:16 in
  Alcotest.(check string) "full data after short read" "0123456789abcdef"
    (Bytes.to_string r);
  check_int "short read retried" 1 inner.Backend.stats.Io_stats.retries;
  Failpoint.reset ()

(* Regression (minimized): at [len <= 1] the injected short read used to
   report [len / 2 = 0] bytes — a 0-byte "short read" indistinguishable
   from a total failure.  The injected length is clamped to >= 1. *)
let test_short_read_min_length () =
  Failpoint.reset ();
  let inner = sim () in
  let b = Backend.faulty inner in
  b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.of_string "q");
  Failpoint.arm Backend.fp_read_short (Failpoint.Always);
  check_bool "1-byte short read reports >= 1 byte" true
    (try
       ignore (b.Backend.pread ~name:"x" ~off:0 ~len:1);
       false
     with Backend.Io_error { len; transient = true; _ } -> len >= 1);
  (* And the retry wrapper still recovers the byte. *)
  Failpoint.reset ();
  Failpoint.arm Backend.fp_read_short (Failpoint.Nth 1);
  let r =
    (Backend.retrying ~policy:no_sleep b).Backend.pread ~name:"x" ~off:0 ~len:1
  in
  Alcotest.(check string) "byte recovered" "q" (Bytes.to_string r);
  Failpoint.reset ()

let test_crash_is_permanent () =
  Failpoint.reset ();
  let inner = sim () in
  let b = Backend.faulty inner in
  b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.make 8 'a');
  Failpoint.arm Backend.fp_crash (Failpoint.Nth 2);
  ignore (b.Backend.pread ~name:"x" ~off:0 ~len:8);
  let crashes f = try f (); false with Backend.Crash _ -> true in
  check_bool "second op crashes" true
    (crashes (fun () -> ignore (b.Backend.pread ~name:"x" ~off:0 ~len:8)));
  Failpoint.reset ();
  check_bool "dead even after disarm" true
    (crashes (fun () -> b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.make 8 'b')));
  check_bool "retry cannot resurrect a crash" true
    (crashes (fun () ->
         ignore
           ((Backend.retrying ~policy:no_sleep b).Backend.pread ~name:"x" ~off:0
              ~len:8)));
  check_int "one fault" 1 inner.Backend.stats.Io_stats.faults_injected;
  (* The inner backend survives: the "disk" outlives the "process". *)
  Alcotest.(check string) "disk intact" "aaaaaaaa"
    (Bytes.to_string (inner.Backend.pread ~name:"x" ~off:0 ~len:8))

let test_crash_write_is_torn () =
  Failpoint.reset ();
  let inner = sim () in
  let b = Backend.faulty inner in
  Failpoint.arm Backend.fp_crash (Failpoint.Nth 1);
  check_bool "write crashes" true
    (try
       b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.of_string "0123456789abcdef");
       false
     with Backend.Crash _ -> true);
  check_int "torn prefix on disk" 8 (inner.Backend.size ~name:"x");
  Alcotest.(check string) "prefix bytes" "01234567"
    (Bytes.to_string (inner.Backend.pread ~name:"x" ~off:0 ~len:8));
  Failpoint.reset ()

(* --- Journal format ------------------------------------------------------- *)

let test_journal_roundtrip () =
  let b = sim () in
  let w = Journal.start b ~fingerprint:42L in
  check_bool "empty journal recovers empty" true
    (match Journal.recover b ~fingerprint:42L with
    | Some { Journal.watermark = -1; records = 0; _ } -> true
    | _ -> false);
  Journal.append w ~step:0;
  Journal.append w ~step:1;
  Journal.append w ~step:4;
  (match Journal.recover b ~fingerprint:42L with
  | Some r ->
      check_int "watermark" 4 r.Journal.watermark;
      check_int "records" 3 r.Journal.records;
      (* A continuation appends under the same nonce. *)
      Journal.append (Journal.continuation b r) ~step:6;
      check_int "continued watermark" 6
        (match Journal.recover b ~fingerprint:42L with
        | Some r -> r.Journal.watermark
        | None -> -99)
  | None -> Alcotest.fail "journal did not recover");
  check_bool "wrong fingerprint rejected" true
    (Journal.recover b ~fingerprint:43L = None)

let test_journal_torn_and_stale () =
  let b = sim () in
  let w = Journal.start b ~fingerprint:7L in
  Journal.append w ~step:0;
  Journal.append w ~step:1;
  (* A torn trailing record (half-written) is ignored. *)
  let sz = b.Backend.size ~name:Journal.stream in
  b.Backend.pwrite ~name:Journal.stream ~off:sz ~data:(Bytes.make 12 '\x5a');
  (match Journal.recover b ~fingerprint:7L with
  | Some r ->
      check_int "torn tail ignored" 1 r.Journal.watermark;
      check_int "valid records only" 2 r.Journal.records
  | None -> Alcotest.fail "torn tail should not kill the journal");
  (* A fresh header (new nonce) invalidates the previous incarnation's
     records even though their bytes are still there. *)
  let w2 = Journal.start b ~fingerprint:7L in
  (match Journal.recover b ~fingerprint:7L with
  | Some r ->
      check_int "stale records invalidated" (-1) r.Journal.watermark;
      check_int "no valid records" 0 r.Journal.records
  | None -> Alcotest.fail "fresh journal should recover as empty");
  Journal.append w2 ~step:3;
  match Journal.recover b ~fingerprint:7L with
  | Some r -> check_int "new incarnation's record wins" 3 r.Journal.watermark
  | None -> Alcotest.fail "journal did not recover"

(* A before-image comes back from recovery bit for bit: NaN payloads,
   signed zeros, infinities and subnormals included. *)
let test_journal_image_bit_exact () =
  let b = sim () in
  let w = Journal.start b ~fingerprint:5L in
  let data = Test_storage.codec_specials in
  Journal.append_image w ~step:2 ~array:"X" ~index:[ 3; 1 ] ~data;
  Journal.append w ~step:2;
  match Journal.recover b ~fingerprint:5L with
  | Some { Journal.images = [ im ]; _ } ->
      check_bool "image block" true (im.Journal.im_array = "X" && im.Journal.im_index = [ 3; 1 ]);
      check_bool "image bits" true
        (Array.map Int64.bits_of_float im.Journal.im_data
        = Array.map Int64.bits_of_float data)
  | _ -> Alcotest.fail "expected exactly one recovered before-image"

(* --- Crash-restart on real accumulating kernels --------------------------- *)

(* add_mul (E = (A+B)*D) at reduced scale: GEMM accumulator chains make
   most interior boundaries unsafe, so this exercises the analysis'
   restart-point logic, the accumulator re-initialisation and the pin
   reconstruction - with real arithmetic rather than the opaque mix. *)
let addmul_ctx =
  lazy
    (let prog = Programs.add_mul () in
     let config = Programs.scale_down ~factor:100 Programs.table2 in
     let ref_params = config.Config.params in
     let analysis = Deps.extract prog ~ref_params in
     let plans, _ = Search.enumerate prog ~analysis ~ref_params in
     (prog, config, plans))

let scatter store (l : Config.layout) st =
  let n = Config.block_elems_total l in
  for bi = 0 to l.Config.grid.(0) - 1 do
    for bj = 0 to l.Config.grid.(1) - 1 do
      Block_store.write_floats store [ bi; bj ]
        (Array.init n (fun _ -> Random.State.float st 2. -. 1.))
    done
  done

let load_addmul config stores =
  let st = Random.State.make [| Rand_prog.master_seed (); 9 |] in
  List.iter
    (fun name -> scatter (List.assoc name stores) (Config.layout config name) st)
    [ "A"; "B"; "D" ]

let test_resume_real_kernels () =
  let prog, config, plans = Lazy.force addmul_ctx in
  let plan = List.hd plans in
  let cplan =
    Cplan.build prog ~config ~sched:plan.Search.sched ~realized:plan.Search.q
  in
  let format = Block_store.Daf_format in
  let mem_cap = cplan.Cplan.peak_memory in
  let run ?journal ?resume backend =
    let stores = Engine.stores_for backend ~format ~config in
    ignore (Engine.run ~stores ?journal ?resume cplan ~backend ~format ~mem_cap);
    stores
  in
  Failpoint.reset ();
  let clean = sim () in
  load_addmul config (Engine.stores_for clean ~format ~config);
  let reference = Differential.snapshot (run clean) in
  (* Probe the op count, then crash at a few points across the schedule. *)
  let probe = sim () in
  load_addmul config (Engine.stores_for probe ~format ~config);
  Failpoint.arm Backend.fp_crash (Failpoint.Nth max_int);
  ignore (run ~journal:true (Backend.faulty probe));
  let ops = Failpoint.hits Backend.fp_crash in
  Failpoint.reset ();
  check_bool "probe ran" true (ops > 10);
  List.iter
    (fun frac ->
      let k = max 1 (ops * frac / 100) in
      let b = sim () in
      load_addmul config (Engine.stores_for b ~format ~config);
      Failpoint.arm Backend.fp_crash (Failpoint.Nth k);
      (try ignore (run ~journal:true (Backend.faulty b)) with Backend.Crash _ -> ());
      Failpoint.reset ();
      let stores = run ~journal:true ~resume:true b in
      check_bool
        (Printf.sprintf "resumed output identical (crash at op %d/%d)" k ops)
        true
        (Differential.snapshot stores = reference))
    [ 5; 33; 60; 90; 99 ]

(* --- Crash-restart on the file backend ------------------------------------ *)

let test_file_backend_crash_restart () =
  Failpoint.reset ();
  Rand_prog.with_program 5 (fun prog ->
      let config = Rand_prog.config_for prog in
      let ref_params = Rand_prog.ref_params in
      let analysis = Deps.extract prog ~ref_params in
      let plans, _ = Search.enumerate ~max_size:1 prog ~analysis ~ref_params in
      let plan = List.hd plans in
      let cplan =
        Cplan.build prog ~config ~sched:plan.Search.sched ~realized:plan.Search.q
      in
      let format = Block_store.Daf_format in
      let mem_cap = cplan.Cplan.peak_memory in
      let run ?journal ?resume backend =
        let stores = Engine.stores_for backend ~format ~config in
        ignore
          (Engine.run ~stores ?journal ?resume cplan ~backend ~format ~mem_cap);
        stores
      in
      (* Reference on the simulated backend. *)
      let clean = sim () in
      Differential.load_inputs prog config (Engine.stores_for clean ~format ~config);
      let reference = Differential.snapshot (run clean) in
      (* Same plan on real files: crash mid-run, close the fds (process
         death), reopen the directory and resume. *)
      let root = tmpdir () in
      let b1 = Backend.file ~root in
      Differential.load_inputs prog config (Engine.stores_for b1 ~format ~config);
      Failpoint.arm Backend.fp_crash (Failpoint.Nth max_int);
      ignore (run ~journal:true (Backend.faulty b1));
      let ops = Failpoint.hits Backend.fp_crash in
      Failpoint.reset ();
      (* Redo from scratch in a second directory with a mid-run crash. *)
      let root2 = tmpdir () in
      let b2 = Backend.file ~root:root2 in
      Differential.load_inputs prog config (Engine.stores_for b2 ~format ~config);
      Failpoint.arm Backend.fp_crash (Failpoint.Nth (max 1 (ops / 2)));
      (try ignore (run ~journal:true (Backend.faulty b2))
       with Backend.Crash _ -> ());
      Failpoint.reset ();
      b2.Backend.close ();
      let b3 = Backend.file ~root:root2 in
      let stores = run ~journal:true ~resume:true b3 in
      check_bool "file-backend resumed output identical" true
        (Differential.snapshot stores = reference);
      b3.Backend.close ())

(* --- Randomized crash-consistency campaign -------------------------------- *)

(* The crash and transient-fault campaign is the differential harness run
   over the full configuration product. *)
let campaign_ok (r : Differential.tally) =
  List.iter (fun m -> Printf.printf "mismatch: %s\n" m) r.Differential.mismatches;
  Printf.printf
    "faultfuzz: %d programs, %d plans, %d crash cases, %d recoveries, %d \
     faults, %d retries (RIOT_TEST_SEED=%d)\n"
    r.Differential.programs r.Differential.plans r.Differential.crash_cases
    r.Differential.recoveries r.Differential.faults_injected r.Differential.retries
    (Rand_prog.master_seed ());
  List.iter (fun (p, n) -> Printf.printf "  %-32s %5d runs\n" p n) r.Differential.runs;
  Alcotest.(check (list string)) "no mismatches" [] r.Differential.mismatches;
  check_int "every crash recovered" r.Differential.crash_cases
    r.Differential.recoveries;
  check_bool "some crashes exercised" true (r.Differential.crash_cases > 0);
  check_bool "vectorized runs compared" true
    (List.exists (fun (p, _) -> String.starts_with ~prefix:"fused/" p) r.Differential.runs);
  check_bool "transient faults absorbed" true (r.Differential.retries > 0)

let test_campaign_smoke () =
  campaign_ok
    (Differential.campaign ~seed:(Rand_prog.master_seed ()) ~min_crash_cases:20
       ~plans_per_program:2 ~crash_points:5 ())

let test_campaign_deterministic () =
  let go () =
    Differential.campaign ~seed:(Rand_prog.master_seed ()) ~min_crash_cases:6
      ~plans_per_program:1 ~crash_points:3 ()
  in
  check_bool "identical results under a fixed seed" true (go () = go ())

let suite =
  ( "faults",
    [ Alcotest.test_case "failpoint triggers" `Quick test_failpoint_triggers;
      Alcotest.test_case "failpoint prob is deterministic" `Quick
        test_failpoint_prob_deterministic;
      Alcotest.test_case "failpoint spec parsing" `Quick test_failpoint_spec;
      Alcotest.test_case "failpoint env arming" `Quick test_failpoint_env;
      Alcotest.test_case "retry absorbs transient fault" `Quick
        test_retry_absorbs_transient;
      Alcotest.test_case "retry backoff and exhaustion" `Quick
        test_retry_backoff_and_exhaustion;
      Alcotest.test_case "fatal errors are not retried" `Quick
        test_fatal_not_retried;
      Alcotest.test_case "short reads are retried" `Quick test_short_read_retried;
      Alcotest.test_case "short reads inject at least one byte" `Quick
        test_short_read_min_length;
      Alcotest.test_case "crash is permanent" `Quick test_crash_is_permanent;
      Alcotest.test_case "crashing write is torn" `Quick test_crash_write_is_torn;
      Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal before-image is bit-exact" `Quick
        test_journal_image_bit_exact;
      Alcotest.test_case "journal torn tail and stale records" `Quick
        test_journal_torn_and_stale;
      Alcotest.test_case "crash-resume on real kernels" `Quick
        test_resume_real_kernels;
      Alcotest.test_case "crash-resume on the file backend" `Quick
        test_file_backend_crash_restart;
      Alcotest.test_case "crash-consistency campaign (smoke)" `Slow
        test_campaign_smoke;
      Alcotest.test_case "campaign is deterministic" `Slow
        test_campaign_deterministic ] )
