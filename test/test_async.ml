(* The asynchronous storage tier: Io_queue semantics, the Backend.async
   wrapper, the prefetch schedule, and the sync-vs-async differential
   contract.

   The contract (see backend.mli): for any program and any legal plan,
   routing storage through [Backend.with_async] leaves byte-identical array
   contents and an identical physical request set - same per-array request
   and byte counts, same virtual disk time up to rounding - as the
   synchronous run.  Read-ahead and write-behind only move requests in
   time, never add or drop them.  Riotshare.Differential checks it; the
   differential cases here are thin calls into it (test_differential.ml). *)

module Backend = Riot_storage.Backend
module Io_queue = Riot_storage.Io_queue
module Io_stats = Riot_storage.Io_stats
module Block_store = Riot_storage.Block_store
module Cplan = Riot_plan.Cplan
module Prefetch = Riot_plan.Prefetch
module Differential = Riotshare.Differential

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_backend () =
  Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. ()

(* --- Io_queue ------------------------------------------------------------- *)

let test_queue_fifo () =
  let q = Io_queue.create () in
  let log = ref [] in
  for i = 1 to 100 do
    Io_queue.submit q (fun () -> log := i :: !log)
  done;
  Io_queue.barrier q;
  Alcotest.(check (list int))
    "jobs ran in submission order"
    (List.init 100 (fun i -> 100 - i))
    !log;
  (* A blocking run goes behind everything already queued. *)
  Io_queue.submit q (fun () -> log := 0 :: !log);
  let seen = Io_queue.run q (fun () -> List.length !log) in
  check_int "run observes the earlier submit" 101 seen;
  Io_queue.shutdown q

let test_queue_parked_error () =
  let q = Io_queue.create () in
  Io_queue.submit q (fun () -> failwith "deferred boom");
  (* The failure surfaces at the next blocking operation, not silently. *)
  check_bool "barrier re-raises the parked failure" true
    (try
       Io_queue.barrier q;
       false
     with Failure m -> m = "deferred boom");
  (* Parked failures are one-shot; the queue keeps working afterwards. *)
  check_int "queue alive after parked failure" 7 (Io_queue.run q (fun () -> 7));
  Io_queue.shutdown q

let test_queue_shutdown () =
  let q = Io_queue.create () in
  let hits = ref 0 in
  for _ = 1 to 10 do
    Io_queue.submit q (fun () -> incr hits)
  done;
  Io_queue.shutdown q;
  check_int "shutdown drains pending jobs" 10 !hits;
  Io_queue.shutdown q;  (* idempotent *)
  check_bool "submit after shutdown rejected" true
    (try
       Io_queue.submit q ignore;
       false
     with Invalid_argument _ -> true)

(* --- Backend.async -------------------------------------------------------- *)

let test_async_write_behind () =
  let inner = mk_backend () in
  Backend.with_async inner (fun b ->
      b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.of_string "hello");
      (* The data was copied at submission: mutating the caller's buffer
         after pwrite returns must not reach the disk. *)
      let d = Bytes.of_string "world" in
      b.Backend.pwrite ~name:"x" ~off:5 ~data:d;
      Bytes.fill d 0 5 '!';
      (* A read enqueued after the writes observes them (FIFO). *)
      Alcotest.(check string) "read-your-writes" "helloworld"
        (Bytes.to_string (b.Backend.pread ~name:"x" ~off:0 ~len:10)));
  (* After with_async returns the queue has drained: the raw disk holds
     everything. *)
  Alcotest.(check string) "write-behind landed" "helloworld"
    (Bytes.to_string (inner.Backend.pread ~name:"x" ~off:0 ~len:10))

let test_async_prefetch_single_read () =
  let inner = mk_backend () in
  inner.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.of_string "0123456789");
  Io_stats.reset inner.Backend.stats;
  Backend.with_async inner (fun b ->
      b.Backend.prefetch ~name:"x" ~off:2 ~len:4;
      Alcotest.(check string) "prefetched bytes served" "2345"
        (Bytes.to_string (b.Backend.pread ~name:"x" ~off:2 ~len:4));
      (* The demand read consumed the prefetched buffer: one physical read. *)
      check_int "one physical read" 1 inner.Backend.stats.Io_stats.reads;
      (* A second identical read is a fresh demand read. *)
      ignore (b.Backend.pread ~name:"x" ~off:2 ~len:4);
      check_int "hint consumed exactly once" 2 inner.Backend.stats.Io_stats.reads;
      (* Duplicate hints for one extent collapse to one physical read. *)
      b.Backend.prefetch ~name:"x" ~off:0 ~len:2;
      b.Backend.prefetch ~name:"x" ~off:0 ~len:2;
      ignore (b.Backend.pread ~name:"x" ~off:0 ~len:2);
      b.Backend.sync ());
  check_int "no duplicate physical read" 3 inner.Backend.stats.Io_stats.reads

let test_async_deferred_error_surfaces () =
  Riot_base.Failpoint.reset ();
  let inner = mk_backend () in
  let raised =
    try
      Backend.with_async (Backend.faulty inner) (fun b ->
          b.Backend.pwrite ~name:"x" ~off:0 ~data:(Bytes.make 8 'a');
          Riot_base.Failpoint.arm Backend.fp_write_error
            (Riot_base.Failpoint.Nth 1);
          (* Fire-and-forget write fails on the I/O domain... *)
          b.Backend.pwrite ~name:"x" ~off:8 ~data:(Bytes.make 8 'b');
          (* ...and surfaces at the next blocking operation. *)
          b.Backend.sync ();
          false)
    with Backend.Io_error { transient = true; _ } -> true
  in
  check_bool "deferred write error re-raised at the barrier" true raised;
  Riot_base.Failpoint.reset ()

(* --- sync = async differential -------------------------------------------- *)

(* Async at both fused modes and both formats; the harness compares each
   run with the sync clean run at its format and disk. *)
let async_points disks _ _ =
  List.concat_map
    (fun (fused, format) ->
      List.map (fun disk -> Test_differential.at ~fused ~async:true ~format ~disk ()) disks)
    [ (true, Block_store.Daf_format); (false, Daf_format); (true, Lab_format); (false, Lab_format) ]

let prop_differential =
  QCheck.Test.make ~name:"async: sync = async on random programs" ~count:150
    Test_differential.seed_gen (fun seed ->
      Test_differential.holds ~points:(async_points [ Differential.Sim ]) seed)

(* Cheap deterministic replays on pinned seeds, on both disks, so the tier-1
   quick run crosses the storage tiers too. *)
let test_pinned_seeds () =
  Test_differential.pinned ~points:(async_points [ Differential.Sim; File ]) [ 0; 1; 2; 3; 5 ]

(* The hint schedule respects the write-before-read fences: a hint's
   earliest safe issue step must not precede the step after the block's
   last prior touch (read, write or pin release — any of them can put a
   dirty flush of the block on the queue), and every hint targets a real
   [From_disk] read with a non-empty issue window. *)
let test_prefetch_schedule_safety () =
  List.iter
    (fun seed ->
      let c = Differential.case_of_seed seed in
      List.iter
        (fun (cplan : Cplan.t) ->
          let h = Prefetch.make cplan in
          check_int "one slot per step" (Array.length cplan.Cplan.steps)
            (Prefetch.length h);
          Array.iteri
            (fun t (st : Cplan.step) ->
              List.iter
                (fun (blk, earliest) ->
                  if
                    not
                      (List.exists
                         (fun (_, b, src) ->
                           b = blk && src = Cplan.From_disk)
                         st.Cplan.reads)
                  then Alcotest.failf "seed %d: hint without its read" seed;
                  if earliest >= t then
                    Alcotest.failf "seed %d: empty issue window" seed;
                  let fence = ref 0 in
                  for s = 0 to t - 1 do
                    let touches (_, b, _) = b = blk in
                    let stp = cplan.Cplan.steps.(s) in
                    if
                      List.exists touches stp.Cplan.reads
                      || List.exists touches stp.Cplan.writes
                      || List.exists
                           (fun (b, _, stop) -> b = blk && stop = s)
                           cplan.Cplan.pins
                    then fence := s + 1
                  done;
                  if earliest < !fence then
                    Alcotest.failf
                      "seed %d: hint for step %d issuable at %d, fence %d"
                      seed t earliest !fence)
                (Prefetch.hints_at h t))
            cplan.Cplan.steps)
        c.Differential.plans)
    [ 0; 1; 2; 3 ]

let suite =
  ( "async",
    [ Alcotest.test_case "queue is FIFO" `Quick test_queue_fifo;
      Alcotest.test_case "queue parks and re-raises errors" `Quick
        test_queue_parked_error;
      Alcotest.test_case "queue shutdown drains" `Quick test_queue_shutdown;
      Alcotest.test_case "write-behind with group commit" `Quick
        test_async_write_behind;
      Alcotest.test_case "prefetch consumed by one physical read" `Quick
        test_async_prefetch_single_read;
      Alcotest.test_case "deferred errors surface at barriers" `Quick
        test_async_deferred_error_surfaces;
      Alcotest.test_case "prefetch schedule respects fences" `Quick
        test_prefetch_schedule_safety;
      Alcotest.test_case "pinned differential seeds" `Quick test_pinned_seeds ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_differential ] )
