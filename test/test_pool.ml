(* The domain pool underneath the parallel optimizer: order preservation,
   jobs=1 identity, exception propagation, reuse across batches. *)

module Pool = Riot_base.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ints = Alcotest.(list int)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.check ints "parallel_map ~jobs:4 = List.map"
    (List.map (fun x -> (x * x) + 1) xs)
    (Pool.parallel_map ~jobs:4 (fun x -> (x * x) + 1) xs);
  Alcotest.check ints "more jobs than items"
    (List.map succ [ 1; 2; 3 ])
    (Pool.parallel_map ~jobs:8 succ [ 1; 2; 3 ]);
  Alcotest.check ints "empty list" [] (Pool.parallel_map ~jobs:4 succ []);
  Alcotest.check ints "singleton" [ 2 ] (Pool.parallel_map ~jobs:4 succ [ 1 ])

let test_jobs1_identity () =
  (* jobs=1 must be plain List.map: same result, no domains involved. *)
  let xs = List.init 50 Fun.id in
  let id0 = (Domain.self () :> int) in
  let seen = ref [] in
  let r =
    Pool.parallel_map ~jobs:1
      (fun x ->
        seen := (Domain.self () :> int) :: !seen;
        x * 3)
      xs
  in
  Alcotest.check ints "result" (List.map (fun x -> x * 3) xs) r;
  check_bool "all on the calling domain" true (List.for_all (( = ) id0) !seen)

let test_filter_map () =
  let xs = List.init 60 Fun.id in
  let f x = if x mod 3 = 0 then Some (x / 3) else None in
  Alcotest.check ints "parallel_filter_map = List.filter_map" (List.filter_map f xs)
    (Pool.parallel_filter_map ~jobs:4 f xs);
  Alcotest.check ints "jobs=1" (List.filter_map f xs)
    (Pool.parallel_filter_map ~jobs:1 f xs)

exception Boom of int

let test_exceptions () =
  let raises f = try ignore (f ()); None with Boom i -> Some i in
  check_bool "exception propagates (parallel)" true
    (raises (fun () ->
         Pool.parallel_map ~jobs:4
           (fun x -> if x = 7 then raise (Boom x) else x)
           (List.init 20 Fun.id))
    = Some 7);
  check_bool "exception propagates (jobs=1)" true
    (raises (fun () ->
         Pool.parallel_map ~jobs:1
           (fun x -> if x = 3 then raise (Boom x) else x)
           (List.init 5 Fun.id))
    = Some 3)

let test_pool_reuse () =
  (* One pool, many batches — including a batch that raises, after which the
     pool must still work. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      check_int "jobs" 3 (Pool.jobs pool);
      for i = 1 to 5 do
        let xs = List.init (10 * i) Fun.id in
        Alcotest.check ints
          (Printf.sprintf "batch %d" i)
          (List.map (fun x -> x + i) xs)
          (Pool.map pool (fun x -> x + i) xs)
      done;
      check_bool "failing batch raises" true
        (try
           ignore (Pool.map pool (fun x -> if x = 2 then raise (Boom x) else x) [ 1; 2; 3 ]);
           false
         with Boom 2 -> true);
      Alcotest.check ints "pool survives a failed batch" [ 10; 20 ]
        (Pool.map pool (fun x -> x * 10) [ 1; 2 ]))

let test_create_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Alcotest.check ints "explicit create" [ 1; 4; 9 ]
    (Pool.map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  check_bool "create ~jobs:0 rejected" true
    (try ignore (Pool.create ~jobs:0 ()); false with Invalid_argument _ -> true)

let test_riot_jobs_env () =
  (* RIOT_JOBS drives the default; unparsable or non-positive values fall
     back to 1 worker (never crash).  There is no portable unsetenv, so the
     variable is left empty afterwards — every other test passes ~jobs
     explicitly. *)
  Unix.putenv "RIOT_JOBS" "5";
  check_int "RIOT_JOBS=5" 5 (Pool.default_jobs ());
  Unix.putenv "RIOT_JOBS" " 3 ";
  check_int "RIOT_JOBS padded" 3 (Pool.default_jobs ());
  Unix.putenv "RIOT_JOBS" "0";
  check_int "RIOT_JOBS=0 -> 1" 1 (Pool.default_jobs ());
  Unix.putenv "RIOT_JOBS" "lots";
  check_int "RIOT_JOBS garbage -> 1" 1 (Pool.default_jobs ());
  Unix.putenv "RIOT_JOBS" ""

(* --- parallel_for --------------------------------------------------------- *)

(* Each index runs exactly once, whatever n is against jobs. *)
let test_parallel_for_counts () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun n ->
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.parallel_for pool ~n (fun i -> Atomic.incr hits.(i));
          check_bool
            (Printf.sprintf "n=%d: every index once" n)
            true
            (Array.for_all (fun h -> Atomic.get h = 1) hits))
        [ 0; 1; 2; 3; 7; 100 ]);
  check_bool "negative n rejected" true
    (try
       Pool.with_pool ~jobs:2 (fun pool -> Pool.parallel_for pool ~n:(-1) ignore);
       false
     with Invalid_argument _ -> true)

(* jobs = 1 spawns nothing and is the plain loop, in order, on the caller. *)
let test_parallel_for_jobs1 () =
  let spawned = Pool.spawned () in
  let id0 = (Domain.self () :> int) in
  let seen = ref [] and domains = ref [] in
  Pool.with_pool ~jobs:1 (fun pool ->
      Pool.parallel_for pool ~n:20 (fun i ->
          seen := i :: !seen;
          domains := (Domain.self () :> int) :: !domains));
  Alcotest.check ints "in order" (List.init 20 Fun.id) (List.rev !seen);
  check_bool "all on the calling domain" true (List.for_all (( = ) id0) !domains);
  check_int "no domain spawned" 0 (Pool.spawned () - spawned)

(* A chunk's exception reaches the caller, at jobs = 1 and above, and the
   pool keeps serving batches afterwards; many small batches reuse it, with
   the workers spinning between batches or sleeping. *)
let test_parallel_for_exception_reuse () =
  List.iter
    (fun (jobs, spin) ->
      let what s = Printf.sprintf "jobs=%d spin=%b: %s" jobs spin s in
      Pool.with_pool ~jobs ~spin (fun pool ->
          check_bool (what "exception re-raised") true
            (try
               Pool.parallel_for pool ~n:8 (fun i -> if i = 5 then raise (Boom i));
               false
             with Boom 5 -> true);
          let total = Atomic.make 0 in
          for _ = 1 to 200 do
            Pool.parallel_for pool ~n:2 (fun i -> ignore (Atomic.fetch_and_add total (i + 1)))
          done;
          check_int (what "200 batches after a failure") 600 (Atomic.get total)))
    [ (1, false); (2, false); (3, false); (2, true); (3, true) ]

(* Many small batches back to back: a worker that misses a batch's start
   (the caller ran it whole and closed it) must skip it, never run its
   bodies late.  Each batch has its own counters; every index runs once
   before parallel_for returns, and the previous batch's counters still
   read one after the next batch has run. *)
let test_parallel_for_stress () =
  List.iter
    (fun spin ->
      Pool.with_pool ~jobs:2 ~spin (fun pool ->
          let what fmt = Printf.ksprintf (fun s -> Printf.sprintf "spin=%b: %s" spin s) fmt in
          let check_once b counts =
            Array.iteri
              (fun i c ->
                if Atomic.get c <> 1 then
                  Alcotest.failf "%s" (what "batch %d index %d ran %d times" b i (Atomic.get c)))
              counts
          in
          let prev = ref [||] in
          for b = 0 to 9_999 do
            let counts = Array.init (2 + (b mod 4)) (fun _ -> Atomic.make 0) in
            Pool.parallel_for pool ~n:(Array.length counts) (fun i -> Atomic.incr counts.(i));
            check_once b counts;
            check_once (b - 1) !prev;
            prev := counts
          done))
    [ false; true ]

let qcheck_pool =
  [ QCheck.Test.make ~name:"pool: parallel_map = List.map" ~count:100
      QCheck.(pair (int_range 1 6) (small_list int))
      (fun (jobs, xs) ->
        Pool.parallel_map ~jobs (fun x -> (2 * x) - 1) xs
        = List.map (fun x -> (2 * x) - 1) xs);
    QCheck.Test.make ~name:"pool: parallel_filter_map = List.filter_map" ~count:100
      QCheck.(pair (int_range 1 6) (small_list int))
      (fun (jobs, xs) ->
        let f x = if x land 1 = 0 then Some (x asr 1) else None in
        Pool.parallel_filter_map ~jobs f xs = List.filter_map f xs)
  ]

let suite =
  ( "pool",
    [ Alcotest.test_case "order preserved" `Quick test_map_order;
      Alcotest.test_case "jobs=1 identity" `Quick test_jobs1_identity;
      Alcotest.test_case "filter_map" `Quick test_filter_map;
      Alcotest.test_case "exception propagation" `Quick test_exceptions;
      Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
      Alcotest.test_case "create/shutdown" `Quick test_create_shutdown;
      Alcotest.test_case "RIOT_JOBS env" `Quick test_riot_jobs_env;
      Alcotest.test_case "parallel_for: each index once" `Quick test_parallel_for_counts;
      Alcotest.test_case "parallel_for: jobs=1 is the loop" `Quick test_parallel_for_jobs1;
      Alcotest.test_case "parallel_for: exception, reuse" `Quick
        test_parallel_for_exception_reuse;
      Alcotest.test_case "parallel_for: 10000 small batches" `Quick
        test_parallel_for_stress ]
    @ List.map QCheck_alcotest.to_alcotest qcheck_pool )
