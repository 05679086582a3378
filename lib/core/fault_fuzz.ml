module Failpoint = Riot_base.Failpoint
module Array_info = Riot_ir.Array_info
module Config = Riot_ir.Config
module Program = Riot_ir.Program
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Cplan = Riot_plan.Cplan
module Engine = Riot_exec.Engine
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Io_stats = Riot_storage.Io_stats
module Rand_prog = Riot_ops.Rand_prog

type result = {
  programs : int;
  plans : int;
  verified_plans : int;
  crash_cases : int;
  recoveries : int;
  complete_cases : int;
  transient_cases : int;
  vector_cases : int;
  async_cases : int;
  faults_injected : int;
  retries : int;
  mismatches : string list;
}

let format = Block_store.Daf_format

let mk_backend () =
  Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. ()

(* Deterministic input data: Input arrays pre-exist on disk; Intermediate
   and Output arrays start empty (reads of never-written blocks see
   zeroes, identically in every incarnation). *)
let load_inputs (prog : Program.t) (config : Config.t) stores =
  List.iter
    (fun (a : Array_info.t) ->
      if a.Array_info.kind = Array_info.Input then begin
        let st = List.assoc a.Array_info.name stores in
        let layout = Config.layout config a.Array_info.name in
        let n = Config.block_elems_total layout in
        for i = 0 to layout.Config.grid.(0) - 1 do
          for j = 0 to layout.Config.grid.(1) - 1 do
            let data =
              Array.init n (fun e ->
                  float_of_int
                    (Hashtbl.hash (a.Array_info.name, i, j, e) land 0xFF))
            in
            Block_store.write_floats st [ i; j ] data
          done
        done
      end)
    prog.Program.arrays

(* Full contents of every array stream (the journal stream is not an
   array and is deliberately excluded). *)
let snapshot backend stores =
  List.map
    (fun (name, st) ->
      let stream = Block_store.stream_name st in
      let len = backend.Backend.size ~name:stream in
      (name, if len = 0 then Bytes.empty else backend.Backend.pread ~name:stream ~off:0 ~len))
    stores
  |> List.sort compare

(* Pick up to [k] well-spread plans: always the base schedule, then evenly
   through the enumeration (richer realized sets come later). *)
let select_plans k (plans : Search.plan list) =
  let n = List.length plans in
  if n <= k then plans
  else
    let want = List.init k (fun c -> c * (n - 1) / (max 1 (k - 1))) in
    List.filteri (fun i _ -> List.mem i want) plans

let counts (s : Io_stats.t) =
  (s.Io_stats.reads, s.Io_stats.writes, s.Io_stats.bytes_read, s.Io_stats.bytes_written)

let campaign ?(seed = 0) ?(min_crash_cases = 200) ?(plans_per_program = 2)
    ?(crash_points = 12) () =
  let programs = ref 0
  and plans_run = ref 0
  and verified = ref 0
  and crash_cases = ref 0
  and recoveries = ref 0
  and complete_cases = ref 0
  and transient_cases = ref 0
  and faults = ref 0
  and retries = ref 0
  and mismatches = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  let vector_cases = ref 0 in
  let async_cases = ref 0 in
  let max_programs = max 4 (min_crash_cases / 2) in
  let sp = ref seed in
  while !crash_cases < min_crash_cases && !programs < max_programs do
    let case_seed = !sp in
    incr sp;
    incr programs;
    (* Alternate the two distributions: opaque nests (even seeds) keep the
       historical coverage, element-wise chains (odd seeds) push crash
       points inside fused steps. *)
    let with_prog =
      if case_seed mod 2 = 0 then Rand_prog.with_program
      else Rand_prog.with_ew_program
    in
    with_prog case_seed (fun prog ->
        let config = Rand_prog.config_for prog in
        let ref_params = Rand_prog.ref_params in
        let analysis = Deps.extract prog ~ref_params in
        let all_plans, _ = Search.enumerate ~max_size:2 prog ~analysis ~ref_params in
        let chosen = select_plans plans_per_program all_plans in
        List.iteri
          (fun pi (p : Search.plan) ->
            incr plans_run;
            let where k = Printf.sprintf "seed=%d plan=%d op=%d" case_seed pi k in
            let cplan =
              Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q
            in
            let mem_cap = cplan.Cplan.peak_memory in
            (* Every legal plan must verify statically before we crash-test
               it: an Error diagnostic here is a planner or verifier bug
               either way.  Opaque random programs (even seeds) legitimately
               read never-written blocks (the zeros contract), so only the
               DF003 warning is tolerated there; element-wise chains must be
               fully clean. *)
            let vr = Engine.verify ~cap_bytes:mem_cap cplan in
            let tolerable (d : Riot_plan.Plan_verify.diag) =
              case_seed mod 2 = 0
              && d.Riot_plan.Plan_verify.severity = Riot_plan.Plan_verify.Warning
              && d.Riot_plan.Plan_verify.code = "DF003"
            in
            if List.for_all tolerable vr.Riot_plan.Plan_verify.diags then
              incr verified
            else
              fail "%s: static verification: %s" (where 0)
                (Format.asprintf "@[<v>%a@]" Riot_plan.Plan_verify.pp_report vr);
            let run ?journal ?resume ?(mode = Engine.Vector) backend =
              let stores = Engine.stores_for backend ~format ~config in
              ignore
                (Engine.run ~compute:true ~stores ?journal ?resume ~mode cplan
                   ~backend ~format ~mem_cap);
              stores
            in
            (* Clean reference, computed by an unfused run: every fused run
               below is also a differential check against it. *)
            Failpoint.reset ();
            let clean = mk_backend () in
            load_inputs prog config (Engine.stores_for clean ~format ~config);
            Io_stats.reset clean.Backend.stats;
            let cstores = run ~mode:Engine.Interpret clean in
            let reference = snapshot clean cstores in
            let clean_counts = counts clean.Backend.stats in
            (* Probe the operation count with a crash point beyond reach;
               doubles as a journalled unfused-vs-fused equivalence
               check. *)
            let probe = mk_backend () in
            load_inputs prog config (Engine.stores_for probe ~format ~config);
            Failpoint.reset ();
            Failpoint.arm Backend.fp_crash (Failpoint.Nth max_int);
            let pstores = run ~journal:true (Backend.faulty probe) in
            let ops = Failpoint.hits Backend.fp_crash in
            Failpoint.reset ();
            incr vector_cases;
            if snapshot probe pstores <> reference then
              fail "%s: journalled fused run diverged" (where 0);
            (* Crash sweep: kill at operation k, restart, compare.  The
               crashing incarnation alternates modes with k, and the
               restart runs the OTHER one: a journal written under either
               mode must resume correctly under either (watermark records
               are plan-based, and a fused run only journals boundaries an
               unfused run would too). *)
            let ks =
              List.sort_uniq compare
                (List.init crash_points (fun c ->
                     1 + (c * (ops - 1) / max 1 (crash_points - 1))))
            in
            List.iter
              (fun k ->
                let crash_mode, resume_mode =
                  if k mod 2 = 0 then (Engine.Vector, Engine.Interpret)
                  else (Engine.Interpret, Engine.Vector)
                in
                let b = mk_backend () in
                load_inputs prog config (Engine.stores_for b ~format ~config);
                Failpoint.reset ();
                Failpoint.arm Backend.fp_crash (Failpoint.Nth k);
                (match run ~journal:true ~mode:crash_mode (Backend.faulty b) with
                | (_ : (string * Block_store.t) list) -> incr complete_cases
                | exception Backend.Crash _ -> (
                    incr crash_cases;
                    faults := !faults + b.Backend.stats.Io_stats.faults_injected;
                    if b.Backend.stats.Io_stats.faults_injected <> 1 then
                      fail "%s: crash counted %d faults" (where k)
                        b.Backend.stats.Io_stats.faults_injected;
                    Failpoint.reset ();
                    (* Restart on the surviving disk: no faults, resume. *)
                    match run ~journal:true ~resume:true ~mode:resume_mode b with
                    | rstores ->
                        if resume_mode = Engine.Vector then incr vector_cases;
                        if snapshot b rstores = reference then incr recoveries
                        else fail "%s: resumed output diverged" (where k)
                    | exception e ->
                        fail "%s: resume raised %s" (where k) (Printexc.to_string e)));
                Failpoint.reset ())
              ks;
            (* Transient faults under the retry wrapper: output and I/O
               totals must match the clean run exactly. *)
            let b = mk_backend () in
            load_inputs prog config (Engine.stores_for b ~format ~config);
            Io_stats.reset b.Backend.stats;
            Failpoint.reset ();
            Failpoint.arm Backend.fp_read_error (Failpoint.Every 3);
            Failpoint.arm Backend.fp_write_error (Failpoint.Every 4);
            Failpoint.arm Backend.fp_read_short (Failpoint.Nth 2);
            let policy =
              { Backend.default_retry_policy with attempts = 8; sleep = ignore }
            in
            (match run (Backend.retrying ~policy (Backend.faulty b)) with
            | tstores ->
                incr transient_cases;
                incr vector_cases;
                let s = b.Backend.stats in
                faults := !faults + s.Io_stats.faults_injected;
                retries := !retries + s.Io_stats.retries;
                if snapshot b tstores <> reference then
                  fail "%s: transient-fault output diverged" (where 0);
                if s.Io_stats.retries <> s.Io_stats.faults_injected then
                  fail "%s: %d faults but %d retries" (where 0)
                    s.Io_stats.faults_injected s.Io_stats.retries;
                if counts s <> clean_counts then
                  fail "%s: I/O totals diverged under retry (double counting?)"
                    (where 0)
            | exception e ->
                fail "transient seed=%d plan=%d raised %s" case_seed pi
                  (Printexc.to_string e));
            Failpoint.reset ();
            (* Async storage tier, transient faults: route the same plan
               through [Backend.with_async] with the retry wrapper inside
               the queue (retries happen on the I/O domain).  The snapshot
               is taken on the raw inner disk after the wrapper drained and
               shut down, so write-behind must have landed every block, and
               the totals must equal the clean run's — read-ahead never
               changes the physical request set. *)
            let b = mk_backend () in
            load_inputs prog config (Engine.stores_for b ~format ~config);
            Io_stats.reset b.Backend.stats;
            Failpoint.reset ();
            Failpoint.arm Backend.fp_read_error (Failpoint.Every 5);
            Failpoint.arm Backend.fp_write_error (Failpoint.Every 7);
            Failpoint.arm Backend.fp_read_short (Failpoint.Nth 1);
            (match
               Backend.with_async
                 (Backend.retrying ~policy (Backend.faulty b))
                 (fun ab ->
                   ignore
                     (Engine.run ~compute:true
                        ~stores:(Engine.stores_for ab ~format ~config)
                        ~mode:Engine.Vector cplan ~backend:ab ~format ~mem_cap))
             with
            | () ->
                incr async_cases;
                incr vector_cases;
                let s = b.Backend.stats in
                faults := !faults + s.Io_stats.faults_injected;
                retries := !retries + s.Io_stats.retries;
                let astores = Engine.stores_for b ~format ~config in
                if snapshot b astores <> reference then
                  fail "%s: async transient output diverged" (where 0);
                if s.Io_stats.retries <> s.Io_stats.faults_injected then
                  fail "%s: async: %d faults but %d retries" (where 0)
                    s.Io_stats.faults_injected s.Io_stats.retries;
                if counts s <> clean_counts then
                  fail "%s: async I/O totals diverged from sync" (where 0)
            | exception e ->
                fail "async transient seed=%d plan=%d raised %s" case_seed pi
                  (Printexc.to_string e));
            Failpoint.reset ();
            (* Async crash sweep (every third point of the sync sweep): the
               crash fires on the I/O domain — often between an issued
               prefetch and its consuming read, or inside a deferred
               write-behind — and surfaces at the engine's next blocking
               storage operation.  The surviving disk may hold writes that
               were enqueued after the failed operation, exactly the
               volatile-write-cache reordering the journal's sync barriers
               defend against; recovery must still restore a consistent
               prefix.  The restart runs synchronously on the raw disk. *)
            List.iteri
              (fun i k ->
                if i mod 3 = 0 then begin
                  let b = mk_backend () in
                  load_inputs prog config (Engine.stores_for b ~format ~config);
                  Failpoint.reset ();
                  Failpoint.arm Backend.fp_crash (Failpoint.Nth k);
                  (match
                     Backend.with_async (Backend.faulty b) (fun ab ->
                         ignore
                           (Engine.run ~compute:true
                              ~stores:(Engine.stores_for ab ~format ~config)
                              ~journal:true ~mode:Engine.Vector cplan
                              ~backend:ab ~format ~mem_cap))
                   with
                  | () -> incr complete_cases
                  | exception Backend.Crash _ -> (
                      incr crash_cases;
                      incr async_cases;
                      faults := !faults + b.Backend.stats.Io_stats.faults_injected;
                      Failpoint.reset ();
                      match run ~journal:true ~resume:true ~mode:Engine.Interpret b with
                      | rstores ->
                          if snapshot b rstores = reference then incr recoveries
                          else fail "%s: async resumed output diverged" (where k)
                      | exception e ->
                          fail "%s: async resume raised %s" (where k)
                            (Printexc.to_string e))
                  | exception e ->
                      fail "%s: async crash case raised %s" (where k)
                        (Printexc.to_string e));
                  Failpoint.reset ()
                end)
              ks)
          chosen)
  done;
  { programs = !programs;
    plans = !plans_run;
    verified_plans = !verified;
    crash_cases = !crash_cases;
    recoveries = !recoveries;
    complete_cases = !complete_cases;
    transient_cases = !transient_cases;
    vector_cases = !vector_cases;
    async_cases = !async_cases;
    faults_injected = !faults;
    retries = !retries;
    mismatches = List.rev !mismatches }
