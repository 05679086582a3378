(* Differential tests for fused execution.

   The contract under test (see Engine.mode): for any program and any legal
   plan, the unfused ([Interpret]) and fused ([Vector]) runs of the compiled
   plan produce byte-identical array streams, identical physical I/O
   (request and byte counts, virtual disk time, per-array breakdown) and
   interchangeable journals, whenever the memory cap admits the plan's peak
   (so neither mode evicts).  Both modes share one kernel table, so this
   checks fusion, not the kernels; test_exec's and test_kernels' dense
   references check those.

   Programs draw from both Rand_prog distributions: gen_ew's element-wise
   chains make the fusion pass fire (and its singles path run on plans that
   don't realize the sharing); gen's opaque nests exercise the compiled
   surrogate kernels.  All seeds derive from RIOT_TEST_SEED (default 77). *)

module B = Riot_ir.Build
module Array_info = Riot_ir.Array_info
module Access = Riot_ir.Access
module Kernel = Riot_ir.Kernel
module Program = Riot_ir.Program
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Cplan = Riot_plan.Cplan
module Fuse = Riot_plan.Fuse
module Engine = Riot_exec.Engine
module Vexec = Riot_exec.Vexec
module Journal = Riot_exec.Journal
module Trace = Riot_plan.Trace
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Rand_prog = Riot_ops.Rand_prog
module Fault_fuzz = Riotshare.Fault_fuzz

let ref_params = Rand_prog.ref_params
let format = Block_store.Daf_format

let seed_gen =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d (%s=%d)" s Rand_prog.seed_env_var
        (Rand_prog.master_seed ()))
    QCheck.Gen.(int_range 0 100000)

let mk_backend () =
  Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. ()

let plans_for ?(max_size = 2) ?(take = 3) prog =
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Search.enumerate ~max_size prog ~analysis ~ref_params in
  Fault_fuzz.select_plans take plans

(* Realized sets without the optimizer search: any subset of the extracted
   sharing is realizable under the ORIGINAL schedule by construction — a
   co-access extent only contains pairs ordered by the original execution,
   and [Cplan.build] pins the shared block between the two endpoints, which
   [peak_memory] (our mem_cap) then admits.  This sidesteps the Farkas
   schedule search, whose cost on random programs would dwarf the executors
   under test, and reliably yields fused runs: chain links are adjacent
   under the original interleaving, so their writes elide and fusion fires.
   Returns the base plan, the write-rooted subset (W->R links and W->W
   elisions) and, when strictly larger, the full sharing. *)
let direct_qs prog =
  let analysis = Deps.extract prog ~ref_params in
  let sharing = analysis.Deps.sharing in
  let writes =
    List.filter
      (fun (c : Riot_analysis.Coaccess.t) ->
        c.Riot_analysis.Coaccess.src_typ = Access.Write)
      sharing
  in
  [ [] ]
  @ (match writes with [] -> [] | _ -> [ writes ])
  @ (if List.length sharing > List.length writes then [ sharing ] else [])

let direct_cplans prog config =
  List.map
    (fun q ->
      Cplan.build prog ~config ~sched:prog.Riot_ir.Program.original ~realized:q)
    (direct_qs prog)

let build prog config (p : Search.plan) =
  Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q

(* One run: fresh simulated disk, deterministic inputs, full-array snapshot. *)
let run_mode ?journal ?trace prog config cplan mode =
  let backend = mk_backend () in
  let stores = Engine.stores_for backend ~format ~config in
  Fault_fuzz.load_inputs prog config stores;
  let r =
    Engine.run ~compute:true ~stores ?journal ?trace ~mode cplan ~backend
      ~format ~mem_cap:cplan.Cplan.peak_memory
  in
  (r, Fault_fuzz.snapshot backend stores, backend)

(* The differential contract deliberately excludes wall_seconds (timing) and
   pool_peak_bytes (fused chains hold intermediates in a scratch tile, not
   pool buffers). *)
let same_io (a : Engine.result) (b : Engine.result) =
  a.Engine.reads = b.Engine.reads
  && a.Engine.writes = b.Engine.writes
  && a.Engine.bytes_read = b.Engine.bytes_read
  && a.Engine.bytes_written = b.Engine.bytes_written
  && a.Engine.virtual_io_seconds = b.Engine.virtual_io_seconds
  && a.Engine.per_array = b.Engine.per_array

let differential prog config cplan =
  let ri, si, _ = run_mode prog config cplan Engine.Interpret in
  let rv, sv, _ = run_mode prog config cplan Engine.Vector in
  si = sv && same_io ri rv

let prop_differential_ew =
  QCheck.Test.make ~name:"vexec: interpret = vector on element-wise chains"
    ~count:500 seed_gen (fun seed ->
      Rand_prog.with_ew_program seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.for_all (differential prog config) (direct_cplans prog config)))

let prop_differential_opaque =
  QCheck.Test.make ~name:"vexec: interpret = vector on opaque programs"
    ~count:500 seed_gen (fun seed ->
      Rand_prog.with_program seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.for_all (differential prog config) (direct_cplans prog config)))

(* A thinner sweep through optimizer-found plans (the Farkas search per
   program is ~10-100x the cost of the differential itself): reordered
   schedules cross the executors too. *)
let prop_differential_search =
  QCheck.Test.make ~name:"vexec: interpret = vector on searched plans"
    ~count:25 seed_gen (fun seed ->
      let with_prog =
        if seed mod 2 = 0 then Rand_prog.with_program
        else Rand_prog.with_ew_program
      in
      with_prog seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.for_all
            (fun p -> differential prog config (build prog config p))
            (plans_for ~take:2 prog)))

(* A journalled fused run must (a) leave the same bytes as the plain
   unfused run, (b) leave a recoverable journal whose watermark the static
   analysis marked safe (a fused run journals only the latest safe boundary
   of each fused range), and (c) never meet a restart point strictly inside
   a fused group at any safe boundary - the engine's unfused fallback for
   such a point is never needed. *)
let prop_journal_watermarks =
  QCheck.Test.make ~name:"vexec: journalled run leaves safe watermarks"
    ~count:250 seed_gen (fun seed ->
      Rand_prog.with_ew_program seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.for_all
            (fun cplan ->
              let _, reference, _ =
                run_mode prog config cplan Engine.Interpret
              in
              let _, sv, backend =
                run_mode ~journal:true prog config cplan Engine.Vector
              in
              let rp = Journal.analyze cplan in
              let wm_ok =
                match
                  Journal.recover backend
                    ~fingerprint:(Journal.fingerprint cplan)
                with
                | None -> true (* no safe boundary in the whole plan *)
                | Some { Journal.watermark; _ } ->
                    watermark >= 0
                    && watermark < Array.length cplan.Cplan.steps
                    && rp.Journal.safe.(watermark)
              in
              let groups = Fuse.analyze cplan in
              let restarts_ok =
                Array.for_all2
                  (fun safe r ->
                    (not safe)
                    || not
                         (List.exists
                            (fun (g : Fuse.group) -> r > g.Fuse.lo && r <= g.Fuse.hi)
                            groups))
                  rp.Journal.safe rp.Journal.restart
              in
              wm_ok && restarts_ok && sv = reference)
            (direct_cplans prog config)))

(* Structural invariants of the fusion analysis itself: an ordered partition
   of the step range whose links are single-producer single-consumer
   adjacent elided intermediates. *)
let prop_fuse_invariants =
  QCheck.Test.make ~name:"vexec: fusion analysis is a legal partition"
    ~count:250 seed_gen (fun seed ->
      Rand_prog.with_ew_program seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.for_all
            (fun cplan ->
              let n = Array.length cplan.Cplan.steps in
              let groups = Fuse.analyze cplan in
              let rec partition_ok expect = function
                | [] -> expect = n
                | (g : Fuse.group) :: rest ->
                    g.Fuse.lo = expect
                    && g.Fuse.hi >= g.Fuse.lo
                    && g.Fuse.hi < n
                    && List.length g.Fuse.links = g.Fuse.hi - g.Fuse.lo
                    && partition_ok (g.Fuse.hi + 1) rest
              in
              let links_ok =
                List.for_all
                  (fun (g : Fuse.group) ->
                    List.for_all2
                      (fun o link ->
                        let producer = cplan.Cplan.steps.(g.Fuse.lo + o) in
                        let consumer = cplan.Cplan.steps.(g.Fuse.lo + o + 1) in
                        List.exists
                          (fun (_, b, d) -> b = link && d = Cplan.Elided)
                          producer.Cplan.writes
                        && List.exists
                             (fun (_, b, s) ->
                               b = link && s = Cplan.From_memory)
                             consumer.Cplan.reads
                        (* single producer, single consumer, all in-range *)
                        && Array.for_all
                             (fun (st : Cplan.step) ->
                               List.for_all (fun (_, b, _) -> b <> link)
                                 st.Cplan.writes
                               || st == producer)
                             cplan.Cplan.steps
                        && Array.for_all
                             (fun (st : Cplan.step) ->
                               List.for_all (fun (_, b, _) -> b <> link)
                                 st.Cplan.reads
                               || st == consumer)
                             cplan.Cplan.steps)
                      (List.init (List.length g.Fuse.links) Fun.id)
                      g.Fuse.links)
                  groups
              in
              partition_ok 0 groups && links_ok)
            (direct_cplans prog config)))

(* --- deterministic cases --------------------------------------------------- *)

(* A three-stage chain the optimizer can fuse end to end:
     s1: T1 = A + B;  s2: T2 = foreach T1;  s3: OUT = T2 - B *)
let chain_prog () =
  let arrays =
    [ Array_info.make ~kind:Array_info.Input "A" ~ndims:2;
      Array_info.make ~kind:Array_info.Input "B" ~ndims:2;
      Array_info.make ~kind:Array_info.Intermediate "T1" ~ndims:2;
      Array_info.make ~kind:Array_info.Intermediate "T2" ~ndims:2;
      Array_info.make ~kind:Array_info.Output "OUT" ~ndims:2 ]
  in
  let ids = [ B.var "v0"; B.var "v1" ] in
  B.program ~name:"chain3" ~params:[ "n" ] ~arrays
    [ B.for_ "v0" ~lo:(B.cst 0) ~hi:(B.var "n")
        [ B.for_ "v1" ~lo:(B.cst 0) ~hi:(B.var "n")
            [ B.stmt "s1" ~kernel:Kernel.Assign_add
                ~accs:
                  [ (Access.Write, "T1", ids, []);
                    (Access.Read, "A", ids, []);
                    (Access.Read, "B", ids, []) ];
              B.stmt "s2" ~kernel:Kernel.Foreach
                ~accs:
                  [ (Access.Write, "T2", ids, []);
                    (Access.Read, "T1", ids, []) ];
              B.stmt "s3" ~kernel:Kernel.Assign_sub
                ~accs:
                  [ (Access.Write, "OUT", ids, []);
                    (Access.Read, "T2", ids, []);
                    (Access.Read, "B", ids, []) ] ] ] ]

let fused_plan () =
  let prog = chain_prog () in
  let config = Rand_prog.config_for prog in
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Search.enumerate ~max_size:4 prog ~analysis ~ref_params in
  let fused_steps c =
    List.fold_left
      (fun acc (g : Fuse.group) -> acc + (g.Fuse.hi - g.Fuse.lo))
      0 (Fuse.analyze c)
  in
  let best =
    List.fold_left
      (fun acc (p : Search.plan) ->
        let c = build prog config p in
        match acc with
        | Some (_, c') when fused_steps c' >= fused_steps c -> acc
        | _ -> Some (p, c))
      None plans
  in
  match best with
  | Some (_, cplan) -> (prog, config, cplan)
  | None -> Alcotest.fail "no plans enumerated for chain3"

let test_fusion_fires () =
  let prog, config, cplan = fused_plan () in
  let groups = Fuse.analyze cplan in
  Alcotest.(check bool)
    "a multi-step fused group exists" true
    (Fuse.fused_groups groups > 0);
  let compiled = Vexec.compiled_for cplan in
  Alcotest.(check bool) "compile sees the fusion" true (compiled.Vexec.n_fused > 0);
  (* The cache keys on fuse as well as the plan: the unfused request on the
     same physical plan must not be handed the fused compile. *)
  Alcotest.(check int) "unfused compile has no fused groups" 0
    (Vexec.compiled_for ~fuse:false cplan).Vexec.n_fused;
  let full_chain =
    Array.exists
      (function
        | Vexec.Fused f -> Array.length f.Vexec.f_steps = 3
        | Vexec.Single _ -> false)
      compiled.Vexec.ops
  in
  Alcotest.(check bool) "the 3-stage chain fuses end to end" true full_chain;
  Alcotest.(check bool)
    "fused plan is differentially clean" true
    (differential prog config cplan)

(* The vectorized trace replays the interpreted step structure: one
   Step_begin/Step_end bracket per plan step in order, the plan's reads and
   (first) writes inside it, and balanced pins. *)
let test_vector_trace () =
  let prog, config, cplan = fused_plan () in
  let events = ref [] in
  let sink = { Trace.emit = (fun e -> events := e :: !events) } in
  let r, _, _ = run_mode ~trace:sink prog config cplan Engine.Vector in
  let events = List.rev !events in
  let n = Array.length cplan.Cplan.steps in
  (* step brackets *)
  let begins =
    List.filter_map
      (function Trace.Step_begin { step; _ } -> Some step | _ -> None)
      events
  in
  let ends =
    List.filter_map
      (function Trace.Step_end { step; _ } -> Some step | _ -> None)
      events
  in
  Alcotest.(check (list int)) "every step begins in order" (List.init n Fun.id) begins;
  Alcotest.(check (list int)) "every step ends in order" (List.init n Fun.id) ends;
  (* per-step reads and writes replay the plan *)
  let reads_at i =
    List.filter_map
      (function
        | Trace.Read { step; array; index; src } when step = i ->
            Some
              ( array,
                index,
                match src with Trace.Disk -> Cplan.From_disk | Trace.Memory -> Cplan.From_memory )
        | _ -> None)
      events
  in
  let writes_at i =
    List.filter_map
      (function
        | Trace.Write { step; array; index; elided } when step = i ->
            Some (array, index, elided)
        | _ -> None)
      events
  in
  Array.iteri
    (fun i (st : Cplan.step) ->
      let planned_reads =
        List.map
          (fun (_, (b : Cplan.block), s) -> (b.Cplan.array, b.Cplan.index, s))
          st.Cplan.reads
      in
      let planned_writes =
        match st.Cplan.writes with
        | [] -> []
        | (_, (b : Cplan.block), d) :: _ ->
            [ (b.Cplan.array, b.Cplan.index, d = Cplan.Elided) ]
      in
      Alcotest.(check (list (triple string (list int) bool)))
        (Printf.sprintf "step %d writes replay the plan" i)
        planned_writes (writes_at i);
      if reads_at i <> planned_reads then
        Alcotest.failf "step %d reads do not replay the plan" i)
    cplan.Cplan.steps;
  let count p = List.length (List.filter p events) in
  Alcotest.(check int)
    "pins balance"
    (count (function Trace.Pin_open _ -> true | _ -> false))
    (count (function Trace.Pin_close _ -> true | _ -> false));
  (* physical I/O still equals the plan *)
  Alcotest.(check int) "reads = plan" cplan.Cplan.read_ops r.Engine.reads;
  Alcotest.(check int) "writes = plan" cplan.Cplan.write_ops r.Engine.writes

(* Pinned regression seeds: cheap deterministic replays of the differential
   property on both distributions (kept `Quick so the tier-1 run crosses the
   executors too). *)
let test_pinned_seeds () =
  List.iter
    (fun seed ->
      Rand_prog.with_ew_program seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.iter
            (fun p ->
              if not (differential prog config (build prog config p)) then
                Alcotest.failf "ew seed %d diverged" seed)
            (plans_for ~take:2 prog));
      Rand_prog.with_program seed (fun prog ->
          let config = Rand_prog.config_for prog in
          List.iter
            (fun p ->
              if not (differential prog config (build prog config p)) then
                Alcotest.failf "opaque seed %d diverged" seed)
            (plans_for ~take:2 prog)))
    [ 0; 1; 2; 3 ]

let suite =
  ( "vexec",
    [ Alcotest.test_case "fusion fires on a 3-stage chain" `Quick
        test_fusion_fires;
      Alcotest.test_case "vector trace replays the plan" `Quick
        test_vector_trace;
      Alcotest.test_case "pinned differential seeds" `Quick test_pinned_seeds ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_differential_ew;
          prop_differential_opaque;
          prop_differential_search;
          prop_journal_watermarks;
          prop_fuse_invariants ] )
