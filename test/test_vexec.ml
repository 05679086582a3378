(* Fused execution: unfused = fused, the fusion pass fires where it should,
   a fused run narrates the plan's step structure, and the fusion analysis
   is a legal partition.  The unfused = fused contract (byte-identical
   arrays, identical per-array I/O and virtual disk time, interchangeable
   journals) is checked by Riotshare.Differential; the properties here are
   thin calls into it (test_differential.ml). *)

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
module Trace = Riot_plan.Trace
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Rand_prog = Riot_ops.Rand_prog
module Differential = Riotshare.Differential

let ref_params = Rand_prog.ref_params

let seed_gen =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d (%s=%d)" s Rand_prog.seed_env_var
        (Rand_prog.master_seed ()))
    QCheck.Gen.(int_range 0 100000)

(* Unfused = fused: every plan of a case runs the unfused reference and the
   fused sync DAF sim point, and the harness compares their arrays, per-array
   I/O and virtual disk time.  Element-wise chains make the fusion pass fire
   (and its singles path run on plans that don't realize the sharing);
   opaque nests exercise the compiled surrogate kernels; the thinner sweep
   through optimizer-found plans crosses reordered schedules (the search per
   program is ~10-100x the cost of the differential itself). *)
let prop_differential_ew =
  QCheck.Test.make ~name:"vexec: interpret = vector on element-wise chains"
    ~count:500 seed_gen (fun seed -> Test_differential.(holds (ew_seed seed)))

let prop_differential_opaque =
  QCheck.Test.make ~name:"vexec: interpret = vector on opaque programs"
    ~count:500 seed_gen (fun seed -> Test_differential.(holds (opaque_seed seed)))

let prop_differential_search =
  QCheck.Test.make ~name:"vexec: interpret = vector on searched plans"
    ~count:25 seed_gen (fun seed -> Test_differential.(holds (searched_seed seed)))

(* A journalled fused run, crashed at operations spread over the plan, must
   leave a watermark the static analysis marked safe, and its unfused resume
   must leave the reference output; no safe boundary may restart strictly
   inside a fused group (the harness's static contract), so the engine's
   unfused fallback for such a point is never needed. *)
let prop_journal_watermarks =
  QCheck.Test.make ~name:"vexec: journalled run leaves safe watermarks"
    ~count:250 seed_gen (fun seed ->
      Test_differential.(holds ~points:(fun _ -> fused_crashes 3) (ew_seed seed)))

(* Structural invariants of the fusion analysis itself: an ordered partition
   of the step range whose links are single-producer single-consumer
   adjacent elided intermediates. *)
let prop_fuse_invariants =
  QCheck.Test.make ~name:"vexec: fusion analysis is a legal partition"
    ~count:250 seed_gen (fun seed ->
      (* Odd seeds draw element-wise chains with their direct plans. *)
      let c = Differential.case_of_seed ((2 * seed) + 1) in
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
        c.Differential.plans)

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
        let c = Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q in
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
  (* Each unit of the lowered program runs one [Kernel] op over its step
     range: a fused chain spans several steps. *)
  let spans (c : Vexec.compiled) =
    List.filter_map
      (function Cplan.Kernel { lo; hi } -> Some (hi - lo + 1) | _ -> None)
      (Array.to_list c.Vexec.program.Cplan.ops)
  in
  let compiled = Vexec.compiled_for cplan in
  Alcotest.(check bool) "compile sees the fusion" true (compiled.Vexec.n_fused > 0);
  Alcotest.(check bool) "a fused kernel op exists" true
    (List.exists (fun s -> s > 1) (spans compiled));
  (* The cache keys on fuse as well as the plan: the unfused request on the
     same physical plan must not be handed the fused compile. *)
  let unfused = Vexec.compiled_for ~fuse:false cplan in
  Alcotest.(check int) "unfused compile has no fused groups" 0 unfused.Vexec.n_fused;
  Alcotest.(check bool) "unfused compile has no fused kernel op" false
    (List.exists (fun s -> s > 1) (spans unfused));
  Alcotest.(check bool) "the 3-stage chain is one kernel op over 3 steps" true
    (List.mem 3 (spans compiled));
  let t = Differential.tally () in
  Differential.check_case t
    { Differential.name = "chain3"; prog; config; opaque = false; plans = [ cplan ] }
    (fun _ _ -> []);
  Alcotest.(check (list string)) "fused plan is differentially clean" []
    t.Differential.mismatches

(* The vectorized trace replays the interpreted step structure: one
   Step_begin/Step_end bracket per plan step in order, the plan's reads and
   (first) writes inside it, and balanced pins. *)
let test_vector_trace () =
  let prog, config, cplan = fused_plan () in
  let events = ref [] in
  let sink = { Trace.emit = (fun e -> events := e :: !events) } in
  let backend = Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. () in
  let format = Block_store.Daf_format in
  let stores = Engine.stores_for backend ~format ~config in
  Differential.load_inputs prog config stores;
  let r =
    Engine.run ~stores ~trace:sink cplan ~backend ~format
      ~mem_cap:cplan.Cplan.peak_memory
  in
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

(* Pinned regression seeds: cheap deterministic replays of unfused = fused
   on both distributions, at every format and disk (kept `Quick so the
   tier-1 run crosses the executors too). *)
let test_pinned_seeds () =
  let fused_points _ _ =
    List.concat_map
      (fun format ->
        List.map (fun disk -> Test_differential.at ~fused:true ~format ~disk ())
          [ Differential.Sim; File ])
      [ Block_store.Daf_format; Lab_format ]
  in
  Test_differential.pinned ~points:fused_points [ 0; 1; 2; 3; 5; 7 ]

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
