(* Static plan verification: the verifier must accept every legal plan the
   search produces (paper pipelines and random programs alike) and must
   flag each seeded violation the mutation harness plants — one mutation
   class per invariant family, each caught under its expected diagnostic
   code.  The pre-fix [Cplan.build] schedule-order bug is reconstructed
   explicitly and pinned to DF002. *)

module PV = Riot_plan.Plan_verify
module Cplan = Riot_plan.Cplan
module Program = Riot_ir.Program
module Access = Riot_ir.Access
module Config = Riot_ir.Config
module Coaccess = Riot_analysis.Coaccess
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Engine = Riot_exec.Engine
module Journal = Riot_exec.Journal
module Programs = Riot_ops.Programs
module Rand_prog = Riot_ops.Rand_prog
module Differential = Riotshare.Differential

let wm_of plan =
  let rp = Journal.analyze plan in
  { PV.wm_safe = rp.Journal.safe;
    wm_restart = rp.Journal.restart;
    wm_undo = rp.Journal.undo }

let plans_of ?max_size prog config =
  let ref_params = config.Config.params in
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Search.enumerate ?max_size prog ~analysis ~ref_params in
  List.map
    (fun (p : Search.plan) ->
      Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q)
    plans

(* A pool of legal plans with some variety: the paper's first two pipelines
   plus random programs from both generator distributions (element-wise
   chains fuse; opaque nests carry accumulations and anti-dependences, which
   feed the journal family). *)
let plan_pool =
  lazy
    (let paper =
       List.map
         (fun c -> ("add_mul", c))
         (plans_of (Programs.add_mul ()) Programs.table2)
       @ List.map
           (fun c -> ("two_matmuls", c))
           (plans_of ~max_size:1 (Programs.two_matmuls ())
              Programs.table3_config_a)
     in
     let random =
       List.concat_map
         (fun seed ->
           let with_prog =
             if seed mod 2 = 0 then Rand_prog.with_program
             else Rand_prog.with_ew_program
           in
           with_prog seed (fun prog ->
               let config = Rand_prog.config_for prog in
               let ref_params = Rand_prog.ref_params in
               let analysis = Deps.extract prog ~ref_params in
               let plans, _ =
                 Search.enumerate ~max_size:2 prog ~analysis ~ref_params
               in
               List.map
                 (fun (p : Search.plan) ->
                   ( Printf.sprintf "rand-%d" seed,
                     Cplan.build prog ~config ~sched:p.Search.sched
                       ~realized:p.Search.q ))
                 (Differential.select_plans 3 plans)))
         (List.init 10 Fun.id)
     in
     paper @ random)

let codes r = List.map (fun d -> d.PV.code) r.PV.diags

(* --- Legal plans are accepted --------------------------------------------- *)

let test_paper_plans_clean () =
  List.iter
    (fun (name, plan) ->
      if name = "add_mul" || name = "two_matmuls" then begin
        let r = Engine.verify plan in
        if not (PV.is_clean r) then
          Alcotest.failf "%s: %s" name
            (Format.asprintf "@[<v>%a@]" PV.pp_report r)
      end)
    (Lazy.force plan_pool)

let test_pool_plans_error_free () =
  (* Random opaque programs may read never-written blocks (DF003, warning,
     by that distribution's zeros contract); nothing in the pool may carry
     an Error-severity diagnostic. *)
  List.iter
    (fun (name, plan) ->
      let r = Engine.verify plan in
      if not (PV.ok r) then
        Alcotest.failf "%s: %s" name
          (Format.asprintf "@[<v>%a@]" PV.pp_report r);
      List.iter
        (fun d ->
          if d.PV.code <> "DF003" then
            Alcotest.failf "%s: unexpected warning %s" name
              (Format.asprintf "%a" PV.pp_diag d))
        r.PV.diags)
    (Lazy.force plan_pool)

(* --- Mutation harness ------------------------------------------------------ *)

(* Apply every mutation class at several seeds to every pool plan; each
   mutated plan must be flagged with one of its expected codes.  Coverage is
   then asserted per family: all four invariant families catch at least one
   seeded violation, and every mutation class finds at least one site
   somewhere in the pool. *)
let test_mutations_caught () =
  let caught = Hashtbl.create 16 and sited = Hashtbl.create 16 in
  List.iter
    (fun (name, plan) ->
      let wm = wm_of plan in
      List.iter
        (fun m ->
          List.iter
            (fun seed ->
              match PV.mutate ~seed ~watermarks:wm m plan with
              | None -> ()
              | Some mu ->
                  Hashtbl.replace sited (PV.mutation_name m) ();
                  let watermarks =
                    Option.value mu.PV.m_watermarks ~default:wm
                  in
                  let r =
                    PV.check ~watermarks ?groups:mu.PV.m_groups mu.PV.m_plan
                  in
                  let cs = codes r in
                  let hits =
                    List.filter (fun c -> List.mem c cs) mu.PV.m_expect
                  in
                  if hits = [] then
                    Alcotest.failf
                      "%s: %s (%s) escaped: expected one of [%s], report: %s"
                      name (PV.mutation_name m) mu.PV.m_descr
                      (String.concat "; " mu.PV.m_expect)
                      (Format.asprintf "@[<v>%a@]" PV.pp_report r);
                  List.iter (fun c -> Hashtbl.replace caught c ()) hits)
            [ 0; 1; 2 ])
        PV.all_mutations)
    (Lazy.force plan_pool);
  List.iter
    (fun m ->
      if not (Hashtbl.mem sited (PV.mutation_name m)) then
        Alcotest.failf "mutation %s found no site in the whole plan pool"
          (PV.mutation_name m))
    PV.all_mutations;
  let fams =
    Hashtbl.fold (fun c () acc -> String.sub c 0 2 :: acc) caught []
    |> List.sort_uniq compare
  in
  List.iter
    (fun f ->
      if not (List.mem f fams) then
        Alcotest.failf "invariant family %s caught no seeded violation" f)
    [ "DF"; "RS"; "JR"; "FU" ];
  if Hashtbl.length caught < 3 then
    Alcotest.failf "only %d distinct diagnostic codes caught"
      (Hashtbl.length caught)

(* --- Per-code unit tests ---------------------------------------------------- *)

let any_plan () = snd (List.hd (Lazy.force plan_pool))

let test_rs003_cap () =
  (* Any plan with a nonempty resident set must breach a cap one byte under
     its own peak. *)
  let plan =
    List.find
      (fun (_, (p : Cplan.t)) -> p.Cplan.peak_memory > 0)
      (Lazy.force plan_pool)
    |> snd
  in
  let r = PV.check ~cap_bytes:(plan.Cplan.peak_memory - 1) plan in
  Alcotest.(check bool) "RS003 flagged" true (List.mem "RS003" (codes r));
  Alcotest.(check bool) "is an error" false (PV.ok r)

let test_rs005_malformed_pin () =
  let plan = any_plan () in
  let blk =
    match plan.Cplan.steps.(0).Cplan.reads with
    | (_, b, _) :: _ -> b
    | [] -> (match plan.Cplan.steps.(0).Cplan.writes with
            | (_, b, _) :: _ -> b
            | [] -> Alcotest.fail "plan step 0 touches no blocks")
  in
  let n = Array.length plan.Cplan.steps in
  let bad = { plan with Cplan.pins = (blk, 0, n) :: plan.Cplan.pins } in
  let r = PV.check bad in
  Alcotest.(check bool) "RS005 flagged" true (List.mem "RS005" (codes r))

let test_jr004_shape_mismatch () =
  let plan = any_plan () in
  let wm = { PV.wm_safe = [||]; wm_restart = [||]; wm_undo = [||] } in
  let r = PV.check ~watermarks:wm plan in
  Alcotest.(check bool) "JR004 flagged" true (List.mem "JR004" (codes r))

let test_fu003_bad_partition () =
  let plan = any_plan () in
  let n = Array.length plan.Cplan.steps in
  if n < 2 then Alcotest.fail "pool head plan too small";
  (* A group list missing the last step is not a partition. *)
  let groups =
    [ { Riot_plan.Fuse.lo = 0; hi = n - 2;
        links = List.init (n - 2) (fun _ ->
            match plan.Cplan.steps.(0).Cplan.writes with
            | (_, b, _) :: _ -> b
            | [] -> 0) } ]
  in
  let r = PV.check ~groups plan in
  Alcotest.(check bool) "FU003 flagged" true (List.mem "FU003" (codes r))

let test_check_exn_raises () =
  let plan = any_plan () in
  let mutated =
    List.find_map
      (fun seed -> PV.mutate ~seed PV.Reorder_step plan)
      [ 0; 1; 2; 3 ]
  in
  match mutated with
  | None -> Alcotest.fail "no reorder site in pool head plan"
  | Some mu -> (
      match PV.check_exn mu.PV.m_plan with
      | () -> Alcotest.fail "check_exn accepted a reordered plan"
      | exception PV.Rejected r ->
          Alcotest.(check bool) "DF004 in report" true
            (List.mem "DF004" (codes r)))

(* --- The pre-fix Cplan.build regression ------------------------------------ *)

(* Reconstruct the exact plan shape the historical [Cplan.build] bug
   produced: for a realized read pair scheduled (si < di), the *earlier*
   endpoint was marked [From_memory] and the later one [From_disk] —
   marking against schedule order.  Found by faultfuzz, fixed, and pinned
   here statically: the dataflow family must flag it with DF002. *)
let test_prefix_schedule_order_bug () =
  let site =
    List.find_map
      (fun (name, (plan : Cplan.t)) ->
        let params = plan.Cplan.config.Config.params in
        let index_of stmt inst =
          let key = List.sort compare inst in
          let found = ref None in
          Array.iteri
            (fun i (st : Cplan.step) ->
              if
                st.Cplan.stmt = stmt
                && List.sort compare st.Cplan.instance = key
              then found := Some i)
            plan.Cplan.steps;
          !found
        in
        List.find_map
          (fun (ca : Coaccess.t) ->
            if ca.Coaccess.src_typ <> Access.Read
               || ca.Coaccess.dst_typ <> Access.Read
            then None
            else
              List.find_map
                (fun (src, dst) ->
                  match
                    (index_of ca.Coaccess.src_stmt src,
                     index_of ca.Coaccess.dst_stmt dst)
                  with
                  | Some si, Some di when si <> di ->
                      let s =
                        Program.find_stmt plan.Cplan.prog ca.Coaccess.src_stmt
                      in
                      let acc = List.nth s.Riot_ir.Stmt.accesses ca.Coaccess.src_acc in
                      let lookup v =
                        match List.assoc_opt v src with
                        | Some x -> x
                        | None -> List.assoc v params
                      in
                      let blk =
                        { Cplan.array = acc.Access.array;
                          index = Array.to_list (Access.block_of acc lookup) }
                      in
                      let early = min si di and late = max si di in
                      let late_mem =
                        List.exists
                          (fun (_, b, s) -> plan.Cplan.blocks.(b) = blk && s = Cplan.From_memory)
                          plan.Cplan.steps.(late).Cplan.reads
                      in
                      if late_mem then Some (name, plan, early, late, blk)
                      else None
                  | _ -> None)
                (Coaccess.pairs_at ca ~params))
          plan.Cplan.realized)
      (Lazy.force plan_pool)
  in
  match site with
  | None -> Alcotest.fail "no realized R->R pair with distinct steps in pool"
  | Some (_, plan, early, late, blk) ->
      let remark src (st : Cplan.step) =
        { st with
          Cplan.reads =
            List.map
              (fun ((a, b, _) as r) -> if plan.Cplan.blocks.(b) = blk then (a, b, src) else r)
              st.Cplan.reads }
      in
      let steps =
        Array.mapi
          (fun i st ->
            if i = late then remark Cplan.From_disk st
            else if i = early then remark Cplan.From_memory st
            else st)
          plan.Cplan.steps
      in
      let bad = { plan with Cplan.steps } in
      let r = PV.check bad in
      Alcotest.(check bool) "DF002 flagged" true (List.mem "DF002" (codes r));
      Alcotest.(check bool) "rejected" false (PV.ok r)

let suite =
  ( "plan-verify",
    [ Alcotest.test_case "paper plans are diagnostic-free" `Quick
        test_paper_plans_clean;
      Alcotest.test_case "pool plans carry no errors" `Quick
        test_pool_plans_error_free;
      Alcotest.test_case "mutations caught per family" `Quick
        test_mutations_caught;
      Alcotest.test_case "RS003: cap breach" `Quick test_rs003_cap;
      Alcotest.test_case "RS005: malformed pin" `Quick
        test_rs005_malformed_pin;
      Alcotest.test_case "JR004: watermark shape" `Quick
        test_jr004_shape_mismatch;
      Alcotest.test_case "FU003: broken partition" `Quick
        test_fu003_bad_partition;
      Alcotest.test_case "check_exn raises Rejected" `Quick
        test_check_exn_raises;
      Alcotest.test_case "pre-fix schedule-order bug is flagged (DF002)"
        `Quick test_prefix_schedule_order_bug ] )
