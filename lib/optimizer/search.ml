module Program = Riot_ir.Program
module Coaccess = Riot_analysis.Coaccess
module Deps = Riot_analysis.Deps
module Pool = Riot_base.Pool

let log = Logs.Src.create "riot.optimizer.search" ~doc:"Apriori plan search"

module Log = (val Logs.src_log log : Logs.LOG)

type plan = {
  index : int;
  q : Coaccess.t list;
  sched : Riot_ir.Sched.program_sched;
}

type stats = {
  candidates_tried : int;
  feasible : int;
  pruned : int;
  bound_pruned : int;
  verify_rejected : int;
  complete : bool;
  elapsed : float;
}

(* Subsets are sorted lists of indices into the opportunity array. *)
let subsets_of_size_minus_one c =
  let arr = Array.of_list c in
  let n = Array.length arr in
  List.init n (fun i ->
      let sub = Array.make (n - 1) 0 in
      Array.blit arr 0 sub 0 i;
      Array.blit arr (i + 1) sub i (n - 1 - i);
      Array.to_list sub)

let join_step feasible_prev =
  (* Classic Apriori join: two (k-1)-sets sharing their first k-2 elements
     merge into a k-candidate.  Group by that prefix so each group of m sets
     yields its m*(m-1)/2 merges directly, instead of testing prefix
     equality (and re-walking to the last element) for every pair of the
     whole level. *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let arr = Array.of_list s in
      let n = Array.length arr in
      let prefix = Array.to_list (Array.sub arr 0 (n - 1)) in
      let last = arr.(n - 1) in
      Hashtbl.replace groups prefix
        (last :: Option.value ~default:[] (Hashtbl.find_opt groups prefix)))
    feasible_prev;
  Hashtbl.fold
    (fun prefix lasts acc ->
      let lasts = List.sort compare lasts in
      let rec pairs acc = function
        | [] -> acc
        | x :: rest ->
            pairs (List.fold_left (fun acc y -> (prefix @ [ x; y ]) :: acc) acc rest) rest
      in
      pairs acc lasts)
    groups []
  |> List.sort_uniq compare

(* Shared, frozen per-search state.  [Find_schedule.find] memoises Farkas
   translations in its [Sched_space] and the concrete verifier caches
   instance sets and extent pairs; both tables are fully prefilled before
   any fan-out and then frozen, so every domain reads one shared copy with
   no locking and no mutation on the hot path.  The one mutable table is the
   search's [Find_schedule] memo: every domain fills it under its lock, and
   it is dropped when the search returns. *)
let shared_state ?(verify = true) (prog : Program.t) ~analysis ~ref_params =
  let ss = Sched_space.make prog in
  Sched_space.prefill ss ~deps:analysis.Deps.dependences
    ~sharing:analysis.Deps.sharing;
  let chk =
    if verify then
      Some (Verify.checker ~coaccesses:analysis.Deps.sharing prog ~params:ref_params)
    else None
  in
  (ss, chk, Find_schedule.memo ())

let check_plan chk q sched =
  match chk with None -> true | Some c -> Verify.check c ~q sched

let enumerate ?verify ?max_size ?pool ?jobs (prog : Program.t) ~analysis
    ~ref_params =
  let run pool =
    let t0 = Unix.gettimeofday () in
    let opportunities = Array.of_list analysis.Deps.sharing in
    let deps = analysis.Deps.dependences in
    let n = Array.length opportunities in
    let max_size = match max_size with Some m -> min m n | None -> n in
    let tried = ref 0 and pruned = ref 0 in
    let ss, chk, memo = shared_state ?verify prog ~analysis ~ref_params in
    let attempt idxs =
      let q = List.map (fun i -> opportunities.(i)) idxs in
      match Find_schedule.find ~memo ss ~prog ~q ~deps with
      | None -> None
      | Some sched ->
          if check_plan chk q sched then Some sched
          else begin
            Log.warn (fun m ->
                m "schedule for {%s} failed concrete verification; dropped"
                  (String.concat ", " (List.map (fun c -> Coaccess.label c) q)));
            None
          end
    in
    (* Attempt a whole level's candidates across the pool.  Results come back
       in candidate order, so the plan list grows exactly as the sequential
       loop would build it. *)
    let run_level candidates =
      tried := !tried + List.length candidates;
      let results = Pool.map pool attempt candidates in
      List.concat
        (List.map2
           (fun c r -> match r with Some sched -> [ (c, sched) ] | None -> [])
           candidates results)
    in
    let plans = ref [] in
    (* Plan 0: the original schedule, no sharing realized. *)
    plans := [ ([], prog.Program.original) ];
    (* k = 1 *)
    let f1 = run_level (List.init n (fun i -> [ i ])) in
    List.iter (fun (c, sched) -> plans := (c, sched) :: !plans) f1;
    let c1 = List.map fst f1 in
    let rec level k feasible_prev =
      if k > max_size || feasible_prev = [] then ()
      else begin
        let raw = join_step feasible_prev in
        let feasible_set = Hashtbl.create (2 * List.length feasible_prev) in
        List.iter (fun s -> Hashtbl.replace feasible_set s ()) feasible_prev;
        let candidates =
          List.filter
            (fun c ->
              let ok =
                List.for_all
                  (fun s -> Hashtbl.mem feasible_set s)
                  (subsets_of_size_minus_one c)
              in
              if not ok then incr pruned;
              ok)
            raw
        in
        let found = run_level candidates in
        List.iter (fun (c, sched) -> plans := (c, sched) :: !plans) found;
        level (k + 1) (List.map fst found)
      end
    in
    level 2 c1;
    let plans =
      List.rev !plans
      |> List.mapi (fun index (idxs, sched) ->
             { index; q = List.map (fun i -> opportunities.(i)) idxs; sched })
    in
    let stats =
      { candidates_tried = !tried;
        feasible = List.length plans - 1;
        pruned = !pruned;
        bound_pruned = 0;
        verify_rejected = !tried - (List.length plans - 1);
        complete = true;
        elapsed = Unix.gettimeofday () -. t0 }
    in
    (plans, stats)
  in
  match pool with
  | Some pool -> run pool
  | None -> Pool.with_pool ?jobs run

(* --- Branch and bound ----------------------------------------------------- *)

type 'a attempt_result = Feasible of 'a | Infeasible | Expired

let branch_and_bound ?verify ?max_size ?pool ?jobs ?budget ?opt_stats ~bound
    ~saving ~cost (prog : Program.t) ~analysis ~ref_params =
  let run pool =
    let t0 = Unix.gettimeofday () in
    let ostats = match opt_stats with Some s -> s | None -> Opt_stats.create () in
    let deadline = Option.map (fun b -> t0 +. b) budget in
    let expired () =
      match deadline with None -> false | Some d -> Unix.gettimeofday () > d
    in
    let opportunities = Array.of_list analysis.Deps.sharing in
    let deps = analysis.Deps.dependences in
    let n = Array.length opportunities in
    let max_size = match max_size with Some m -> min m n | None -> n in
    let ss, chk, memo = shared_state ?verify prog ~analysis ~ref_params in
    (* The lattice tail bound: [bound s] minus the most the best
       [max_size - |s|] opportunities OUTSIDE [s] could still save.  By
       monotonicity and subadditivity of the bound this lower-bounds the
       predicted I/O of every superset of [s] (capped at [max_size]), i.e.
       of [s]'s entire upward cone in the Apriori lattice — so a candidate
       whose cone bound exceeds the incumbent can be dropped together with
       all its supersets, exactly like an infeasible set. *)
    let by_saving = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        match compare (saving b) (saving a) with 0 -> compare a b | c -> c)
      by_saving;
    (* Only opportunities whose singleton survived level 1 can appear in any
       later candidate (Apriori: every subset of a feasible set is feasible,
       and a cone-pruned singleton poisons its whole cone), so once level 1
       has completed, they alone fund the cone allowance.  Level-1 outcomes
       are jobs-independent, so this tightening is too. *)
    let viable = Array.make n true in
    let tail_top s k =
      let rec go acc taken i =
        if taken >= k || i >= n then acc
        else
          let idx = by_saving.(i) in
          if (not viable.(idx)) || List.mem idx s then go acc taken (i + 1)
          else go (acc +. max 0. (saving idx)) (taken + 1) (i + 1)
      in
      go 0. 0 0
    in
    let cone_bound s = bound s -. tail_top s (max_size - List.length s) in
    (* The incumbent is only ever read and written between pool batches, at
       deterministic, jobs-independent batch boundaries, so every pruning
       decision sees the same committed value at any [jobs]: results and
       stats are bit-identical across pool sizes. *)
    let incumbent = Atomic.make infinity in
    let tried = ref 0
    and pruned_apriori = ref 0
    and pruned_bound = ref 0
    and rejected = ref 0
    and costed = ref 0
    and waves = ref 0 in
    let feas : (int list, unit) Hashtbl.t = Hashtbl.create 256 in
    Hashtbl.add feas [] ();
    let results = ref [] in
    let record idxs sched c io =
      incr costed;
      results := (idxs, sched, c) :: !results;
      if io < Atomic.get incumbent then Atomic.set incumbent io
    in
    (* Plan 0 is costed unconditionally, before the deadline can strike: the
       anytime contract always has a verified plan to return. *)
    let c0, io0 =
      Opt_stats.time ostats Opt_stats.Cost (fun () ->
          cost ~q:[] ~sched:prog.Program.original)
    in
    record [] prog.Program.original c0 io0;
    let attempt s =
      if expired () then Expired
      else
        let q = List.map (fun i -> opportunities.(i)) s in
        match
          Opt_stats.time ostats Opt_stats.Find (fun () ->
              Find_schedule.find ~memo ss ~prog ~q ~deps)
        with
        | None -> Infeasible
        | Some sched ->
            if
              Opt_stats.time ostats Opt_stats.Verify (fun () ->
                  check_plan chk q sched)
            then Feasible sched
            else begin
              Log.warn (fun m ->
                  m "schedule for {%s} failed concrete verification; dropped"
                    (String.concat ", " (List.map (fun c -> Coaccess.label c) q)));
              Infeasible
            end
    in
    (* The level structure is the exhaustive enumerator's, verbatim: a
       k-candidate is generated only when every immediate subset is feasible
       AND survived the bound — a pruned set poisons its whole upward cone,
       which the cone bound proved strictly worse than the incumbent.  Every
       candidate the pruned search attempts, the exhaustive search attempts
       too, so no plan outside the exhaustive feasible set can ever appear.

       Within a level, candidates run in fixed-size batches (independent of
       the pool size); the incumbent is committed between batches, so late
       batches of a level already prune against the best plan of its early
       batches. *)
    let batch_size = 24 in
    let stop = ref false in
    let rec take k = function
      | x :: rest when k > 0 ->
          let b, r = take (k - 1) rest in
          (x :: b, r)
      | rest -> ([], rest)
    in
    let process_batch cands =
      let inc = Atomic.get incumbent in
      let live =
        Opt_stats.time ostats Opt_stats.Bound (fun () ->
            List.filter
              (fun s ->
                let ok = cone_bound s <= inc in
                if not ok then incr pruned_bound;
                ok)
              cands)
      in
      tried := !tried + List.length live;
      let outcomes = Pool.map pool attempt live in
      let saw_expired = ref false in
      let feasible_batch =
        List.concat
          (List.map2
             (fun s r ->
               match r with
               | Feasible sched ->
                   Hashtbl.add feas s ();
                   [ (s, sched) ]
               | Infeasible ->
                   incr rejected;
                   []
               | Expired ->
                   saw_expired := true;
                   [])
             live outcomes)
      in
      (* Second pruning tier: a feasible set whose own bound already exceeds
         the incumbent stays in the lattice (its supersets may still win)
         but is not worth a full costing. *)
      let to_cost, cost_skipped =
        List.partition (fun (s, _) -> bound s <= inc) feasible_batch
      in
      pruned_bound := !pruned_bound + List.length cost_skipped;
      let costs =
        Pool.map pool
          (fun (s, sched) ->
            Opt_stats.time ostats Opt_stats.Cost (fun () ->
                cost ~q:(List.map (fun i -> opportunities.(i)) s) ~sched))
          to_cost
      in
      List.iter2 (fun (s, sched) (c, io) -> record s sched c io) to_cost costs;
      if !saw_expired || expired () then stop := true;
      List.map fst feasible_batch
    in
    let process_level candidates =
      let rec go acc cands =
        if cands = [] || !stop then List.concat (List.rev acc)
        else begin
          let batch, rest = take batch_size cands in
          let found = process_batch batch in
          go (found :: acc) rest
        end
      in
      go [] candidates
    in
    let rec level k feasible_prev =
      if (not !stop) && k <= max_size && (k = 1 || feasible_prev <> []) then begin
        let raw =
          if k = 1 then List.init n (fun i -> [ i ]) else join_step feasible_prev
        in
        let candidates =
          List.filter
            (fun c ->
              let ok =
                List.for_all
                  (fun s -> Hashtbl.mem feas s)
                  (subsets_of_size_minus_one c)
              in
              if not ok then incr pruned_apriori;
              ok)
            raw
        in
        let found = process_level candidates in
        incr waves;
        if k = 1 && not !stop then
          for i = 0 to n - 1 do
            viable.(i) <- Hashtbl.mem feas [ i ]
          done;
        level (k + 1) found
      end
    in
    level 1 [];
    let elapsed = Unix.gettimeofday () -. t0 in
    (* Results were recorded level by level, candidates in lex order within
       each level — already the exhaustive enumerator's canonical plan
       order, so downstream stable sorts break cost ties identically. *)
    let plans =
      List.mapi
        (fun index (idxs, sched, c) ->
          ({ index; q = List.map (fun i -> opportunities.(i)) idxs; sched }, c))
        (List.rev !results)
    in
    let bump a k = ignore (Atomic.fetch_and_add a k) in
    bump ostats.Opt_stats.tried !tried;
    bump ostats.Opt_stats.pruned_bound !pruned_bound;
    bump ostats.Opt_stats.pruned_apriori !pruned_apriori;
    bump ostats.Opt_stats.rejected_verify !rejected;
    bump ostats.Opt_stats.costed !costed;
    bump ostats.Opt_stats.fm_components (Find_schedule.fm_components memo);
    bump ostats.Opt_stats.samples_drawn (Find_schedule.samples_drawn memo);
    ostats.Opt_stats.waves <- ostats.Opt_stats.waves + !waves;
    ostats.Opt_stats.wall <- ostats.Opt_stats.wall +. elapsed;
    let stats =
      { candidates_tried = !tried;
        feasible = Hashtbl.length feas - 1;
        pruned = !pruned_apriori;
        bound_pruned = !pruned_bound;
        verify_rejected = !rejected;
        complete = not !stop;
        elapsed }
    in
    (plans, stats)
  in
  match pool with
  | Some pool -> run pool
  | None -> Pool.with_pool ?jobs run
