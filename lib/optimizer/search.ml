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

type 'a attempt_result = Feasible of 'a | Infeasible | Expired

(* The one Apriori lattice walk (Algorithm 2), as a branch and bound.  Level
   k's candidates are the joins of level k-1's feasible sets whose every
   immediate subset is feasible; each candidate is attempted ([find], then
   the concrete check), and a feasible one is costed.  A candidate whose cone
   bound exceeds the incumbent is dropped with its whole upward cone, like an
   infeasible set; with a bound that never exceeds an incumbent
   ([never_prune]) the walk is the exhaustive enumeration. *)
let branch_and_bound ?(verify = true) ?max_size ?pool ?jobs ?budget ?opt_stats
    ~bound ~saving ~cost (prog : Program.t) ~analysis ~ref_params =
  (match max_size with
  | Some m when m < 0 ->
      invalid_arg (Printf.sprintf "Search: max_size %d is negative" m)
  | _ -> ());
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
    (* Shared, frozen per-search state.  [Find_schedule.find] memoises Farkas
       translations in its [Sched_space] and the concrete verifier caches
       instance sets and extent pairs; both tables are fully prefilled before
       any fan-out and then frozen, so every domain reads one shared copy
       with no locking and no mutation on the hot path.  The one mutable
       table is the search's [Find_schedule] memo: every domain fills it
       under its lock, and it is dropped when the search returns. *)
    let ss = Sched_space.make prog in
    Sched_space.prefill ss ~deps ~sharing:analysis.Deps.sharing;
    let chk =
      if verify then
        Some (Verify.checker ~coaccesses:analysis.Deps.sharing prog ~params:ref_params)
      else None
    in
    let memo = Find_schedule.memo () in
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
    (* One attempt: find, the concrete check, then the costing.  Second
       pruning tier: a feasible set whose own bound already exceeds [inc], the
       incumbent when its batch started, stays in the lattice (its supersets
       may still win) but is not worth a full costing. *)
    let attempt inc s =
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
                  match chk with None -> true | Some c -> Verify.check c ~q sched)
            then
              Feasible
                ( sched,
                  if bound s <= inc then
                    Some (Opt_stats.time ostats Opt_stats.Cost (fun () -> cost ~q ~sched))
                  else None )
            else begin
              Log.warn (fun m ->
                  m "schedule for {%s} failed concrete verification; dropped"
                    (String.concat ", " (List.map (fun c -> Coaccess.label c) q)));
              Infeasible
            end
    in
    (* A k-candidate is generated only when every immediate subset is
       feasible AND survived the bound — a pruned set poisons its whole upward
       cone, which the cone bound proved strictly worse than the incumbent.
       Every candidate a pruning walk attempts, the never-pruning walk
       attempts too, so no plan outside the exhaustive feasible set can ever
       appear.

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
      let found = ref [] in
      List.iter2
        (fun s r ->
          match r with
          | Feasible (sched, costed) ->
              Hashtbl.add feas s ();
              found := s :: !found;
              (match costed with
              | Some (c, io) -> record s sched c io
              | None -> incr pruned_bound)
          | Infeasible -> incr rejected
          | Expired -> stop := true)
        live
        (Pool.map pool (attempt inc) live);
      if expired () then stop := true;
      List.rev !found
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
       each level: the canonical (size, lex) plan order, the same with or
       without pruning, so downstream stable sorts break cost ties
       identically. *)
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
    bump ostats.Opt_stats.fm_giveups (Find_schedule.fm_giveups memo);
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

let never_prune = ((fun _ -> neg_infinity), fun _ -> 0.)

let enumerate ?verify ?max_size ?pool ?jobs prog ~analysis ~ref_params =
  let bound, saving = never_prune in
  let plans, stats =
    branch_and_bound ?verify ?max_size ?pool ?jobs ~bound ~saving
      ~cost:(fun ~q:_ ~sched:_ -> ((), 0.))
      prog ~analysis ~ref_params
  in
  (List.map fst plans, stats)
