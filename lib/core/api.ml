module Program = Riot_ir.Program
module Config = Riot_ir.Config
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Search = Riot_optimizer.Search
module Cplan = Riot_plan.Cplan
module Cost_bound = Riot_plan.Cost_bound
module Machine = Riot_plan.Machine
module Backend = Riot_storage.Backend
module Engine = Riot_exec.Engine

type costed_plan = {
  plan : Search.plan;
  cplan : Cplan.t;
  predicted_io_seconds : float;
  predicted_cpu_seconds : float;
  memory_bytes : int;
}

type t = {
  program : Program.t;
  config : Config.t;
  machine : Machine.t;
  analysis : Deps.result;
  plans : costed_plan list;
  search_stats : Search.stats;
  verified : (Cplan.t * int) option;
}

let cost_plan ?cache machine program config (plan : Search.plan) =
  let cplan =
    Cplan.build ?cache program ~config ~sched:plan.Search.sched ~realized:plan.Search.q
  in
  { plan;
    cplan;
    predicted_io_seconds = Cplan.predicted_io_seconds machine cplan;
    predicted_cpu_seconds = Cplan.cpu_seconds machine cplan;
    memory_bytes = cplan.Cplan.peak_memory }

let best ?mem_cap_bytes t =
  let fits p =
    match mem_cap_bytes with None -> true | Some cap -> p.memory_bytes <= cap
  in
  match
    List.filter fits t.plans
    |> List.sort (fun a b ->
           compare
             (a.predicted_io_seconds, a.memory_bytes)
             (b.predicted_io_seconds, b.memory_bytes))
  with
  | [] -> raise Not_found
  | p :: _ ->
      (* Reject a statically malformed winner here, at selection time, so no
         caller ever hands the engine an illegal plan.  The verdict is a
         function of the physical plan and the cap, so the pair [optimize]
         already verified is not checked again. *)
      (match t.verified with
      | Some (cplan, cap) when cplan == p.cplan && cap = p.memory_bytes -> ()
      | _ -> Engine.verify_exn ~cap_bytes:p.memory_bytes p.cplan);
      p

let optimize ?(machine = Machine.paper) ?max_size ?verify ?jobs ?(prune = false)
    ?budget ?opt_stats program ~config =
  Riot_base.Pool.with_pool ?jobs @@ fun pool ->
  let ref_params = config.Config.params in
  let analysis = Deps.extract program ~ref_params in
  (* The schedule-independent work — instance enumeration and extent pairs at
     the concrete parameters — is materialised once and shared read-only by
     every plan costing; the sharing list covers every realized set. *)
  let cache = Cplan.cache ~coaccesses:analysis.Deps.sharing program ~config in
  (* [prune] only decides whether the walk gets the I/O lower bound; a budget
     only makes sense on the anytime, pruning searcher. *)
  let bound, saving =
    if prune || budget <> None then
      let b =
        Cost_bound.make ~cache machine program ~config ~coaccesses:analysis.Deps.sharing
      in
      (Cost_bound.eval b, Cost_bound.saving b)
    else Search.never_prune
  in
  (* Costing runs inside the walk; it numbers the plans itself. *)
  let cost ~q ~sched =
    let c = cost_plan ~cache machine program config { Search.index = 0; q; sched } in
    (c, c.predicted_io_seconds)
  in
  let pairs, search_stats =
    Search.branch_and_bound ?verify ?max_size ~pool ?budget ?opt_stats ~bound ~saving
      ~cost program ~analysis ~ref_params
  in
  let plans = List.map (fun (plan, c) -> { c with plan }) pairs in
  let t = { program; config; machine; analysis; plans; search_stats; verified = None } in
  (* Statically verify the presumptive winner (hard error on Error-severity
     diagnostics): a planner bug dies here, not in the buffer pool. *)
  match best t with
  | p -> { t with verified = Some (p.cplan, p.memory_bytes) }
  | exception Not_found -> t

let recost ?jobs t ~config =
  if t.search_stats.Search.bound_pruned > 0 || not t.search_stats.Search.complete then
    invalid_arg
      "Api.recost: the result was pruned or cut by its budget; its plans are not \
       the whole plan space, so re-run optimize at the new configuration";
  let cache = Cplan.cache ~coaccesses:t.analysis.Deps.sharing t.program ~config in
  { t with
    config;
    verified = None;
    plans =
      Riot_base.Pool.parallel_map ?jobs
        (fun p -> cost_plan ~cache t.machine t.program config p.plan)
        t.plans }

let original t =
  List.find (fun p -> p.plan.Search.q = []) t.plans

let distinct_cost_points t =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let k = (p.memory_bytes, int_of_float (p.predicted_io_seconds *. 1000.)) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    t.plans

let execute ?compute ?stores ?trace ?mode ?jobs costed ~backend ~format =
  Engine.run ?compute ?stores ?trace ?mode ?jobs costed.cplan ~backend ~format
    ~mem_cap:costed.memory_bytes

let check_cost costed result = Engine.check_cost result costed.cplan

let simulated_backend ?retain_data (m : Machine.t) =
  Backend.sim ?retain_data ~read_bw:m.Machine.read_bw ~write_bw:m.Machine.write_bw
    ~request_overhead:m.Machine.request_overhead ()

let pp_costed ppf p =
  Format.fprintf ppf "plan %d: mem=%.1f MB, io=%.1f s, cpu=%.1f s {%s}"
    p.plan.Search.index
    (float_of_int p.memory_bytes /. 1048576.)
    p.predicted_io_seconds p.predicted_cpu_seconds
    (String.concat "; " (List.map Coaccess.label p.plan.Search.q))

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>program %s: %d sharing opportunities, %d dependences, %d plans (%.1fs search)@ %a@]"
    t.program.Program.name
    (List.length t.analysis.Deps.sharing)
    (List.length t.analysis.Deps.dependences)
    (List.length t.plans) t.search_stats.Search.elapsed
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_costed)
    (distinct_cost_points t)
