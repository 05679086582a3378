(* The journal and prefetch analyses fold over the lowered protocol program
   ([Cplan.lower]).  [frozen_analyze] and [frozen_hints] are frozen copies of
   the hash-keyed walks over [Cplan.step] lists they replaced; the folds must
   agree with them exactly on every plan of the paper pipelines and of
   random programs, element-wise and opaque, searched plans included. *)

module Cplan = Riot_plan.Cplan
module Prefetch = Riot_plan.Prefetch
module Journal = Riot_exec.Journal
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Programs = Riot_ops.Programs
module Config = Riot_ir.Config
module Differential = Riotshare.Differential

(* --- Frozen references ------------------------------------------------------ *)

let frozen_analyze (plan : Cplan.t) =
  let steps = plan.Cplan.steps in
  let n = Array.length steps in
  let reads : (string * int list, (int * Cplan.read_src) list ref) Hashtbl.t =
    Hashtbl.create 64
  and writes : (string * int list, (int * Cplan.write_dst) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let push tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add tbl key (ref [ v ])
  in
  Array.iteri
    (fun i (st : Cplan.step) ->
      List.iter
        (fun (_, (blk : Cplan.block), src) ->
          push reads (blk.Cplan.array, blk.Cplan.index) (i, src))
        st.Cplan.reads;
      List.iter
        (fun (_, (blk : Cplan.block), dst) ->
          push writes (blk.Cplan.array, blk.Cplan.index) (i, dst))
        st.Cplan.writes)
    steps;
  Hashtbl.iter (fun _ r -> r := List.rev !r) reads;
  Hashtbl.iter (fun _ r -> r := List.rev !r) writes;
  let writes_of key =
    match Hashtbl.find_opt writes key with Some r -> !r | None -> []
  in
  let first_touch key =
    let mr =
      match Hashtbl.find_opt reads key with
      | Some { contents = (s, _) :: _ } -> s
      | _ -> max_int
    and mw = match writes_of key with (t, _) :: _ -> t | [] -> max_int in
    min mr mw
  in
  let producer key s =
    List.fold_left
      (fun acc (t, dst) -> if t < s then Some (t, dst) else acc)
      None (writes_of key)
  in
  (* The one departure from the walk as it stood: [all_reads] lists reads in
     step order, where it was in [Hashtbl.fold] order.  The restart
     fixpoint below jumps to the first window it finds, so its answer
     depended on the hash layout of the block names: on seeds 0..1999 of
     [Differential.case_of_seed], 137 of 6058 plans got another restart
     point (2 of them another safe flag), each as valid as the other (no
     elided value crosses it: Plan_verify's JR002).  The paper pipelines
     agree under either order. *)
  let all_reads =
    List.concat
      (List.mapi
         (fun s (st : Cplan.step) ->
           List.map
             (fun (_, (blk : Cplan.block), src) -> ((blk.Cplan.array, blk.Cplan.index), s, src))
             st.Cplan.reads)
         (Array.to_list steps))
  in
  let elided =
    List.filter_map
      (fun (key, s, src) ->
        if src <> Cplan.From_memory then None
        else
          match producer key s with
          | Some (t, Cplan.Elided) -> Some (t, s, first_touch key)
          | _ -> None)
      all_reads
  in
  let pulled =
    Riot_base.Cover.min_cover ~n:(n + 1)
      (List.map (fun (t, s, _) -> (t + 1, s, 0)) elided)
  in
  let restart_of i =
    let r = ref (i + 1) in
    let changed = ref (pulled.(i + 1) = 0) in
    while !changed do
      changed := false;
      List.iter
        (fun (t, s, ft) ->
          if s >= !r && t < !r && ft < !r then begin
            r := ft;
            changed := true
          end)
        elided
    done;
    !r
  in
  let first_disk_write =
    Riot_base.Cover.min_cover ~n:(n + 1)
      (List.filter_map
         (fun (key, s, src) ->
           match
             List.find_opt
               (fun (t, dst) -> dst = Cplan.To_disk && t >= s)
               (writes_of key)
           with
           | None -> None
           | Some (w, _) ->
               let from =
                 match (src, producer key s) with
                 | Cplan.From_memory, Some (t, _) -> t + 1
                 | _ -> 0
               in
               Some (from, s, w))
         all_reads)
  in
  let safe = Array.make n false and restart = Array.make n 0 in
  let ns = ref None in
  for i = n - 1 downto 0 do
    let r = restart_of i in
    let tmax = match !ns with Some j -> j | None -> n - 1 in
    let danger = first_disk_write.(r) <= tmax in
    safe.(i) <- not danger;
    restart.(i) <- r;
    if not danger then ns := Some i
  done;
  let undo = Array.make n [] in
  Array.iteri
    (fun i (st : Cplan.step) ->
      List.iter
        (fun (_, (blk : Cplan.block), _) ->
          let key = (blk.Cplan.array, blk.Cplan.index) in
          if
            List.exists
              (fun (t, dst) -> dst = Cplan.To_disk && t >= i)
              (writes_of key)
            && not (List.mem key undo.(i))
          then undo.(i) <- key :: undo.(i))
        st.Cplan.reads)
    steps;
  (safe, restart, undo)

(* Per target step, the hinted blocks with their earliest safe issue step. *)
let frozen_hints (plan : Cplan.t) =
  let n = Array.length plan.Cplan.steps in
  let floor : (Cplan.block, int) Hashtbl.t = Hashtbl.create 64 in
  let stops = Array.make n [] in
  List.iter
    (fun (blk, a, b) -> if 0 <= a && a <= b && b < n then stops.(b) <- blk :: stops.(b))
    plan.Cplan.pins;
  let by_target = Array.make n [] in
  for t = 0 to n - 1 do
    let st = plan.Cplan.steps.(t) in
    let seen = ref [] in
    List.iter
      (fun (_, blk, src) ->
        if src = Cplan.From_disk && not (List.mem blk !seen) then begin
          seen := blk :: !seen;
          let e = Option.value ~default:0 (Hashtbl.find_opt floor blk) in
          if e < t then by_target.(t) <- (blk, e) :: by_target.(t)
        end)
      st.Cplan.reads;
    List.iter (fun (_, blk, _) -> Hashtbl.replace floor blk (t + 1)) st.Cplan.reads;
    List.iter (fun (_, blk, _) -> Hashtbl.replace floor blk (t + 1)) st.Cplan.writes;
    List.iter (fun blk -> Hashtbl.replace floor blk (t + 1)) stops.(t)
  done;
  by_target

(* --- The check -------------------------------------------------------------- *)

let agrees name (plan : Cplan.t) =
  let safe, restart, undo = frozen_analyze plan in
  let rp = Journal.analyze plan in
  if rp.Journal.safe <> safe then Alcotest.failf "%s: safe differs" name;
  if rp.Journal.restart <> restart then Alcotest.failf "%s: restart differs" name;
  if rp.Journal.undo <> undo then Alcotest.failf "%s: undo differs" name;
  let h = Prefetch.make plan in
  Array.iteri
    (fun t hints ->
      if Prefetch.hints_at h t <> hints then Alcotest.failf "%s: hints at step %d differ" name t)
    (frozen_hints plan)

let pipelines =
  [ ("add_mul", Programs.add_mul (), Programs.table2, None);
    ( "two_matmuls",
      Programs.two_matmuls (),
      Programs.scale_down ~factor:50 Programs.table3_config_a,
      Some 2 );
    ( "linear_regression",
      Programs.linear_regression (),
      Programs.scale_down ~factor:50 Programs.table4,
      Some 2 );
    ("pig", Programs.pig_pipeline (), Programs.scale_down ~factor:16 Programs.pig_config, None) ]

let test_pipelines () =
  List.iter
    (fun (name, prog, config, max_size) ->
      let ref_params = config.Config.params in
      let analysis = Deps.extract prog ~ref_params in
      let plans, _ = Search.enumerate ?max_size prog ~analysis ~ref_params in
      List.iteri
        (fun k (p : Search.plan) ->
          agrees
            (Printf.sprintf "%s plan %d" name k)
            (Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q))
        plans)
    pipelines

(* Seeds 0..239: opaque nests on even seeds, element-wise chains on odd
   ones, searched plans on every tenth. *)
let test_random_programs () =
  for seed = 0 to 239 do
    let c = Differential.case_of_seed seed in
    List.iteri
      (fun k plan -> agrees (Printf.sprintf "seed %d plan %d" seed k) plan)
      c.Differential.plans
  done

let suite =
  ( "protocol",
    [ Alcotest.test_case "journal and prefetch folds = frozen walks (pipelines)" `Quick
        test_pipelines;
      Alcotest.test_case "journal and prefetch folds = frozen walks (240 seeds)" `Quick
        test_random_programs ] )
