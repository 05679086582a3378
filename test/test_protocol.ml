(* The journal and prefetch analyses fold over the lowered protocol program
   ([Cplan.lower]), and the fusion analysis indexes the plan's block ids.
   [frozen_analyze], [frozen_hints] and [frozen_fuse] are frozen copies of
   the hash-keyed walks over block records they replaced, and
   [frozen_fingerprint] of the journal fingerprint over block records; the
   id-based code must agree with them exactly on every plan of the paper
   pipelines and of random programs, element-wise and opaque, searched
   plans included.  The frozen walks read block records through the plan's
   table ([named]); [ids_agree] checks, without the cache, that every id
   names the block its access resolves to. *)

module Cplan = Riot_plan.Cplan
module Prefetch = Riot_plan.Prefetch
module Fuse = Riot_plan.Fuse
module Journal = Riot_exec.Journal
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Programs = Riot_ops.Programs
module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Kernel = Riot_ir.Kernel
module Differential = Riotshare.Differential

(* A plan's steps and pins with their block ids read through its table. *)
type named_step = {
  stmt : string;
  instance : (string * int) list;
  reads : (Access.t * Cplan.block * Cplan.read_src) list;
  writes : (Access.t * Cplan.block * Cplan.write_dst) list;
}

let named (plan : Cplan.t) =
  let block k = plan.Cplan.blocks.(k) in
  let steps =
    Array.map
      (fun (st : Cplan.step) ->
        { stmt = st.Cplan.stmt;
          instance = st.Cplan.instance;
          reads = List.map (fun (a, k, src) -> (a, block k, src)) st.Cplan.reads;
          writes = List.map (fun (a, k, dst) -> (a, block k, dst)) st.Cplan.writes })
      plan.Cplan.steps
  in
  (steps, List.map (fun (k, a, b) -> (block k, a, b)) plan.Cplan.pins)

(* The block of access [a] at a step's instance, by [Access.block_of]. *)
let block_at (plan : Cplan.t) instance (a : Access.t) =
  let env n =
    match List.assoc_opt n instance with
    | Some v -> v
    | None -> List.assoc n plan.Cplan.config.Config.params
  in
  { Cplan.array = a.Access.array; index = Array.to_list (Access.block_of a env) }

(* --- Frozen references ------------------------------------------------------ *)

let frozen_analyze (plan : Cplan.t) =
  let steps, _ = named plan in
  let n = Array.length steps in
  let writes : (string * int list, (int * Cplan.write_dst) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let push tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add tbl key (ref [ v ])
  in
  Array.iteri
    (fun i st ->
      List.iter
        (fun (_, (blk : Cplan.block), dst) ->
          push writes (blk.Cplan.array, blk.Cplan.index) (i, dst))
        st.writes)
    steps;
  Hashtbl.iter (fun _ r -> r := List.rev !r) writes;
  let writes_of key =
    match Hashtbl.find_opt writes key with Some r -> !r | None -> []
  in
  let producer key s =
    List.fold_left
      (fun acc (t, dst) -> if t < s then Some (t, dst) else acc)
      None (writes_of key)
  in
  let all_reads =
    List.concat
      (List.mapi
         (fun s st ->
           List.map
             (fun (_, (blk : Cplan.block), src) -> ((blk.Cplan.array, blk.Cplan.index), s, src))
             st.reads)
         (Array.to_list steps))
  in
  let elided =
    List.filter_map
      (fun (key, s, src) ->
        if src <> Cplan.From_memory then None
        else
          match producer key s with
          | Some (t, Cplan.Elided) -> Some (t, s)
          | _ -> None)
      all_reads
  in
  (* The latest restart point at or below [i + 1] that no elided value's
     (producer, read] window contains. *)
  let rec restart_of i =
    let r = i + 1 in
    if List.exists (fun (t, s) -> t < r && r <= s) elided then restart_of (i - 1) else r
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
    (fun i st ->
      List.iter
        (fun (_, (blk : Cplan.block), _) ->
          let key = (blk.Cplan.array, blk.Cplan.index) in
          if
            List.exists
              (fun (t, dst) -> dst = Cplan.To_disk && t >= i)
              (writes_of key)
            && not (List.mem key undo.(i))
          then undo.(i) <- key :: undo.(i))
        st.reads)
    steps;
  (safe, restart, undo)

(* Per target step, the hinted blocks with their earliest safe issue step. *)
let frozen_hints (plan : Cplan.t) =
  let steps, pins = named plan in
  let n = Array.length steps in
  let floor : (Cplan.block, int) Hashtbl.t = Hashtbl.create 64 in
  let stops = Array.make n [] in
  List.iter
    (fun (blk, a, b) -> if 0 <= a && a <= b && b < n then stops.(b) <- blk :: stops.(b))
    pins;
  let by_target = Array.make n [] in
  for t = 0 to n - 1 do
    let st = steps.(t) in
    let seen = ref [] in
    List.iter
      (fun (_, blk, src) ->
        if src = Cplan.From_disk && not (List.mem blk !seen) then begin
          seen := blk :: !seen;
          let e = Option.value ~default:0 (Hashtbl.find_opt floor blk) in
          if e < t then by_target.(t) <- (blk, e) :: by_target.(t)
        end)
      st.reads;
    List.iter (fun (_, blk, _) -> Hashtbl.replace floor blk (t + 1)) st.reads;
    List.iter (fun (_, blk, _) -> Hashtbl.replace floor blk (t + 1)) st.writes;
    List.iter (fun blk -> Hashtbl.replace floor blk (t + 1)) stops.(t)
  done;
  by_target

(* The journal header's plan fingerprint, hashing block records: journal
   files must not change with how the cache numbers blocks. *)
let frozen_fingerprint (plan : Cplan.t) =
  let steps, pins = named plan in
  let mix2 a b =
    let open Int64 in
    let x = logxor (mul a 0x9E3779B97F4A7C15L) (mul b 0xC2B2AE3D27D4EB4FL) in
    logxor x (shift_right_logical x 29)
  in
  let h = ref 0x52494F5453484152L in
  let add i = h := mix2 !h (Int64.of_int i) in
  add (Array.length steps);
  Array.iter
    (fun st ->
      add (Hashtbl.hash st.stmt);
      add (Hashtbl.hash st.instance);
      List.iter (fun (_, blk, src) -> add (Hashtbl.hash (blk, src))) st.reads;
      List.iter (fun (_, blk, dst) -> add (Hashtbl.hash (blk, dst))) st.writes)
    steps;
  List.iter (fun (blk, a, b) -> add (Hashtbl.hash (blk, a, b))) pins;
  !h

(* Fusion groups as (lo, hi, links), the hash-keyed analysis over block
   records.  Its operand blocks are evaluated by [Access.block_of], where the
   analysis now reads the cache's per-access ids. *)
let frozen_fuse (plan : Cplan.t) =
  let steps, pins = named plan in
  let n = Array.length steps in
  let kernel =
    Array.map
      (fun st -> Kernel.info (Program.find_stmt plan.Cplan.prog st.stmt).Stmt.kernel)
      steps
  in
  let elementwise i = kernel.(i).Kernel.chain = Some Kernel.Elementwise in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let reads_tbl = Hashtbl.create 64 and writes_tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i st ->
      List.iter (fun (_, blk, src) -> add reads_tbl blk (i, src)) st.reads;
      List.iter (fun (_, blk, dst) -> add writes_tbl blk (i, dst)) st.writes)
    steps;
  let pins_tbl = Hashtbl.create 64 in
  List.iter (fun (b, a0, b0) -> add pins_tbl b (a0, b0)) pins;
  let all tbl blk = Option.value ~default:[] (Hashtbl.find_opt tbl blk) in
  let block_total (blk : Cplan.block) =
    Config.block_elems_total (Config.layout plan.Cplan.config blk.Cplan.array)
  in
  let operand_blocks =
    Array.map
      (fun st ->
        List.map (block_at plan st.instance)
          (Stmt.operand_reads (Program.find_stmt plan.Cplan.prog st.stmt)))
      steps
  in
  let step_ok =
    Array.init n (fun i ->
        let st = steps.(i) in
        List.length st.writes = 1
        && kernel.(i).Kernel.chain <> None
        && kernel.(i).Kernel.arity = Some (List.length operand_blocks.(i))
        && List.for_all
             (fun ob -> List.exists (fun (_, rb, _) -> rb = ob) st.reads)
             operand_blocks.(i))
  in
  let link i =
    if i + 1 >= n then None
    else if not (elementwise i && step_ok.(i)) then None
    else
      match steps.(i).writes with
      | [ (_, blk, Cplan.Elided) ]
        when all writes_tbl blk = [ (i, Cplan.Elided) ]
             && all reads_tbl blk = [ (i + 1, Cplan.From_memory) ]
             && List.for_all (fun (a0, b0) -> a0 >= i && b0 <= i + 1) (all pins_tbl blk)
             && step_ok.(i + 1)
             && List.mem blk operand_blocks.(i + 1) ->
          Some blk
      | _ -> None
  in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    match link !i with
    | None ->
        groups := (!i, !i, []) :: !groups;
        incr i
    | Some blk ->
        let tile = block_total blk in
        let links = ref [ blk ] in
        let j = ref (!i + 1) in
        let extending = ref true in
        while !extending do
          if elementwise !j then
            match link !j with
            | Some blk' when block_total blk' = tile ->
                links := blk' :: !links;
                incr j
            | _ -> extending := false
          else extending := false
        done;
        groups := (!i, !j, List.rev !links) :: !groups;
        i := !j + 1
  done;
  List.rev !groups

let fuse_groups (plan : Cplan.t) =
  List.map
    (fun (g : Fuse.group) ->
      (g.Fuse.lo, g.Fuse.hi, List.map (fun k -> plan.Cplan.blocks.(k)) g.Fuse.links))
    (Fuse.analyze plan)

(* --- The checks ------------------------------------------------------------- *)

(* Every read, write and pin id names the block [Access.block_of] gives for
   its access at the step's instance, and so does every kernel operand; a
   pin's block is one an access of its first or last step resolves to.  The
   protocol program names blocks through the plan's own table. *)
let ids_agree name (plan : Cplan.t) =
  let steps = plan.Cplan.steps in
  let block k = plan.Cplan.blocks.(k) in
  Array.iteri
    (fun i (st : Cplan.step) ->
      let check what (a, k, _) =
        if block k <> block_at plan st.Cplan.instance a then
          Alcotest.failf "%s: step %d %s id %d names the wrong block" name i what k
      in
      List.iter (check "read") st.Cplan.reads;
      List.iter (check "write") st.Cplan.writes;
      let s = Program.find_stmt plan.Cplan.prog st.Cplan.stmt in
      if
        List.map block (Cplan.operand_blocks plan i)
        <> List.map (block_at plan st.Cplan.instance) (Stmt.operand_reads s)
      then Alcotest.failf "%s: step %d operand ids name the wrong blocks" name i)
    steps;
  List.iter
    (fun (k, a, b) ->
      let resolves j =
        let st = steps.(j) in
        List.exists
          (fun acc -> block_at plan st.Cplan.instance acc = block k)
          (Program.find_stmt plan.Cplan.prog st.Cplan.stmt).Stmt.accesses
      in
      if not (resolves a || resolves b) then
        Alcotest.failf "%s: pin id %d over [%d, %d] names the wrong block" name k a b)
    plan.Cplan.pins;
  if (Cplan.lower plan).Cplan.blocks != plan.Cplan.blocks then
    Alcotest.failf "%s: the protocol program does not use the plan's table" name

let folds_agree name (plan : Cplan.t) =
  if Journal.fingerprint plan <> frozen_fingerprint plan then
    Alcotest.failf "%s: fingerprint differs" name;
  let safe, restart, undo = frozen_analyze plan in
  let rp = Journal.analyze plan in
  if rp.Journal.safe <> safe then Alcotest.failf "%s: safe differs" name;
  if rp.Journal.restart <> restart then Alcotest.failf "%s: restart differs" name;
  let named_undo =
    Array.map
      (List.map (fun k ->
           let blk = plan.Cplan.blocks.(k) in
           (blk.Cplan.array, blk.Cplan.index)))
      rp.Journal.undo
  in
  if named_undo <> undo then Alcotest.failf "%s: undo differs" name;
  let h = Prefetch.make plan in
  Array.iteri
    (fun t hints ->
      let named_hints =
        List.map (fun (k, e) -> (plan.Cplan.blocks.(k), e)) (Prefetch.hints_at h t)
      in
      if named_hints <> hints then Alcotest.failf "%s: hints at step %d differ" name t)
    (frozen_hints plan)

let fuse_agrees name plan =
  if fuse_groups plan <> frozen_fuse plan then Alcotest.failf "%s: fusion groups differ" name

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

(* Every enumerated plan of the paper pipelines. *)
let pipeline_plans =
  lazy
    (List.concat_map
       (fun (name, prog, config, max_size) ->
         let ref_params = config.Config.params in
         let analysis = Deps.extract prog ~ref_params in
         let plans, _ = Search.enumerate ?max_size prog ~analysis ~ref_params in
         List.mapi
           (fun k (p : Search.plan) ->
             ( Printf.sprintf "%s plan %d" name k,
               Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q ))
           plans)
       pipelines)

(* Seeds 0..239: opaque nests on even seeds, element-wise chains on odd
   ones, searched plans on every tenth. *)
let seed_plans =
  lazy
    (List.concat_map
       (fun seed ->
         List.mapi
           (fun k plan -> (Printf.sprintf "seed %d plan %d" seed k, plan))
           (Differential.case_of_seed seed).Differential.plans)
       (List.init 240 Fun.id))

let on plans check () = List.iter (fun (name, plan) -> check name plan) (Lazy.force plans)

(* The protocol program leaves a malformed pin out (here one running past
   the last step), but the fusion analysis reads every pin of the plan, as
   the frozen walk did: a malformed pin of a link block that escapes the
   fused pair keeps the block out of every chain. *)
let test_malformed_pin () =
  let plan, lo, k =
    match
      List.find_map
        (fun (_, plan) ->
          List.find_map
            (fun (g : Fuse.group) ->
              match g.Fuse.links with k :: _ -> Some (plan, g.Fuse.lo, k) | [] -> None)
            (Fuse.analyze plan))
        (Lazy.force seed_plans)
    with
    | Some x -> x
    | None -> Alcotest.fail "no fused plan among the seeds"
  in
  let n = Array.length plan.Cplan.steps in
  let bad = { plan with Cplan.pins = (k, lo, n) :: plan.Cplan.pins } in
  fuse_agrees "malformed pin" bad;
  Alcotest.(check bool)
    "the link is fused no more" false
    (List.exists (fun (g : Fuse.group) -> List.mem k g.Fuse.links) (Fuse.analyze bad));
  let pins_of (plan : Cplan.t) =
    Array.fold_left
      (fun c op -> match op with Cplan.Pin k' when k' = k -> c + 1 | _ -> c)
      0 (Cplan.lower plan).Cplan.ops
  in
  Alcotest.(check int) "the program leaves the pin out" (pins_of plan) (pins_of bad)

let suite =
  ( "protocol",
    [ Alcotest.test_case "journal and prefetch folds = frozen walks (pipelines)" `Quick
        (on pipeline_plans folds_agree);
      Alcotest.test_case "journal and prefetch folds = frozen walks (240 seeds)" `Quick
        (on seed_plans folds_agree);
      Alcotest.test_case "fusion analysis = frozen walk (pipelines)" `Quick
        (on pipeline_plans fuse_agrees);
      Alcotest.test_case "fusion analysis = frozen walk (240 seeds)" `Quick
        (on seed_plans fuse_agrees);
      Alcotest.test_case "fusion reads a malformed pin, as the frozen walk" `Quick
        test_malformed_pin;
      Alcotest.test_case "block ids = Access.block_of (pipelines)" `Quick
        (on pipeline_plans ids_agree);
      Alcotest.test_case "block ids = Access.block_of (240 seeds)" `Quick
        (on seed_plans ids_agree) ] )
