module Config = Riot_ir.Config
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Kernel = Riot_ir.Kernel

type group = { lo : int; hi : int; links : Cplan.block list }

let analyze (plan : Cplan.t) =
  let steps = plan.Cplan.steps in
  let n = Array.length steps in
  let kernel =
    Array.map
      (fun (st : Cplan.step) ->
        Kernel.info (Program.find_stmt plan.Cplan.prog st.Cplan.stmt).Stmt.kernel)
      steps
  in
  let elementwise i = kernel.(i).Kernel.chain = Some Kernel.Elementwise in
  (* Whole-plan access maps: a block may be skipped only when its entire
     life is the one elided write and the one memory read the link fuses
     over (plus pins inside that interval). *)
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let reads_tbl = Hashtbl.create 64 and writes_tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i (st : Cplan.step) ->
      List.iter (fun (_, blk, src) -> add reads_tbl blk (i, src)) st.Cplan.reads;
      List.iter (fun (_, blk, dst) -> add writes_tbl blk (i, dst)) st.Cplan.writes)
    steps;
  (* Indexed by block, so each boundary check touches only that block's own
     pins — scanning the whole pin list per boundary is quadratic in the
     block count on fine-grained plans. *)
  let pins_tbl = Hashtbl.create 64 in
  List.iter (fun (b, a0, b0) -> add pins_tbl b (a0, b0)) plan.Cplan.pins;
  let all tbl blk = Option.value ~default:[] (Hashtbl.find_opt tbl blk) in
  let block_total (blk : Cplan.block) =
    Config.block_elems_total (Config.layout plan.Cplan.config blk.Cplan.array)
  in
  (* Computed once per step up front: [link] consults both endpoints of
     every boundary, so recomputing these per probe would walk each step's
     accesses several times over (measurable on fine-grained plans). *)
  let operand_blocks = Array.init n (Cplan.operand_blocks plan) in
  let operand_blocks i = operand_blocks.(i) in
  (* A step can take part in a chain (as producer or consumer) only when its
     kernel has a chain role and the executor's view of it is fully static:
     exactly one write, the table's operand count, and every kernel operand
     resolvable from the step's own read list (a [restrict_to] may deactivate
     a read an operand still names; such steps run one at a time).  A
     producer must also be element-wise; a [Terminal] only ends a chain. *)
  let step_ok =
    Array.init n (fun i ->
        let st = steps.(i) in
        List.length st.Cplan.writes = 1
        && kernel.(i).Kernel.chain <> None
        && kernel.(i).Kernel.arity = Some (List.length (operand_blocks i))
        && List.for_all
             (fun ob -> List.exists (fun (_, rb, _) -> rb = ob) st.Cplan.reads)
             (operand_blocks i))
  in
  let step_ok i = step_ok.(i) in
  (* Is the boundary between steps [i] and [i + 1] fusable, and over which
     block?  The producer's elided write must be the block's only write, the
     consumer's memory read its only read, and every pin of the block must
     live inside [i, i + 1] — then skipping the block entirely is invisible
     to disk, journal and every other step. *)
  let link i =
    if i + 1 >= n then None
    else if not (elementwise i && step_ok i) then None
    else
      match steps.(i).Cplan.writes with
      | [ (_, blk, Cplan.Elided) ]
        when all writes_tbl blk = [ (i, Cplan.Elided) ]
             && all reads_tbl blk = [ (i + 1, Cplan.From_memory) ]
             && List.for_all
                  (fun (a0, b0) -> a0 >= i && b0 <= i + 1)
                  (all pins_tbl blk)
             && step_ok (i + 1)
             && List.mem blk (operand_blocks (i + 1)) ->
          Some blk
      | _ -> None
  in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    match link !i with
    | None ->
        groups := { lo = !i; hi = !i; links = [] } :: !groups;
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
        groups := { lo = !i; hi = !j; links = List.rev !links } :: !groups;
        i := !j + 1
  done;
  List.rev !groups

let fused_groups groups = List.length (List.filter (fun g -> g.hi > g.lo) groups)
