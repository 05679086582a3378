module Config = Riot_ir.Config
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Kernel = Riot_ir.Kernel

type group = { lo : int; hi : int; links : int list }

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
  (* Whole-plan access maps by block id: a block may be skipped only when
     its entire life is the one elided write and the one memory read the
     link fuses over (plus pins inside that interval).  Every pin counts, a
     malformed one included, although the protocol program leaves such a
     pin out: one escaping the pair keeps its block out of any chain. *)
  let nb = Array.length plan.Cplan.blocks in
  let reads_of = Array.make nb [] and writes_of = Array.make nb [] in
  let pins_of = Array.make nb [] in
  Array.iteri
    (fun i (st : Cplan.step) ->
      List.iter (fun (_, k, src) -> reads_of.(k) <- (i, src) :: reads_of.(k)) st.Cplan.reads;
      List.iter (fun (_, k, dst) -> writes_of.(k) <- (i, dst) :: writes_of.(k)) st.Cplan.writes)
    steps;
  List.iter (fun (k, a0, b0) -> pins_of.(k) <- (a0, b0) :: pins_of.(k)) plan.Cplan.pins;
  let block_total k =
    Config.block_elems_total (Config.layout plan.Cplan.config plan.Cplan.blocks.(k).Cplan.array)
  in
  (* Computed once per step up front: [link] consults both endpoints of
     every boundary. *)
  let operand_blocks = Array.init n (Cplan.operand_blocks plan) in
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
        && kernel.(i).Kernel.arity = Some (List.length operand_blocks.(i))
        && List.for_all
             (fun ob -> List.exists (fun (_, rk, _) -> rk = ob) st.Cplan.reads)
             operand_blocks.(i))
  in
  (* Is the boundary between steps [i] and [i + 1] fusable, and over which
     block?  The producer's elided write must be the block's only write, the
     consumer's memory read its only read, and every pin of the block must
     live inside [i, i + 1] — then skipping the block entirely is invisible
     to disk, journal and every other step. *)
  let link i =
    if i + 1 >= n then None
    else if not (elementwise i && step_ok.(i)) then None
    else
      match steps.(i).Cplan.writes with
      | [ (_, k, Cplan.Elided) ]
        when writes_of.(k) = [ (i, Cplan.Elided) ]
             && reads_of.(k) = [ (i + 1, Cplan.From_memory) ]
             && List.for_all (fun (a0, b0) -> a0 >= i && b0 <= i + 1) pins_of.(k)
             && step_ok.(i + 1)
             && List.mem k operand_blocks.(i + 1) ->
          Some k
      | _ -> None
  in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    match link !i with
    | None ->
        groups := { lo = !i; hi = !i; links = [] } :: !groups;
        incr i
    | Some k ->
        let tile = block_total k in
        let links = ref [ k ] in
        let j = ref (!i + 1) in
        let extending = ref true in
        while !extending do
          if elementwise !j then
            match link !j with
            | Some k' when block_total k' = tile ->
                links := k' :: !links;
                incr j
            | _ -> extending := false
          else extending := false
        done;
        groups := { lo = !i; hi = !j; links = List.rev !links } :: !groups;
        i := !j + 1
  done;
  List.rev !groups

let fused_groups groups = List.length (List.filter (fun g -> g.hi > g.lo) groups)
