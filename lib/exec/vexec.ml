module Cplan = Riot_plan.Cplan
module Fuse = Riot_plan.Fuse
module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Kernel = Riot_ir.Kernel
module Dense = Riot_kernels.Dense

exception
  Arity of { step : int; stmt : string; kernel : string; operands : int }

type operand = Slot of int | Pool of int

type kernel = {
  operands : operand array;
  run : Dense.par -> float array array -> float array -> unit;
}

type compiled = { program : Cplan.program; kernels : kernel array; n_fused : int }

(* The position of block [id] among the step's reads, or -1. *)
let read_index (st : Cplan.step) id =
  let rec go j = function
    | [] -> -1
    | (_, k, _) :: rest -> if k = id then j else go (j + 1) rest
  in
  go 0 st.Cplan.reads

(* What a kernel is to [Dense]: an element-wise kernel is a chain stage,
   any other a closure over its operand buffers and its write buffer. *)
type dense =
  | Stage of Dense.fstage
  | Call of (Dense.par -> float array array -> float array -> unit)

(* The one match from a kernel to [Dense], for step [i] whose operands are
   [srcs].  Called only once the step fits the kernel table's arity, so a
   kernel with a fixed arity has its operands and its write block.  The
   result depends only on the statement (its kernel, arity and the block
   layouts of its fixed operand arrays), never on the block instance, so it
   is shared across the plan's steps of one statement.  The run's
   parallel-for is an argument, never captured: compiled plans are cached
   across runs, and each run owns its pool. *)
let dense (plan : Cplan.t) i srcs =
  let st = plan.Cplan.steps.(i) in
  let s = Program.find_stmt plan.Cplan.prog st.Cplan.stmt in
  let layout name = Config.layout plan.Cplan.config name in
  let dims () =
    match st.Cplan.writes with
    | (_, k, _) :: _ -> (layout plan.Cplan.blocks.(k).Cplan.array).Config.block_elems
    | [] -> assert false
  in
  match s.Stmt.kernel with
  | Kernel.Assign_add -> Stage (Dense.Fadd (srcs.(0), srcs.(1)))
  | Kernel.Assign_sub -> Stage (Dense.Fsub (srcs.(0), srcs.(1)))
  | Kernel.Copy -> Stage (Dense.Fcopy srcs.(0))
  | Kernel.Filter -> Stage (Dense.Ffilter srcs.(0))
  | Kernel.Foreach -> Stage (Dense.Fforeach srcs.(0))
  | Kernel.Gemm_acc { ta; tb } ->
      let d = dims () in
      let m = d.(0) and nn = d.(1) in
      Call
        (fun par bufs c ->
          let a = bufs.(0) and b = bufs.(1) in
          let k = Array.length a / m in
          Dense.gemm_par par ~accumulate:true ~ta ~tb ~m ~n:nn ~k ~a ~b ~c)
  | Kernel.Invert ->
      let nn = (dims ()).(0) in
      Call (fun _ bufs c -> Dense.invert ~n:nn bufs.(0) c)
  | Kernel.Rss_acc ->
      let el =
        match Stmt.operand_reads s with
        | (a : Access.t) :: _ -> (layout a.Access.array).Config.block_elems
        | [] -> assert false
      in
      let rows = el.(0) and cols = el.(1) in
      Call (fun _ bufs c -> Dense.rss_acc ~rows ~cols ~e:bufs.(0) ~acc:c)
  | Kernel.Join_nl ->
      let d = dims () in
      let rows = d.(0) and cols = d.(1) in
      Call (fun _ bufs c -> Dense.join_scores ~rows ~cols ~l:bufs.(0) ~r:bufs.(1) ~out:c)
  | Kernel.Opaque tag ->
      (* Surrogate computation for opaque kernels: a deterministic
         element-wise mix of the operand values.  It reads only the
         declared operands - never the prior contents of [c], whose buffer
         may be fresh or stale depending on residency (the [op != c] guard
         tests buffer identity) - and writes every element, so the bytes
         produced depend only on the declared dataflow.  That makes
         differential harnesses (plan-output equivalence, crash-resume)
         compare real data even for programs with no named kernel.  A step
         with no write gets [c = [||]] and does nothing. *)
      let th = (Hashtbl.hash tag land 0xFFFF) + 1 in
      Call
        (fun _ bufs c ->
          for e = 0 to Array.length c - 1 do
            let acc = ref ((th * 1000003) + e) in
            Array.iter
              (fun (op : float array) ->
                if op != c && Array.length op > 0 then
                  acc :=
                    (!acc * 1000003)
                    lxor Hashtbl.hash
                           (Int64.bits_of_float op.(e mod Array.length op)))
              bufs;
            c.(e) <- float_of_int (!acc land 0xFFFFF)
          done)

(* One step's kernel.  An operand is its read's capture slot (slot [j] is
   the step's [j]-th read), else a block id the pool must already hold.  The
   arity is checked once, against the kernel table, when the statement's
   closure is first built; a step that does not fit gets a closure raising
   {!Arity} with its own index, so it is never shared.  An element-wise
   step runs as a one-stage chain, which writes its output directly and
   never touches its (empty) scratch tile. *)
let compile_single ~kcache (plan : Cplan.t) i =
  let st = plan.Cplan.steps.(i) in
  let operands =
    Array.of_list
      (List.map
         (fun ob ->
           let r = read_index st ob in
           if r >= 0 then Slot r else Pool ob)
         (Cplan.operand_blocks plan i))
  in
  let nops = Array.length operands in
  let run =
    match Hashtbl.find_opt kcache st.Cplan.stmt with
    | Some k -> k
    | None -> (
        let info = Kernel.info (Program.find_stmt plan.Cplan.prog st.Cplan.stmt).Stmt.kernel in
        match info.Kernel.arity with
        | Some a when a <> nops || st.Cplan.writes = [] ->
            fun _ _ _ ->
              raise
                (Arity
                   { step = i; stmt = st.Cplan.stmt; kernel = info.Kernel.name; operands = nops })
        | _ ->
            let k =
              match dense plan i (Array.init nops (fun j -> Dense.Buf j)) with
              | Call k -> k
              | Stage stage ->
                  let chain = Dense.compile_chain ~tile:0 [| stage |] in
                  fun _ bufs c -> Dense.run_chain chain ~bufs ~dst:c
            in
            Hashtbl.add kcache st.Cplan.stmt k;
            k)
  in
  { operands; run }

(* A fused group [lo..hi] as one chain kernel.  Step [lo + o]'s [j]-th
   read sits in capture slot [base.(o) + j]; an operand that is the incoming
   link is the chain's previous tile, every other one a chain operand slot.
   Fuse admits only kernels with a chain role and the table's arity, every
   operand among the step's reads. *)
let compile_chain (plan : Cplan.t) lo hi =
  let nst = hi - lo + 1 in
  let step o = plan.Cplan.steps.(lo + o) in
  let link o = match (step o).Cplan.writes with (_, k, _) :: _ -> k | [] -> assert false in
  let base = Array.make nst 0 in
  for o = 1 to nst - 1 do
    base.(o) <- base.(o - 1) + List.length (step (o - 1)).Cplan.reads
  done;
  let binds = ref [] and nbinds = ref 0 in
  let member o =
    let src ob =
      if o > 0 && ob = link (o - 1) then Dense.Prev
      else begin
        let r = read_index (step o) ob in
        assert (r >= 0);
        binds := Slot (base.(o) + r) :: !binds;
        incr nbinds;
        Dense.Buf (!nbinds - 1)
      end
    in
    dense plan (lo + o) (Array.of_list (List.map src (Cplan.operand_blocks plan (lo + o))))
  in
  let members = Array.init nst member in
  let stage = function Stage s -> s | Call _ -> assert false in
  let tile =
    Config.block_elems_total
      (Config.layout plan.Cplan.config plan.Cplan.blocks.(link 0).Cplan.array)
  in
  let run =
    match members.(nst - 1) with
    | Stage _ ->
        let chain = Dense.compile_chain ~tile (Array.map stage members) in
        fun _ bufs dst -> Dense.run_chain chain ~bufs ~dst
    | Call terminal ->
        (* A [Terminal] kernel consumes the chain's final tile directly, its
           one operand being the incoming link.  An accumulator's zero-fill
           waits until the interior stages have read their operands, one of
           which may be the accumulator itself. *)
        let chain = Dense.compile_chain ~tile (Array.map stage (Array.sub members 0 (nst - 1))) in
        let fill = Cplan.zero_fill plan hi in
        fun par bufs dst ->
          let e = Dense.run_stages chain ~bufs in
          if fill then Dense.fill dst 0.;
          terminal par [| e |] dst
  in
  { operands = Array.of_list (List.rev !binds); run }

let compile ?(fuse = true) (plan : Cplan.t) =
  let fused =
    if fuse then
      List.filter_map
        (fun (g : Fuse.group) -> if g.Fuse.hi > g.Fuse.lo then Some (g.Fuse.lo, g.Fuse.hi) else None)
        (Fuse.analyze plan)
    else []
  in
  let p = Cplan.lower ~fused plan in
  let kcache = Hashtbl.create 16 in
  let nothing = { operands = [||]; run = (fun _ _ _ -> ()) } in
  let kernels = Array.make (Array.length plan.Cplan.steps) nothing in
  Array.iteri
    (fun lo hi ->
      if hi = lo then kernels.(lo) <- compile_single ~kcache plan lo
      else if hi > lo then kernels.(lo) <- compile_chain plan lo hi)
    p.Cplan.heads;
  { program = p; kernels; n_fused = List.length fused }

(* Compilation costs about as much as executing the plan once, so callers
   that run the same plan repeatedly (benchmarks, crash/restart recovery,
   differential reruns) must not pay it per run.  The cache is domain-local
   because a compiled plan owns mutable scratch (each fused chain's tile);
   two domains sharing one [compiled] would race on it, while sequential
   reuse within a domain is safe — every chain stage writes its tile before
   any read of it.  Keyed on the plan's physical identity (plans are built
   once and passed around, and [==] avoids hashing the whole plan
   structure) and on [fuse]. *)
let cache_cap = 4

let compiled_cache : ((Cplan.t * bool) * compiled) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compiled_for ?(fuse = true) (plan : Cplan.t) =
  let cache = Domain.DLS.get compiled_cache in
  match List.find_opt (fun ((p, f), _) -> p == plan && f = fuse) !cache with
  | Some (_, c) -> c
  | None ->
      let c = compile ~fuse plan in
      let keep =
        if List.length !cache >= cache_cap then
          List.filteri (fun k _ -> k < cache_cap - 1) !cache
        else !cache
      in
      cache := ((plan, fuse), c) :: keep;
      c
