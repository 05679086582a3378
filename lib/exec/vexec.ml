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

type operand = Slot of int | Pool of int | Absent of Cplan.block

type kernel = { operands : operand array; run : float array array -> float array -> unit }

type compiled = { program : Cplan.program; kernels : kernel array; n_fused : int }

(* The position of [blk] among the step's reads, or -1. *)
let read_index (st : Cplan.step) blk =
  let rec go j = function
    | [] -> -1
    | (_, b, _) :: rest -> if b = blk then j else go (j + 1) rest
  in
  go 0 st.Cplan.reads

(* One step's kernel.  An operand is its read's capture slot (slot [j] is
   the step's [j]-th read), else a block the pool must already hold. *)
let compile_single ~kcache ~id_of (plan : Cplan.t) i =
  let st = plan.Cplan.steps.(i) in
  let s = Program.find_stmt plan.Cplan.prog st.Cplan.stmt in
  let operands =
    Array.of_list
      (List.map
         (fun ob ->
           let r = read_index st ob in
           if r >= 0 then Slot r
           else match id_of ob with Some k -> Pool k | None -> Absent ob)
         (Cplan.operand_blocks plan i))
  in
  let write = match st.Cplan.writes with [] -> None | (_, blk, _) :: _ -> Some blk in
  let layout name = Config.layout plan.Cplan.config name in
  let nops = Array.length operands in
  (* The kernel closure depends only on the statement (its kernel, arity and
     the block layouts of its fixed operand arrays), never on the block
     instance, so it is shared across the plan's steps of one statement —
     compilation is per (program, plan), not per block. *)
  let build_kern () =
    match (s.Stmt.kernel, write) with
    | Kernel.Gemm_acc { ta; tb }, Some wblk when nops = 2 ->
        let wl = layout wblk.Cplan.array in
        let m = wl.Config.block_elems.(0) and nn = wl.Config.block_elems.(1) in
        Some
          (fun bufs c ->
            let a = bufs.(0) and b = bufs.(1) in
            let k = Array.length a / m in
            Dense.gemm ~accumulate:true ~ta ~tb ~m ~n:nn ~k ~a ~b ~c)
    | Kernel.Assign_add, Some _ when nops = 2 ->
        Some (fun bufs c -> Dense.add bufs.(0) bufs.(1) c)
    | Kernel.Assign_sub, Some _ when nops = 2 ->
        Some (fun bufs c -> Dense.sub bufs.(0) bufs.(1) c)
    | Kernel.Copy, Some _ when nops = 1 ->
        Some (fun bufs c -> Dense.copy ~src:bufs.(0) ~dst:c)
    | Kernel.Invert, Some wblk when nops = 1 ->
        let nn = (layout wblk.Cplan.array).Config.block_elems.(0) in
        Some (fun bufs c -> Dense.invert ~n:nn bufs.(0) c)
    | Kernel.Rss_acc, Some _ when nops = 1 ->
        let el =
          match Stmt.operand_reads s with
          | (a : Access.t) :: _ -> layout a.Access.array
          | [] -> assert false
        in
        let rows = el.Config.block_elems.(0)
        and cols = el.Config.block_elems.(1) in
        Some (fun bufs c -> Dense.rss_acc ~rows ~cols ~e:bufs.(0) ~acc:c)
    | Kernel.Filter, Some _ when nops = 1 ->
        Some (fun bufs c -> Dense.filter_pos ~src:bufs.(0) ~dst:c)
    | Kernel.Foreach, Some _ when nops = 1 ->
        Some (fun bufs c -> Dense.foreach_affine ~src:bufs.(0) ~dst:c)
    | Kernel.Join_nl, Some wblk when nops = 2 ->
        let wl = layout wblk.Cplan.array in
        let rows = wl.Config.block_elems.(0)
        and cols = wl.Config.block_elems.(1) in
        Some
          (fun bufs c ->
            Dense.join_scores ~rows ~cols ~l:bufs.(0) ~r:bufs.(1) ~out:c)
    | Kernel.Opaque tag, Some _ ->
        (* Surrogate computation for opaque kernels: a deterministic
           element-wise mix of the operand values.  It reads only the
           declared operands - never the prior contents of [c], whose buffer
           may be fresh or stale depending on residency (the [op != c] guard
           tests buffer identity) - and writes every element, so the bytes
           produced depend only on the declared dataflow.  That makes
           differential harnesses (plan-output equivalence, crash-resume)
           compare real data even for programs with no named kernel. *)
        let th = (Hashtbl.hash tag land 0xFFFF) + 1 in
        Some
          (fun bufs c ->
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
    | Kernel.Opaque _, None -> Some (fun _ _ -> ())
    | _ -> None
  in
  let run =
    match Hashtbl.find_opt kcache st.Cplan.stmt with
    | Some k -> k
    | None -> (
        match build_kern () with
        | Some k ->
            Hashtbl.add kcache st.Cplan.stmt k;
            k
        (* The arity raiser reports this step's index, so it is the one
           closure never shared across instances. *)
        | None ->
            fun _ _ ->
              raise
                (Arity
                   { step = i;
                     stmt = st.Cplan.stmt;
                     kernel = Kernel.name s.Stmt.kernel;
                     operands = nops }))
  in
  { operands; run }

(* A fused group [lo..hi] as one chain kernel.  Step [lo + o]'s [j]-th
   read sits in capture slot [base.(o) + j]; an operand that is the incoming
   link is the chain's previous tile, every other one a chain operand slot.
   Fuse admits only kernels with a chain arity, every operand among the
   step's reads. *)
let compile_chain (plan : Cplan.t) lo hi =
  let nst = hi - lo + 1 in
  let step o = plan.Cplan.steps.(lo + o) in
  let stmt o = Program.find_stmt plan.Cplan.prog (step o).Cplan.stmt in
  let link o = match (step o).Cplan.writes with (_, blk, _) :: _ -> blk | [] -> assert false in
  let base = Array.make nst 0 in
  for o = 1 to nst - 1 do
    base.(o) <- base.(o - 1) + List.length (step (o - 1)).Cplan.reads
  done;
  let binds = ref [] and nbinds = ref 0 in
  let stage o =
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
    match ((stmt o).Stmt.kernel, List.map src (Cplan.operand_blocks plan (lo + o))) with
    | Kernel.Assign_add, [ a; b ] -> Dense.Fadd (a, b)
    | Kernel.Assign_sub, [ a; b ] -> Dense.Fsub (a, b)
    | Kernel.Copy, [ a ] -> Dense.Fcopy a
    | Kernel.Filter, [ a ] -> Dense.Ffilter a
    | Kernel.Foreach, [ a ] -> Dense.Fforeach a
    | _ -> assert false
  in
  let tile = Config.block_elems_total (Config.layout plan.Cplan.config (link 0).Cplan.array) in
  let run =
    match (stmt (nst - 1)).Stmt.kernel with
    | Kernel.Rss_acc ->
        (* The accumulation consumes the chain's final tile directly.  Its
           zero-fill waits until the interior stages have read their
           operands, one of which may be the accumulator itself. *)
        let el = Config.layout plan.Cplan.config (link (nst - 2)).Cplan.array in
        let rows = el.Config.block_elems.(0) and cols = el.Config.block_elems.(1) in
        let chain = Dense.compile_chain ~tile (Array.init (nst - 1) stage) in
        let fill = Cplan.zero_fill plan hi in
        fun bufs dst ->
          let e = Dense.run_stages chain ~bufs in
          if fill then Dense.fill dst 0.;
          Dense.rss_acc ~rows ~cols ~e ~acc:dst
    | _ ->
        let chain = Dense.compile_chain ~tile (Array.init nst stage) in
        fun bufs dst -> Dense.run_chain chain ~bufs ~dst
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
  let ids =
    lazy
      (let h = Hashtbl.create (Array.length p.Cplan.blocks) in
       Array.iteri (fun k b -> Hashtbl.replace h b k) p.Cplan.blocks;
       h)
  in
  let id_of blk = Hashtbl.find_opt (Lazy.force ids) blk in
  let kcache = Hashtbl.create 16 in
  let nothing = { operands = [||]; run = (fun _ _ -> ()) } in
  let kernels = Array.make (Array.length plan.Cplan.steps) nothing in
  Array.iteri
    (fun lo hi ->
      if hi = lo then kernels.(lo) <- compile_single ~kcache ~id_of plan lo
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
