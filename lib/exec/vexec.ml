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

type op_src = Rd of int | Pool of Cplan.block

type single = {
  s_step : int;
  s_stmt : string;
  s_instance : (string * int) list;
  s_reads : (Cplan.block * Cplan.read_src) array;
  s_write : (Cplan.block * Cplan.write_dst) option;
  s_fill : bool;
  s_ops : op_src array;
  s_drops : Cplan.block array;
  s_kernel : float array array -> float array -> unit;
}

type terminal = Ew | Rss of { rows : int; cols : int }

type fused = {
  f_lo : int;
  f_hi : int;
  f_steps : single array;
  f_prev_read : int array;
  f_links : Cplan.block array;
  f_chain : Dense.chain;
  f_binds : (int * int) array;
  f_captured : float array array array;
  f_terminal : terminal;
}

type op = Single of single | Fused of fused

type compiled = {
  ops : op array;
  n_fused : int;
  pins : Cplan.pin_index;
}

let compile_single ?kcache (plan : Cplan.t) i =
  let st = plan.Cplan.steps.(i) in
  let s = Program.find_stmt plan.Cplan.prog st.Cplan.stmt in
  let lookup nm =
    match List.assoc_opt nm st.Cplan.instance with
    | Some v -> v
    | None -> List.assoc nm plan.Cplan.config.Config.params
  in
  let reads =
    Array.of_list (List.map (fun (_, blk, src) -> (blk, src)) st.Cplan.reads)
  in
  let write =
    match st.Cplan.writes with
    | [] -> None
    | (_, blk, dst) :: _ -> Some (blk, dst)
  in
  let fill =
    match st.Cplan.writes with
    | ((wa : Access.t), wblk, _) :: _ ->
        Kernel.is_accumulating s.Stmt.kernel
        && not
             (List.exists
                (fun ((a : Access.t), b, _) -> Access.same_map wa a && b = wblk)
                st.Cplan.reads)
    | [] -> false
  in
  let ops =
    Array.of_list
      (List.map
         (fun (oa : Access.t) ->
           let ob =
             { Cplan.array = oa.Access.array;
               index = Array.to_list (Access.block_of oa lookup) }
           in
           let idx = ref (-1) in
           Array.iteri
             (fun r (blk, _) -> if !idx < 0 && blk = ob then idx := r)
             reads;
           if !idx >= 0 then Rd !idx else Pool ob)
         (Stmt.operand_reads s))
  in
  let layout name = Config.layout plan.Cplan.config name in
  let nops = Array.length ops in
  let arity_raiser () =
    fun (_ : float array array) (_ : float array) ->
     raise
       (Arity
          { step = i;
            stmt = st.Cplan.stmt;
            kernel = Kernel.name s.Stmt.kernel;
            operands = nops })
  in
  (* The kernel closure depends only on the statement (its kernel, arity and
     the block layouts of its fixed operand arrays), never on the block
     instance, so it is shared across the plan's steps of one statement —
     compilation is per (program, plan), not per block. *)
  let build_kern () =
    match (s.Stmt.kernel, write) with
    | Kernel.Gemm_acc { ta; tb }, Some (wblk, _) when nops = 2 ->
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
    | Kernel.Invert, Some (wblk, _) when nops = 1 ->
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
    | Kernel.Join_nl, Some (wblk, _) when nops = 2 ->
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
  let kern =
    match kcache with
    | None -> (
        match build_kern () with Some k -> k | None -> arity_raiser ())
    | Some tbl -> (
        match Hashtbl.find_opt tbl st.Cplan.stmt with
        | Some k -> k
        | None -> (
            match build_kern () with
            | Some k ->
                Hashtbl.add tbl st.Cplan.stmt k;
                k
            (* The arity raiser reports this step's index, so it is the one
               closure never shared across instances. *)
            | None -> arity_raiser ()))
  in
  (* The end-of-step dead-block sweep, precomputed so the engine iterates
     a list instead of re-deriving it per run. *)
  let drops = Array.of_list (Cplan.sweep st) in
  { s_step = i;
    s_stmt = st.Cplan.stmt;
    s_instance = st.Cplan.instance;
    s_reads = reads;
    s_write = write;
    s_fill = fill;
    s_ops = ops;
    s_drops = drops;
    s_kernel = kern }

let compile_fused ?kcache (plan : Cplan.t) (g : Fuse.group) =
  let nst = g.Fuse.hi - g.Fuse.lo + 1 in
  let links = Array.of_list g.Fuse.links in
  let steps =
    Array.init nst (fun o -> compile_single ?kcache plan (g.Fuse.lo + o))
  in
  (* A link block never materializes in the pool when the group runs fused,
     so probing it in the dead-block sweep is a guaranteed miss — filter the
     links out of every member step's drop list (it cannot change behaviour
     or the trace: dropping a non-resident block is a silent no-op). *)
  let is_link blk = List.exists (fun l -> l = blk) g.Fuse.links in
  let steps =
    Array.map
      (fun s ->
        { s with
          s_drops =
            Array.of_list
              (List.filter
                 (fun b -> not (is_link b))
                 (Array.to_list s.s_drops)) })
      steps
  in
  let read_index (s : single) blk =
    let idx = ref (-1) in
    Array.iteri (fun r (b, _) -> if !idx < 0 && b = blk then idx := r) s.s_reads;
    assert (!idx >= 0);
    !idx
  in
  let prev_read =
    Array.init nst (fun o ->
        if o = 0 then -1 else read_index steps.(o) links.(o - 1))
  in
  let binds = ref [] and nbinds = ref 0 in
  let src o k =
    match steps.(o).s_ops.(k) with
    | Rd r ->
        let blk, _ = steps.(o).s_reads.(r) in
        if o > 0 && blk = links.(o - 1) then Dense.Prev
        else begin
          let slot = !nbinds in
          incr nbinds;
          binds := (o, r) :: !binds;
          Dense.Buf slot
        end
    | Pool _ -> assert false (* Fuse requires operands in the step's reads *)
  in
  (* Fuse admits only kernels with a chain arity, and checked that every
     operand is among the step's reads. *)
  let stage_of o =
    let kernel =
      (Program.find_stmt plan.Cplan.prog plan.Cplan.steps.(g.Fuse.lo + o).Cplan.stmt)
        .Stmt.kernel
    in
    let srcs = List.init (Option.get (Kernel.chain_arity kernel)) (src o) in
    match (kernel, srcs) with
    | Kernel.Assign_add, [ a; b ] -> Dense.Fadd (a, b)
    | Kernel.Assign_sub, [ a; b ] -> Dense.Fsub (a, b)
    | Kernel.Copy, [ a ] -> Dense.Fcopy a
    | Kernel.Filter, [ a ] -> Dense.Ffilter a
    | Kernel.Foreach, [ a ] -> Dense.Fforeach a
    | _ -> assert false
  in
  let term_kernel =
    (Program.find_stmt plan.Cplan.prog plan.Cplan.steps.(g.Fuse.hi).Cplan.stmt)
      .Stmt.kernel
  in
  let terminal, stages =
    match term_kernel with
    | Kernel.Rss_acc ->
        (* The accumulation consumes the chain's final tile directly. *)
        assert (prev_read.(nst - 1) >= 0);
        let e_array = links.(nst - 2).Cplan.array in
        let el = Config.layout plan.Cplan.config e_array in
        ( Rss { rows = el.Config.block_elems.(0); cols = el.Config.block_elems.(1) },
          Array.init (nst - 1) stage_of )
    | _ -> (Ew, Array.init nst stage_of)
  in
  let tile =
    Config.block_elems_total (Config.layout plan.Cplan.config links.(0).Cplan.array)
  in
  { f_lo = g.Fuse.lo;
    f_hi = g.Fuse.hi;
    f_steps = steps;
    f_prev_read = prev_read;
    f_links = links;
    f_chain = Dense.compile_chain ~tile stages;
    f_binds = Array.of_list (List.rev !binds);
    f_captured =
      Array.map
        (fun (s : single) -> Array.make (Array.length s.s_reads) [||])
        steps;
    f_terminal = terminal }

let compile ?(fuse = true) (plan : Cplan.t) =
  let groups =
    if fuse then Fuse.analyze plan
    else
      List.init (Array.length plan.Cplan.steps) (fun i ->
          { Fuse.lo = i; hi = i; links = [] })
  in
  let kcache = Hashtbl.create 16 in
  let ops =
    Array.of_list
      (List.map
         (fun (g : Fuse.group) ->
           if g.Fuse.hi = g.Fuse.lo then
             Single (compile_single ~kcache plan g.Fuse.lo)
           else Fused (compile_fused ~kcache plan g))
         groups)
  in
  (* The plan's pin index with every link pin filtered out (link blocks
     never materialize, so their pins are unopenable); unfused, it is the
     plan's own.  Precomputed here because rebuilding it per run re-hashes
     every pin of the plan — on fine-grained plans that setup rivals the
     execution itself. *)
  let linked = Hashtbl.create 64 in
  Array.iter
    (function
      | Fused f -> Array.iter (fun blk -> Hashtbl.replace linked blk ()) f.f_links
      | Single _ -> ())
    ops;
  let { Cplan.pin_start; pin_stop } = Cplan.pin_index plan in
  let unlinked = Array.map (List.filter (fun blk -> not (Hashtbl.mem linked blk))) in
  { ops;
    n_fused = Fuse.fused_groups groups;
    pins = { Cplan.pin_start = unlinked pin_start; pin_stop = unlinked pin_stop } }

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
