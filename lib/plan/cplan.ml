module Poly = Riot_poly.Poly
module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Sched = Riot_ir.Sched
module Kernel = Riot_ir.Kernel
module Array_info = Riot_ir.Array_info
module Coaccess = Riot_analysis.Coaccess

type block = { array : string; index : int list }
type read_src = From_disk | From_memory
type write_dst = To_disk | Elided

type step = {
  stmt : string;
  instance : (string * int) list;
  time : int array;
  reads : (Access.t * block * read_src) list;
  writes : (Access.t * block * write_dst) list;
}

type t = {
  prog : Program.t;
  config : Config.t;
  sched : Sched.program_sched;
  realized : Coaccess.t list;
  steps : step array;
  pins : (block * int * int) list;
  read_bytes : int;
  write_bytes : int;
  read_ops : int;
  write_ops : int;
  peak_memory : int;
  flops : float;
  moved_bytes : float;
}

let lookup_in inst params n =
  match List.assoc_opt n inst with Some v -> v | None -> List.assoc n params

let inst_key inst = List.sort compare inst

(* --- Schedule-independent cache ------------------------------------------- *)

type instance = {
  i_stmt : Stmt.t;
  i_vars : (string * int) list;
  i_reads : int array;
  i_read_accs : (Access.t * int list) array;
  i_writes : int array;
  i_write_accs : (Access.t * int) array;
  i_blocks : int array;
  i_base : int;
  i_error : exn option;
  i_flops : float;
  i_moved : float;
}

type cache = {
  cprog : Program.t;
  cconfig : Config.t;
  cinstances : instance array;
  cstmts : (Stmt.t * int * int) list;  (* statement, first id, instance count *)
  cinst_id : (string * (string * int) list, int) Hashtbl.t;
  cblocks : block array;
  cbytes : int array;
  cintermediate : bool array;
  cnacc : int;  (* accesses over all instances: the flat per-access arrays *)
  cpairs : (string, (int * int) array) Hashtbl.t;
}

let check_bounds layout (blk : block) =
  let l = layout blk.array in
  List.iteri
    (fun d v ->
      if v < 0 || v >= l.Config.grid.(d) then
        invalid_arg
          (Printf.sprintf "Cplan.build: block %s[%s] outside its %s grid" blk.array
             (String.concat "," (List.map string_of_int blk.index))
             (String.concat "x" (Array.to_list (Array.map string_of_int l.Config.grid)))))
    blk.index

(* The CPU model's inputs for one instance: kernel flops and element-wise
   bytes moved, from its statement's kernel and its first write's block. *)
let cpu_inputs layout (s : Stmt.t) wblk =
  let dims name = (layout name).Config.block_elems in
  let bytes blk = float_of_int (Config.block_bytes (layout blk.array)) in
  match (s.Stmt.kernel, wblk) with
  | Kernel.Gemm_acc { ta; _ }, Some w ->
      let wd = dims w.array in
      let m = float_of_int wd.(0) and nn = float_of_int wd.(1) in
      let k =
        match Stmt.operand_reads s with
        | a :: _ ->
            let ad = dims a.Access.array in
            float_of_int (if ta then ad.(0) else ad.(1))
        | [] -> 0.
      in
      (2. *. m *. nn *. k, 0.)
  | (Kernel.Assign_add | Kernel.Assign_sub), Some w -> (0., 3. *. bytes w)
  | Kernel.Copy, Some w -> (0., 2. *. bytes w)
  | Kernel.Invert, Some w ->
      let nn = float_of_int (dims w.array).(0) in
      (2. *. nn *. nn *. nn, 0.)
  | Kernel.Rss_acc, Some _ -> (
      match Stmt.operand_reads s with
      | a :: _ ->
          let ad = dims a.Access.array in
          (2. *. float_of_int ad.(0) *. float_of_int ad.(1), 0.)
      | [] -> (0., 0.))
  | (Kernel.Filter | Kernel.Foreach), Some w -> (0., 2. *. bytes w)
  | Kernel.Join_nl, Some w ->
      (* One multiply per output element. *)
      let wd = dims w.array in
      (float_of_int wd.(0) *. float_of_int wd.(1), 0.)
  | (Kernel.Opaque _ | Kernel.Gemm_acc _ | Kernel.Invert | Kernel.Rss_acc
    | Kernel.Assign_add | Kernel.Assign_sub | Kernel.Copy | Kernel.Filter
    | Kernel.Foreach | Kernel.Join_nl), _ -> (0., 0.)

(* A coaccess's concrete pairs as (src, dst) instance ids; -1 marks an
   instance outside its statement's instance set. *)
let intern_pairs inst_id (ca : Coaccess.t) pairs =
  let id stmt inst =
    Option.value ~default:(-1) (Hashtbl.find_opt inst_id (stmt, inst_key inst))
  in
  Array.of_list
    (List.map
       (fun (src, dst) -> (id ca.Coaccess.src_stmt src, id ca.Coaccess.dst_stmt dst))
       pairs)

let cache ?(coaccesses = []) (prog : Program.t) ~config =
  let params = config.Config.params in
  let layout name = Config.layout config name in
  let bids = Hashtbl.create 256 and blocks = ref [] in
  let intern blk =
    match Hashtbl.find_opt bids blk with
    | Some k -> k
    | None ->
        let k = Hashtbl.length bids in
        Hashtbl.add bids blk k;
        blocks := blk :: !blocks;
        k
  in
  let cinst_id = Hashtbl.create 256 in
  let insts = ref [] and stmts = ref [] and next = ref 0 and nacc = ref 0 in
  List.iter
    (fun (s : Stmt.t) ->
      let vars_of = Program.instances prog s ~params in
      stmts := (s, !next, List.length vars_of) :: !stmts;
      let accs = Array.of_list s.Stmt.accesses in
      List.iter
        (fun vars ->
          let env = lookup_in vars params in
          let blks =
            Array.map
              (fun (a : Access.t) ->
                { array = a.Access.array; index = Array.to_list (Access.block_of a env) })
              accs
          in
          let active =
            Array.map
              (fun (a : Access.t) ->
                match a.Access.restrict_to with None -> true | Some r -> Poly.mem r env)
              accs
          in
          let pick is =
            List.filter
              (fun ai -> active.(ai) && is accs.(ai))
              (List.init (Array.length accs) Fun.id)
          in
          let reads = pick Access.is_read and writes = pick Access.is_write in
          (* Several reads of one block within an instance are serviced by
             a single I/O (the paper: "they can always be serviced with
             only one I/O"): one merged read per block, in first-appearance
             order, carrying its first access and every merged index. *)
          let merged =
            List.fold_left
              (fun acc ai ->
                let rec merge = function
                  | [] -> [ (blks.(ai), accs.(ai), [ ai ]) ]
                  | (b, a0, ais) :: rest when b = blks.(ai) -> (b, a0, ais @ [ ai ]) :: rest
                  | x :: rest -> x :: merge rest
                in
                merge acc)
              [] reads
          in
          let i_error =
            match List.iter (fun ai -> check_bounds layout blks.(ai)) (reads @ writes) with
            | () -> None
            | exception e -> Some e
          in
          let i_flops, i_moved =
            match i_error with
            | Some _ -> (0., 0.)
            | None ->
                cpu_inputs layout s
                  (match writes with ai :: _ -> Some blks.(ai) | [] -> None)
          in
          Hashtbl.replace cinst_id (s.Stmt.name, inst_key vars) !next;
          insts :=
            { i_stmt = s;
              i_vars = vars;
              i_reads = Array.of_list (List.map (fun (b, _, _) -> intern b) merged);
              i_read_accs = Array.of_list (List.map (fun (_, a, ais) -> (a, ais)) merged);
              i_writes = Array.of_list (List.map (fun ai -> intern blks.(ai)) writes);
              i_write_accs = Array.of_list (List.map (fun ai -> (accs.(ai), ai)) writes);
              i_blocks = Array.map intern blks;
              i_base = !nacc;
              i_error;
              i_flops;
              i_moved }
            :: !insts;
          nacc := !nacc + Array.length accs;
          incr next)
        vars_of)
    prog.Program.stmts;
  let cblocks = Array.of_list (List.rev !blocks) in
  let cpairs = Hashtbl.create 32 in
  List.iter
    (fun (ca : Coaccess.t) ->
      let key = Coaccess.key ca in
      if not (Hashtbl.mem cpairs key) then
        Hashtbl.add cpairs key (intern_pairs cinst_id ca (Coaccess.pairs_at ca ~params)))
    coaccesses;
  { cprog = prog;
    cconfig = config;
    cinstances = Array.of_list (List.rev !insts);
    cstmts = List.rev !stmts;
    cinst_id;
    cblocks;
    cbytes =
      Array.map
        (fun b -> try Config.block_bytes (layout b.array) with Not_found -> 0)
        cblocks;
    cintermediate =
      Array.map
        (fun b ->
          try Array_info.is_intermediate (Program.find_array prog b.array)
          with Not_found -> false)
        cblocks;
    cnacc = !nacc;
    cpairs }

let cache_fits c prog ~config = c.cprog == prog && (c.cconfig == config || c.cconfig = config)
let cache_instances c = c.cinstances
let cache_block c k = c.cblocks.(k)
let cache_block_count c = Array.length c.cblocks

let cache_pairs c (ca : Coaccess.t) =
  match Hashtbl.find_opt c.cpairs (Coaccess.key ca) with
  | Some p -> p
  | None -> intern_pairs c.cinst_id ca (Coaccess.pairs_at ca ~params:c.cconfig.Config.params)

(* Instance ids in step order (ties keep program statement order, then
   enumeration order), and every instance's time vector by id. *)
let order_times c sched =
  let params = c.cconfig.Config.params in
  let times = Array.make (Array.length c.cinstances) [||] in
  List.iter
    (fun ((s : Stmt.t), first, count) ->
      let rows = Sched.find sched s.Stmt.name in
      for g = first to first + count - 1 do
        times.(g) <- Sched.time_of rows (lookup_in c.cinstances.(g).i_vars params)
      done)
    c.cstmts;
  let ord = Array.init (Array.length times) Fun.id in
  Array.stable_sort (fun a b -> Sched.lex_compare times.(a) times.(b)) ord;
  (ord, times)

let cache_order c sched = fst (order_times c sched)

(* --- The protocol program ---------------------------------------------------- *)

type op =
  | Step_begin of int
  | Read of { id : int; src : read_src; slot : int }
  | Alloc of { id : int; fill : bool }
  | Pin of int
  | Kernel of { lo : int; hi : int }
  | Write of { id : int; dst : write_dst }
  | Unpin of int
  | Drop of int
  | Mark of { lo : int; hi : int }
  | Step_end of int

type program = {
  ops : op array;
  blocks : block array;
  keys : (string * int list) array;
  link : bool array;
  starts : int array;
  heads : int array;
  slots : int;
}

(* Interval items [(x, start, stop)] by the steps they open and close at;
   malformed intervals are left out. *)
let by_step ~n items =
  let start = Array.make n [] and stop = Array.make n [] in
  List.iter
    (fun (x, a, b) ->
      if 0 <= a && a <= b && b < n then begin
        start.(a) <- x :: start.(a);
        stop.(b) <- x :: stop.(b)
      end)
    items;
  (start, stop)

(* The step protocol over dense block ids, op by op into [emit]: the one
   definition {!lower} materialises for the engine, {!events} narrates and
   {!build} costs.  [rids.(i)] and [wids.(i)] are step [i]'s read and write
   ids and a pin is [(id, start, stop)].  Unfused, every step is a unit of
   its own.  [fused] is [(hi, link)]: [hi.(i)] is the last step of the unit
   holding step [i] (a fused chain, or [i] alone), and a [link] id never
   reaches the pool, so it has no capture slot, pin or drop.  A unit
   allocates its write buffer, runs its kernel and marks the journal at its
   last step. *)
let rec mem_id (k : int) ids j = j < Array.length ids && (ids.(j) = k || mem_id k ids (j + 1))

let protocol ?fused ?(fill = fun _ -> false) ~steps ~rids ~wids ~pins emit =
  let emit op = ignore (emit op) in
  let n = Array.length steps in
  let pin_start, pin_stop = by_step ~n pins in
  let hi i = match fused with Some (hi, _) -> hi.(i) | None -> i in
  let link k = match fused with Some (_, link) -> link.(k) | None -> false in
  let lo = ref 0 and slot = ref 0 in
  let rec reads ri j = function
    | [] -> ()
    | (_, _, src) :: rest ->
        let k = ri.(j) in
        emit (Read { id = k; src; slot = (if link k then -1 else !slot + j) });
        reads ri (j + 1) rest
  in
  let pin k = if not (link k) then emit (Pin k) in
  let unpin k =
    if not (link k) then begin
      emit (Unpin k);
      emit (Drop k)
    end
  in
  let drop k = if not (link k) then emit (Drop k) in
  for i = 0 to n - 1 do
    let st = steps.(i) and ri = rids.(i) and wi = wids.(i) in
    let last = hi i = i in
    if i = 0 || hi (i - 1) < i then begin
      lo := i;
      slot := 0
    end;
    emit (Step_begin i);
    reads ri 0 st.reads;
    slot := !slot + Array.length ri;
    (* A chain's accumulator is zeroed by its kernel, after the interior
       stages have read their operands. *)
    if last && Array.length wi > 0 then emit (Alloc { id = wi.(0); fill = !lo = i && fill i });
    List.iter pin pin_start.(i);
    if last then emit (Kernel { lo = !lo; hi = i });
    let elided =
      match st.writes with
      | (_, _, dst) :: _ ->
          emit (Write { id = wi.(0); dst });
          dst = Elided
      | [] -> false
    in
    List.iter unpin pin_stop.(i);
    (* The end-of-step dead-block sweep: the elided write, the reads, the
       writes, each id once (a second drop of an id finds it as the first
       left it). *)
    if elided then drop wi.(0);
    Array.iter drop ri;
    for s = 0 to Array.length wi - 1 do
      let k = wi.(s) in
      if not ((s = 0 && elided) || mem_id k ri 0) then drop k
    done;
    if last then emit (Mark { lo = !lo; hi = i });
    emit (Step_end i)
  done

type tally = {
  mutable peak : int;
  mutable rd_bytes : int;
  mutable rd_ops : int;
  mutable wr_bytes : int;
  mutable wr_ops : int;
}

(* The engine's pool under an unfused program, simulated op by op: [sim op]
   advances the resident set and pin depths, and is false only for a [Drop]
   that finds its block absent or pinned (the engine leaves it, and narrates
   nothing).  The tally holds the resident high-water mark in bytes ([bytes]
   sizes every id) and the disk totals so far. *)
let simulate ~bytes =
  let nb = Array.length bytes in
  let resident = Bytes.make nb '\000' and depth = Array.make nb 0 in
  let cur = ref 0 in
  let tally = { peak = 0; rd_bytes = 0; rd_ops = 0; wr_bytes = 0; wr_ops = 0 } in
  let bring k =
    if Bytes.get resident k = '\000' then begin
      Bytes.set resident k '\001';
      cur := !cur + bytes.(k);
      if !cur > tally.peak then tally.peak <- !cur
    end
  in
  let sim = function
    | Read { id; src; _ } ->
        if src = From_disk then begin
          tally.rd_bytes <- tally.rd_bytes + bytes.(id);
          tally.rd_ops <- tally.rd_ops + 1
        end;
        bring id;
        true
    | Alloc { id; _ } ->
        bring id;
        true
    | Pin k ->
        depth.(k) <- depth.(k) + 1;
        true
    | Write { id; dst } ->
        if dst = To_disk then begin
          tally.wr_bytes <- tally.wr_bytes + bytes.(id);
          tally.wr_ops <- tally.wr_ops + 1
        end;
        true
    | Unpin k ->
        if depth.(k) > 0 then depth.(k) <- depth.(k) - 1;
        true
    | Drop k ->
        depth.(k) = 0
        && Bytes.get resident k = '\001'
        && begin
             Bytes.set resident k '\000';
             cur := !cur - bytes.(k);
             true
           end
    | Step_begin _ | Kernel _ | Mark _ | Step_end _ -> true
  in
  (sim, tally)

(* --- Construction -------------------------------------------------------- *)

(* Every pass below is one walk over the steps, the accesses of the
   realized pairs or the pins, reading and writing arrays indexed by step,
   instance id or block id. *)
let build ?cache:c (prog : Program.t) ~config ~sched ~realized =
  (* The cache is only read, never written (a missed extent pair is
     recomputed locally), so one cache may be shared by builds running
     concurrently on several domains. *)
  let c = match c with Some c when cache_fits c prog ~config -> c | _ -> cache prog ~config in
  let insts = c.cinstances and blocks = c.cblocks in
  let nb = Array.length blocks in
  (* 1. Order all statement instances: [ord.(i)] is step [i]'s instance. *)
  let ord, times = order_times c sched in
  let n = Array.length ord in
  let step_of = Array.make n 0 in
  Array.iteri (fun i g -> step_of.(g) <- i) ord;
  let step_of_id stmt g =
    if g < 0 then
      invalid_arg
        (Printf.sprintf "Cplan.build: unknown instance of %s in a sharing pair" stmt);
    step_of.(g)
  in
  (* 2. Realized sharing: memory-serviced reads and W->W sources, flagged
     per access of each instance, and pins. *)
  let mem_read = Bytes.make c.cnacc '\000' and ww_source = Bytes.make c.cnacc '\000' in
  let pins = ref [] in
  List.iter
    (fun (ca : Coaccess.t) ->
      Array.iter
        (fun (sg, dg) ->
          let si = step_of_id ca.Coaccess.src_stmt sg in
          let di = step_of_id ca.Coaccess.dst_stmt dg in
          match (ca.Coaccess.src_typ, ca.Coaccess.dst_typ) with
          | Access.Write, Access.Write ->
              Bytes.set ww_source (insts.(sg).i_base + ca.Coaccess.src_acc) '\001'
          | _, Access.Read ->
              (* The earlier-scheduled endpoint of the pair performs the
                 I/O; the later one finds the block resident.  A W->R pair
                 always runs write-first (legality), but an R->R pair may
                 be realized in either schedule order. *)
              let lg, l_acc =
                if si <= di then (dg, ca.Coaccess.dst_acc) else (sg, ca.Coaccess.src_acc)
              in
              Bytes.set mem_read (insts.(lg).i_base + l_acc) '\001';
              let k = insts.(sg).i_blocks.(ca.Coaccess.src_acc) in
              pins := (k, min si di, max si di) :: !pins
          | Access.Read, Access.Write -> ())
        (cache_pairs c ca))
    realized;
  let pins = !pins in
  (* 3. Read sources.  A read is serviced from memory when it is a realized
     reuse target, or when some realized opportunity pins the block across
     this step anyway (the buffer is resident; re-reading it would be
     gratuitous I/O the engine does not perform).  Pin (blk, a, b) covers
     steps a < i <= b: a sweep counts the covering pins of every block. *)
  let opens = Array.make (n + 1) [] and closes = Array.make (n + 1) [] in
  List.iter
    (fun (k, a, b) ->
      if a < b then begin
        opens.(a + 1) <- k :: opens.(a + 1);
        closes.(b + 1) <- k :: closes.(b + 1)
      end)
    pins;
  let covering = Array.make nb 0 in
  let from_mem =
    Array.mapi
      (fun i g ->
        List.iter (fun k -> covering.(k) <- covering.(k) + 1) opens.(i);
        List.iter (fun k -> covering.(k) <- covering.(k) - 1) closes.(i);
        let it = insts.(g) in
        Option.iter raise it.i_error;
        Array.mapi
          (fun j k ->
            covering.(k) > 0
            || List.exists
                 (fun ai -> Bytes.get mem_read (it.i_base + ai) = '\001')
                 (snd it.i_read_accs.(j)))
          it.i_reads)
      ord
  in
  (* 4. Write elision. A write is elided only when it is execution-safe:
     every read of the block before the next write of the same block must be
     serviced from memory. Under that condition, a write is dropped when
     (a) it is a realized W->W source (a later write overwrites it), for any
     array kind, or (b) the array is an intermediate (footnote 8: nothing
     ever needs the block on disk). Output arrays keep their final write.
     One forward sweep keeps each block's open write and whether every read
     of its segment so far came from memory; a read at the same step as a
     write belongs to the segment of the PREVIOUS write (reads happen
     before the write within an instance).  Flags are per (block, step): a
     step writing one block twice elides both writes or neither. *)
  (* Whether [f it s] holds for some write slot [s] of block [k] at step [i]. *)
  let any_write i k f =
    let it = insts.(ord.(i)) in
    let hit = ref false in
    Array.iteri (fun s k' -> if k' = k && f it s then hit := true) it.i_writes;
    !hit
  in
  let ww_candidate i k =
    any_write i k (fun it s ->
        Bytes.get ww_source (it.i_base + snd it.i_write_accs.(s)) = '\001')
  in
  let elidable = Array.map (fun g -> Array.make (Array.length insts.(g).i_writes) false) ord in
  let open_step = Array.make nb (-1) and open_slot = Array.make nb 0 in
  let all_mem = Bytes.make nb '\001' in
  let close k ~later =
    let i = open_step.(k) in
    if i >= 0 then begin
      let s = open_slot.(k) in
      if
        Bytes.get all_mem k = '\001'
        && (c.cintermediate.(k) || (later && ww_candidate i k))
      then elidable.(i).(s) <- true
    end
  in
  for i = 0 to n - 1 do
    let it = insts.(ord.(i)) in
    Array.iteri
      (fun j k -> if not from_mem.(i).(j) then Bytes.set all_mem k '\000')
      it.i_reads;
    Array.iteri
      (fun s k ->
        close k ~later:true;
        open_step.(k) <- i;
        open_slot.(k) <- s;
        Bytes.set all_mem k '\001')
      it.i_writes
  done;
  for k = 0 to nb - 1 do
    close k ~later:false
  done;
  let steps =
    Array.mapi
      (fun i g ->
        let it = insts.(g) in
        { stmt = it.i_stmt.Stmt.name;
          instance = it.i_vars;
          time = times.(g);
          reads =
            Array.to_list
              (Array.mapi
                 (fun j k ->
                   ( fst it.i_read_accs.(j),
                     blocks.(k),
                     if from_mem.(i).(j) then From_memory else From_disk ))
                 it.i_reads);
          writes =
            Array.to_list
              (Array.mapi
                 (fun s k ->
                   ( fst it.i_write_accs.(s),
                     blocks.(k),
                     if any_write i k (fun _ s' -> elidable.(i).(s')) then Elided else To_disk ))
                 it.i_writes) })
      ord
  in
  (* 5. Totals and peak memory: the unfused protocol program, simulated op
     by op and never materialised.  The peak is its resident high-water
     mark: the running step's blocks plus every block pinned across it. *)
  let sim, tally = simulate ~bytes:c.cbytes in
  protocol ~steps
    ~rids:(Array.map (fun g -> insts.(g).i_reads) ord)
    ~wids:(Array.map (fun g -> insts.(g).i_writes) ord)
    ~pins sim;
  (* 6. CPU model inputs, summed in step order. *)
  let flops = ref 0. and moved = ref 0. in
  Array.iter
    (fun g ->
      flops := !flops +. insts.(g).i_flops;
      moved := !moved +. insts.(g).i_moved)
    ord;
  { prog;
    config;
    sched;
    realized;
    steps;
    pins = List.map (fun (k, a, b) -> (blocks.(k), a, b)) pins;
    read_bytes = tally.rd_bytes;
    write_bytes = tally.wr_bytes;
    read_ops = tally.rd_ops;
    write_ops = tally.wr_ops;
    peak_memory = tally.peak;
    flops = !flops;
    moved_bytes = !moved }

let block_bytes t blk = Config.block_bytes (Config.layout t.config blk.array)

let predicted_io_seconds m t =
  Machine.io_seconds m ~read_bytes:t.read_bytes ~write_bytes:t.write_bytes

let actual_io_seconds m t =
  Machine.io_seconds_actual m ~read_bytes:t.read_bytes ~write_bytes:t.write_bytes
    ~requests:(t.read_ops + t.write_ops)

let cpu_seconds ?(vectorized = true) (m : Machine.t) t =
  let dispatch =
    if vectorized then m.Machine.dispatch_vector else m.Machine.dispatch_interp
  in
  (t.flops /. m.Machine.gemm_flops)
  +. (t.moved_bytes /. m.Machine.elementwise_bw)
  +. (float_of_int (Array.length t.steps) *. dispatch)

let total_predicted_seconds m t = predicted_io_seconds m t +. cpu_seconds m t

let zero_fill t i =
  let st = t.steps.(i) in
  match st.writes with
  | (wa, wblk, _) :: _ ->
      Kernel.is_accumulating (Program.find_stmt t.prog st.stmt).Stmt.kernel
      && not (List.exists (fun (a, b, _) -> b = wblk && Access.same_map wa a) st.reads)
  | [] -> false

let operand_blocks t i =
  let st = t.steps.(i) in
  let env = lookup_in st.instance t.config.Config.params in
  List.map
    (fun (a : Access.t) -> { array = a.Access.array; index = Array.to_list (Access.block_of a env) })
    (Stmt.operand_reads (Program.find_stmt t.prog st.stmt))

(* A finished plan's blocks interned in one pass over the steps, then the
   pins: the blocks by id, each step's read and write ids, the pins by id. *)
let intern t =
  let ids = Hashtbl.create 256 and blocks = ref [] in
  let id blk =
    match Hashtbl.find_opt ids blk with
    | Some k -> k
    | None ->
        let k = Hashtbl.length ids in
        Hashtbl.add ids blk k;
        blocks := blk :: !blocks;
        k
  in
  let ids_of l = Array.of_list (List.map (fun (_, blk, _) -> id blk) l) in
  let rids = Array.map (fun st -> ids_of st.reads) t.steps in
  let wids = Array.map (fun st -> ids_of st.writes) t.steps in
  let pins = List.map (fun (blk, a, b) -> (id blk, a, b)) t.pins in
  (Array.of_list (List.rev !blocks), rids, wids, pins)

let lower ?(fused = []) t =
  let blocks, rids, wids, pins = intern t in
  let n = Array.length t.steps and nb = Array.length blocks in
  let hi = Array.init n Fun.id and link = Array.make nb false in
  List.iter
    (fun (lo, h) ->
      for i = lo to h do
        hi.(i) <- h;
        if i < h then link.(wids.(i).(0)) <- true
      done)
    fused;
  let ops = ref [] in
  protocol ~fused:(hi, link) ~fill:(zero_fill t) ~steps:t.steps ~rids ~wids ~pins (fun op ->
      ops := op :: !ops);
  let ops = Array.of_list (List.rev !ops) in
  let starts = Array.make (n + 1) (Array.length ops) and heads = Array.make n (-1) in
  let slots = ref 0 in
  Array.iteri
    (fun pc -> function
      | Step_begin i -> starts.(i) <- pc
      | Kernel { lo; hi } -> heads.(lo) <- hi
      | Read { slot; _ } -> slots := max !slots (slot + 1)
      | _ -> ())
    ops;
  { ops;
    blocks;
    keys = Array.map (fun b -> (b.array, b.index)) blocks;
    link;
    starts;
    heads;
    slots = !slots }

let narrate t blocks ~step = function
  | Step_begin i ->
      Some (Trace.Step_begin { step = i; stmt = t.steps.(i).stmt; instance = t.steps.(i).instance })
  | Read { id; src; _ } ->
      let src = match src with From_disk -> Trace.Disk | From_memory -> Trace.Memory in
      Some (Trace.Read { step; array = blocks.(id).array; index = blocks.(id).index; src })
  | Pin k -> Some (Trace.Pin_open { step; array = blocks.(k).array; index = blocks.(k).index })
  | Write { id; dst } ->
      Some
        (Trace.Write
           { step; array = blocks.(id).array; index = blocks.(id).index; elided = dst = Elided })
  | Unpin k -> Some (Trace.Pin_close { step; array = blocks.(k).array; index = blocks.(k).index })
  | Drop k -> Some (Trace.Drop { step; array = blocks.(k).array; index = blocks.(k).index })
  | Step_end i -> Some (Trace.Step_end { step = i })
  | Alloc _ | Kernel _ | Mark _ -> None

(* The unfused generator run straight into the simulated pool, as in
   {!build}: the program is never materialised. *)
let events t =
  Seq.memoize (fun () ->
      let blocks, rids, wids, pins = intern t in
      let sim, _ = simulate ~bytes:(Array.make (Array.length blocks) 0) in
      let evs = ref [] and step = ref 0 in
      protocol ~steps:t.steps ~rids ~wids ~pins (fun op ->
          (match op with Step_begin i -> step := i | _ -> ());
          if sim op then
            match narrate t blocks ~step:!step op with Some e -> evs := e :: !evs | None -> ());
      List.to_seq (List.rev !evs) ())

type divergence = {
  d_step : int;
  d_predicted : Trace.event option;
  d_measured : Trace.event option;
}

let diff_trace ?(links = []) t measured =
  let linked = Hashtbl.create 16 in
  List.iter (fun blk -> Hashtbl.replace linked blk ()) links;
  let link_event = function
    | Trace.Pin_open { array; index; _ }
    | Trace.Pin_close { array; index; _ }
    | Trace.Drop { array; index; _ } ->
        Hashtbl.mem linked { array; index }
    | _ -> false
  in
  let keep = Seq.filter (fun e -> not (link_event e)) in
  let head = function Seq.Cons (e, _) -> Some e | Seq.Nil -> None in
  let rec go p m =
    match (p (), m ()) with
    | Seq.Nil, Seq.Nil -> None
    | Seq.Cons (e, p'), Seq.Cons (e', m') when e = e' -> go p' m'
    | p, m ->
        let d_predicted = head p and d_measured = head m in
        let first = match d_predicted with Some e -> e | None -> Option.get d_measured in
        Some { d_step = Trace.step_of first; d_predicted; d_measured }
  in
  go (keep (events t)) (keep measured)

let pp_divergence ppf d =
  let pp_opt ppf = function
    | Some e -> Trace.pp_event ppf e
    | None -> Format.pp_print_string ppf "end of trace"
  in
  Format.fprintf ppf "trace diverges at step %d: predicted %a, measured %a" d.d_step
    pp_opt d.d_predicted pp_opt d.d_measured

let summary t =
  Printf.sprintf
    "steps=%d reads=%d(%.1fMB) writes=%d(%.1fMB) peak_mem=%.1fMB flops=%.3g"
    (Array.length t.steps) t.read_ops
    (float_of_int t.read_bytes /. 1048576.)
    t.write_ops
    (float_of_int t.write_bytes /. 1048576.)
    (float_of_int t.peak_memory /. 1048576.)
    t.flops
