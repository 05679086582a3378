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

type cache = {
  cinstances : (string * (string * int) list list) list;
  cpairs : (string, ((string * int) list * (string * int) list) list) Hashtbl.t;
  cparams : (string * int) list;
}

let cache ?(coaccesses = []) (prog : Program.t) ~config =
  let params = config.Config.params in
  let cpairs = Hashtbl.create 32 in
  List.iter
    (fun (ca : Coaccess.t) ->
      let key = Coaccess.key ca in
      if not (Hashtbl.mem cpairs key) then
        Hashtbl.add cpairs key (Coaccess.pairs_at ca ~params))
    coaccesses;
  { cinstances =
      List.map
        (fun (s : Stmt.t) -> (s.Stmt.name, Program.instances prog s ~params))
        prog.Program.stmts;
    cpairs;
    cparams = params }

let cache_params c = c.cparams
let cache_instances c = c.cinstances

let cache_pairs c (ca : Coaccess.t) =
  match Hashtbl.find_opt c.cpairs (Coaccess.key ca) with
  | Some p -> p
  | None -> Coaccess.pairs_at ca ~params:c.cparams

(* --- The predicted protocol stream ------------------------------------------ *)

type pin_index = { pin_start : block list array; pin_stop : block list array }

let index_pins ~n pins =
  let pin_start = Array.make n [] and pin_stop = Array.make n [] in
  List.iter
    (fun (blk, a, b) ->
      if 0 <= a && a <= b && b < n then begin
        pin_start.(a) <- blk :: pin_start.(a);
        pin_stop.(b) <- blk :: pin_stop.(b)
      end)
    pins;
  { pin_start; pin_stop }

let sweep (st : step) =
  (match st.writes with (_, blk, Elided) :: _ -> [ blk ] | _ -> [])
  @ List.map (fun (_, blk, _) -> blk) st.reads
  @ List.map (fun (_, blk, _) -> blk) st.writes

(* The engine's unfused step protocol, simulated from [steps] and [pins]
   alone: [step i emit] narrates step [i] into [emit] and advances the
   resident set, so steps must be stepped in order, each once; [peak] is
   the resident high-water mark in bytes.  Like the engine, the step's
   write buffer is acquired before its pins open, and a block is dropped
   only while resident and unpinned. *)
let simulate ~config ~steps ~pins =
  let { pin_start; pin_stop } = index_pins ~n:(Array.length steps) pins in
  let resident = Hashtbl.create 64 and depth = Hashtbl.create 64 in
  let bytes = ref 0 and peak = ref 0 in
  let bytes_of blk = Config.block_bytes (Config.layout config blk.array) in
  let pins_on blk = Option.value ~default:0 (Hashtbl.find_opt depth blk) in
  let bring blk =
    if not (Hashtbl.mem resident blk) then begin
      Hashtbl.add resident blk ();
      bytes := !bytes + bytes_of blk;
      peak := max !peak !bytes
    end
  in
  let step i emit =
    let st = steps.(i) in
    let drop blk =
      if pins_on blk = 0 && Hashtbl.mem resident blk then begin
        Hashtbl.remove resident blk;
        bytes := !bytes - bytes_of blk;
        emit (Trace.Drop { step = i; array = blk.array; index = blk.index })
      end
    in
    emit (Trace.Step_begin { step = i; stmt = st.stmt; instance = st.instance });
    List.iter
      (fun (_, blk, src) ->
        let src = match src with From_disk -> Trace.Disk | From_memory -> Trace.Memory in
        emit (Trace.Read { step = i; array = blk.array; index = blk.index; src });
        bring blk)
      st.reads;
    let write = match st.writes with w :: _ -> Some w | [] -> None in
    Option.iter (fun (_, blk, _) -> bring blk) write;
    List.iter
      (fun blk ->
        Hashtbl.replace depth blk (pins_on blk + 1);
        emit (Trace.Pin_open { step = i; array = blk.array; index = blk.index }))
      pin_start.(i);
    Option.iter
      (fun (_, blk, dst) ->
        emit
          (Trace.Write
             { step = i; array = blk.array; index = blk.index; elided = dst = Elided }))
      write;
    List.iter
      (fun blk ->
        Hashtbl.replace depth blk (max 0 (pins_on blk - 1));
        emit (Trace.Pin_close { step = i; array = blk.array; index = blk.index });
        drop blk)
      pin_stop.(i);
    List.iter drop (sweep st);
    emit (Trace.Step_end { step = i })
  in
  (step, peak)

(* --- Construction -------------------------------------------------------- *)

let build ?cache:c (prog : Program.t) ~config ~sched ~realized =
  let params = config.Config.params in
  (* A caller-supplied cache may be shared read-only across domains costing
     plans in parallel: misses are recomputed locally, never inserted.  Only
     a cache private to this build may keep growing. *)
  let c, private_cache =
    match c with
    | Some c when c.cparams = params -> (c, false)
    | _ -> (cache prog ~config, true)
  in
  let pairs_of (ca : Coaccess.t) =
    let key = Coaccess.key ca in
    match Hashtbl.find_opt c.cpairs key with
    | Some p -> p
    | None ->
        let p = Coaccess.pairs_at ca ~params in
        if private_cache then Hashtbl.add c.cpairs key p;
        p
  in
  (* 1. Enumerate and order all statement instances. *)
  let raw_events =
    List.concat_map
      (fun (s : Stmt.t) ->
        let rows = Sched.find sched s.Stmt.name in
        List.map
          (fun inst -> (s, inst, Sched.time_of rows (lookup_in inst params)))
          (List.assoc s.Stmt.name c.cinstances))
      prog.Program.stmts
  in
  let raw_events =
    List.sort (fun (_, _, t1) (_, _, t2) -> Sched.lex_compare t1 t2) raw_events
  in
  let n = List.length raw_events in
  let events = Array.of_list raw_events in
  (* Step index of a (stmt, instance). *)
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (s, inst, _) -> Hashtbl.replace index_of (s.Stmt.name, inst_key inst) i)
    events;
  let find_index stmt inst =
    match Hashtbl.find_opt index_of (stmt, inst_key inst) with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Cplan.build: unknown instance of %s in a sharing pair" stmt)
  in
  (* 2. Realized sharing: memory-serviced reads, W->W-elided writes, pins. *)
  let mem_reads = Hashtbl.create 64 in
  (* key: (stmt, inst_key, access index) *)
  let ww_sources = Hashtbl.create 64 in
  let pins = ref [] in
  List.iter
    (fun (ca : Coaccess.t) ->
      let pairs = pairs_of ca in
      List.iter
        (fun (src, dst) ->
          let si = find_index ca.Coaccess.src_stmt src in
          let di = find_index ca.Coaccess.dst_stmt dst in
          match (ca.Coaccess.src_typ, ca.Coaccess.dst_typ) with
          | Access.Write, Access.Write ->
              Hashtbl.replace ww_sources
                (ca.Coaccess.src_stmt, inst_key src, ca.Coaccess.src_acc) ()
          | _, Access.Read ->
              (* The earlier-scheduled endpoint of the pair performs the
                 I/O; the later one finds the block resident.  A W->R pair
                 always runs write-first (legality), but an R->R pair may
                 be realized in either schedule order. *)
              let l_stmt, l_inst, l_acc =
                if si <= di then
                  (ca.Coaccess.dst_stmt, dst, ca.Coaccess.dst_acc)
                else (ca.Coaccess.src_stmt, src, ca.Coaccess.src_acc)
              in
              Hashtbl.replace mem_reads (l_stmt, inst_key l_inst, l_acc) ();
              let s = Program.find_stmt prog ca.Coaccess.src_stmt in
              let acc = List.nth s.Stmt.accesses ca.Coaccess.src_acc in
              let blk =
                { array = acc.Access.array;
                  index = Array.to_list (Access.block_of acc (lookup_in src params)) }
              in
              pins := (blk, min si di, max si di) :: !pins
          | Access.Read, Access.Write -> ())
        pairs)
    realized;
  (* 3. Per-step access resolution. *)
  let layout name = Config.layout config name in
  let check_bounds (blk : block) =
    let l = layout blk.array in
    List.iteri
      (fun d v ->
        if v < 0 || v >= l.Config.grid.(d) then
          invalid_arg
            (Printf.sprintf "Cplan.build: block %s[%s] outside its %s grid" blk.array
               (String.concat "," (List.map string_of_int blk.index))
               (String.concat "x" (Array.to_list (Array.map string_of_int l.Config.grid)))))
      blk.index
  in
  let active (a : Access.t) inst =
    match a.Access.restrict_to with
    | None -> true
    | Some r -> Poly.mem r (lookup_in inst params)
  in
  let ww_candidate : (block * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let steps =
    Array.mapi
      (fun i ((s : Stmt.t), inst, time) ->
        let accs = List.mapi (fun ai a -> (ai, a)) s.Stmt.accesses in
        let block_of (a : Access.t) =
          let blk =
            { array = a.Access.array;
              index = Array.to_list (Access.block_of a (lookup_in inst params)) }
          in
          check_bounds blk;
          blk
        in
        let reads =
          List.filter_map
            (fun (ai, (a : Access.t)) ->
              if Access.is_read a && active a inst then begin
                let blk = block_of a in
                (* Serviced from memory when it is a realized reuse target, or
                   when some realized opportunity pins the block across this
                   step anyway (the buffer is resident; re-reading it would
                   be gratuitous I/O the engine does not perform). *)
                let src =
                  if
                    Hashtbl.mem mem_reads (s.Stmt.name, inst_key inst, ai)
                    || List.exists (fun (b, a0, b0) -> b = blk && a0 < i && i <= b0) !pins
                  then From_memory
                  else From_disk
                in
                Some (a, blk, src)
              end
              else None)
            accs
        in
        (* Several reads of one block within an instance are serviced by a
           single I/O (the paper: "they can always be serviced with only one
           I/O"); merge them, preferring the memory-serviced marking. *)
        let reads =
          List.fold_left
            (fun acc (a, blk, src) ->
              let rec merge = function
                | [] -> [ (a, blk, src) ]
                | (a0, blk0, src0) :: rest when blk0 = blk ->
                    (a0, blk0, (if src = From_memory || src0 = From_memory then From_memory else From_disk))
                    :: rest
                | x :: rest -> x :: merge rest
              in
              merge acc)
            [] reads
        in
        let writes =
          List.filter_map
            (fun (ai, (a : Access.t)) ->
              if Access.is_write a && active a inst then begin
                let blk = block_of a in
                if Hashtbl.mem ww_sources (s.Stmt.name, inst_key inst, ai) then
                  Hashtbl.replace ww_candidate (blk, i) ();
                Some (a, blk, To_disk)
              end
              else None)
            accs
        in
        { stmt = s.Stmt.name; instance = inst; time; reads; writes })
      events
  in
  (* 4. Write elision. A write is elided only when it is execution-safe:
     every read of the block before the next write of the same block must be
     serviced from memory. Under that condition, a write is dropped when
     (a) it is a realized W->W source (a later write overwrites it), for any
     array kind, or (b) the array is an intermediate (footnote 8: nothing
     ever needs the block on disk). Output arrays keep their final write. *)
  let by_block = Hashtbl.create 64 in
  Array.iteri
    (fun i st ->
      List.iter
        (fun (_, blk, src) ->
          Hashtbl.replace by_block blk
            ((`R (i, src)) :: Option.value ~default:[] (Hashtbl.find_opt by_block blk)))
        st.reads;
      List.iter
        (fun (_, blk, _) ->
          Hashtbl.replace by_block blk
            ((`W i) :: Option.value ~default:[] (Hashtbl.find_opt by_block blk)))
        st.writes)
    steps;
  let elide_writes = Hashtbl.create 32 in
  Hashtbl.iter
    (fun blk accs ->
      let info = Program.find_array prog blk.array in
      let intermediate = Array_info.is_intermediate info in
      (* Walk in time order; a read at the same step as a write belongs to
         the segment of the PREVIOUS write (reads happen before the write
         within an instance). *)
      let accs =
        List.sort
          (fun a b ->
            let pos = function `R (i, _) -> (i, 0) | `W i -> (i, 1) in
            compare (pos a) (pos b))
          accs
      in
      let rec walk = function
        | `W i :: rest ->
            let rec upto = function
              | `W _ :: _ -> []
              | x :: r -> x :: upto r
              | [] -> []
            in
            let segment_reads =
              List.filter_map (function `R (j, src) -> Some (j, src) | `W _ -> None)
                (upto rest)
            in
            let has_later_write =
              List.exists (function `W _ -> true | `R _ -> false) rest
            in
            let all_mem =
              List.for_all (fun (_, src) -> src = From_memory) segment_reads
            in
            let elidable =
              all_mem
              && (intermediate
                 || (Hashtbl.mem ww_candidate (blk, i) && has_later_write))
            in
            if elidable then Hashtbl.replace elide_writes (blk, i) ();
            walk rest
        | `R _ :: rest -> walk rest
        | [] -> ()
      in
      walk accs)
    by_block;
  let steps =
    Array.mapi
      (fun i st ->
        { st with
          writes =
            List.map
              (fun (a, blk, _kind) ->
                if Hashtbl.mem elide_writes (blk, i) then (a, blk, Elided)
                else (a, blk, To_disk))
              st.writes })
      steps
  in
  (* 5. Totals and peak memory: one pass of the predicted protocol stream,
     never materialised.  The peak is its resident high-water mark: the
     running step's blocks plus every block pinned across the step. *)
  let block_bytes blk = Config.block_bytes (layout blk.array) in
  let pins = !pins in
  let read_bytes = ref 0 and write_bytes = ref 0 in
  let read_ops = ref 0 and write_ops = ref 0 in
  let step, peak = simulate ~config ~steps ~pins in
  let count = function
    | Trace.Read { array; src = Trace.Disk; _ } ->
        read_bytes := !read_bytes + Config.block_bytes (layout array);
        incr read_ops
    | Trace.Write { array; elided = false; _ } ->
        write_bytes := !write_bytes + Config.block_bytes (layout array);
        incr write_ops
    | _ -> ()
  in
  for i = 0 to n - 1 do
    step i count
  done;
  (* 6. CPU model inputs. *)
  let flops = ref 0. and moved = ref 0. in
  Array.iter
    (fun st ->
      let s = Program.find_stmt prog st.stmt in
      let wblk =
        match st.writes with (_, blk, _) :: _ -> Some blk | [] -> None
      in
      let dims name = (layout name).Config.block_elems in
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
          flops := !flops +. (2. *. m *. nn *. k)
      | (Kernel.Assign_add | Kernel.Assign_sub), Some w ->
          moved := !moved +. (3. *. float_of_int (block_bytes w))
      | Kernel.Copy, Some w -> moved := !moved +. (2. *. float_of_int (block_bytes w))
      | Kernel.Invert, Some w ->
          let wd = dims w.array in
          let nn = float_of_int wd.(0) in
          flops := !flops +. (2. *. nn *. nn *. nn)
      | Kernel.Rss_acc, Some _ ->
          (match Stmt.operand_reads s with
          | a :: _ ->
              let ad = dims a.Access.array in
              flops := !flops +. (2. *. float_of_int ad.(0) *. float_of_int ad.(1))
          | [] -> ())
      | (Kernel.Filter | Kernel.Foreach), Some w ->
          moved := !moved +. (2. *. float_of_int (block_bytes w))
      | Kernel.Join_nl, Some w ->
          (* One multiply per output element. *)
          let wd = dims w.array in
          flops := !flops +. (float_of_int wd.(0) *. float_of_int wd.(1))
      | (Kernel.Opaque _ | Kernel.Gemm_acc _ | Kernel.Invert | Kernel.Rss_acc
        | Kernel.Assign_add | Kernel.Assign_sub | Kernel.Copy | Kernel.Filter
        | Kernel.Foreach | Kernel.Join_nl), _ -> ())
    steps;
  { prog;
    config;
    sched;
    realized;
    steps;
    pins;
    read_bytes = !read_bytes;
    write_bytes = !write_bytes;
    read_ops = !read_ops;
    write_ops = !write_ops;
    peak_memory = !peak;
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

let pin_index t = index_pins ~n:(Array.length t.steps) t.pins

let events t =
  Seq.memoize (fun () ->
      let step, _ = simulate ~config:t.config ~steps:t.steps ~pins:t.pins in
      Seq.concat_map
        (fun i ->
          let evs = ref [] in
          step i (fun e -> evs := e :: !evs);
          List.to_seq (List.rev !evs))
        (Seq.init (Array.length t.steps) Fun.id)
        ())

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
