module Cplan = Riot_plan.Cplan
module Cost_check = Riot_plan.Cost_check
module Prefetch = Riot_plan.Prefetch
module Trace = Riot_plan.Trace
module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Buffer_pool = Riot_storage.Buffer_pool
module Io_stats = Riot_storage.Io_stats
module Dense = Riot_kernels.Dense

type error =
  | Missing_block of {
      step : int;
      stmt : string;
      array : string;
      index : int list;
      phase : [ `Read | `Operand ];
    }
  | Kernel_arity of {
      step : int;
      stmt : string;
      kernel : string;
      operands : int;
    }

exception Error of error

let error_to_string = function
  | Missing_block { step; stmt; array; index; phase } ->
      Printf.sprintf
        "engine: step %d (%s) expected %s[%s] in memory for its %s but it is \
         absent"
        step stmt array
        (String.concat "," (List.map string_of_int index))
        (match phase with
        | `Read -> "planned read"
        | `Operand -> "kernel operand")
  | Kernel_arity { step; stmt; kernel; operands } ->
      Printf.sprintf "engine: step %d (%s): kernel %s got %d operands" step
        stmt kernel operands

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_to_string e)
    | _ -> None)

type mode = Interpret | Vector

type result = {
  wall_seconds : float;
  virtual_io_seconds : float;
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  pool_peak_bytes : int;
  per_array : Cost_check.actual list;
}

let snapshot backend =
  let s = backend.Backend.stats in
  ( (s.Io_stats.virtual_time, s.Io_stats.reads, s.Io_stats.writes, s.Io_stats.bytes_read,
     s.Io_stats.bytes_written),
    Io_stats.stream_counts s )

let stores_for backend ~format ~config =
  List.map
    (fun (name, layout) ->
      (name, Block_store.create backend ~format ~name ~layout))
    config.Config.layouts


(* Attribute this run's per-stream I/O deltas back to array names through the
   stores' stream names.  Streams no store claims (none today) keep their raw
   name so surprise traffic still shows up in cost checks. *)
let per_array_delta ~before backend stores =
  let after = Io_stats.stream_counts backend.Backend.stats in
  let array_of stream =
    match
      List.find_opt (fun (_, st) -> Block_store.stream_name st = stream) stores
    with
    | Some (name, _) -> name
    | None -> stream
  in
  Io_stats.counts_delta ~before ~after
  |> List.filter_map (fun (stream, (c : Io_stats.counts)) ->
         if c.Io_stats.c_reads = 0 && c.Io_stats.c_writes = 0
            && c.Io_stats.c_bytes_read = 0 && c.Io_stats.c_bytes_written = 0
         then None
         else
           Some
             { Cost_check.a_array = array_of stream;
               a_reads = c.Io_stats.c_reads;
               a_read_bytes = c.Io_stats.c_bytes_read;
               a_writes = c.Io_stats.c_writes;
               a_write_bytes = c.Io_stats.c_bytes_written })
  |> List.sort (fun (a : Cost_check.actual) b ->
         compare a.Cost_check.a_array b.Cost_check.a_array)

(* A run's result: the backend's counters since [before], and the pool's
   peak. *)
let measure ~t0 ~before:((vt0, r0, w0, br0, bw0), streams0) backend stores pool =
  let s = backend.Backend.stats in
  { wall_seconds = Unix.gettimeofday () -. t0;
    virtual_io_seconds = s.Io_stats.virtual_time -. vt0;
    reads = s.Io_stats.reads - r0;
    writes = s.Io_stats.writes - w0;
    bytes_read = s.Io_stats.bytes_read - br0;
    bytes_written = s.Io_stats.bytes_written - bw0;
    pool_peak_bytes = Buffer_pool.peak_bytes pool;
    per_array = per_array_delta ~before:streams0 backend stores }

let run_opportunistic (plan : Cplan.t) ~backend ~format ~mem_cap =
  let t0 = Unix.gettimeofday () in
  let before = snapshot backend in
  let stores = stores_for backend ~format ~config:plan.Cplan.config in
  let store name = List.assoc name stores in
  let pool =
    Buffer_pool.create ~phantom:true ~stats:backend.Backend.stats ~cap_bytes:mem_cap ()
  in
  Array.iter
    (fun (st : Cplan.step) ->
      List.iter
        (fun ((_ : Access.t), blk, _) ->
          ignore (Buffer_pool.get pool (store blk.Cplan.array) blk.Cplan.index))
        st.Cplan.reads;
      List.iter
        (fun ((_ : Access.t), blk, _) ->
          ignore (Buffer_pool.get_for_write pool (store blk.Cplan.array) blk.Cplan.index);
          Buffer_pool.write_through pool (store blk.Cplan.array) blk.Cplan.index)
        st.Cplan.writes)
    plan.Cplan.steps;
  measure ~t0 ~before backend stores pool

(* Static whole-plan verification with the journal family enabled: the
   watermark data handed to [Plan_verify] is exactly what a journalled run
   of this engine will act on. *)
let verify ?cap_bytes (plan : Cplan.t) =
  let rp = Journal.analyze plan in
  let watermarks =
    { Riot_plan.Plan_verify.wm_safe = rp.Journal.safe;
      wm_restart = rp.Journal.restart;
      wm_undo = rp.Journal.undo }
  in
  Riot_plan.Plan_verify.check ?cap_bytes ~watermarks plan

let verify_exn ?cap_bytes plan =
  let r = verify ?cap_bytes plan in
  if not (Riot_plan.Plan_verify.ok r) then
    raise (Riot_plan.Plan_verify.Rejected r)

let prefetch = 2 (* read-ahead depth, in plan steps *)

let run ?(compute = true) ?stores ?trace ?(journal = false) ?(resume = false)
    ?(mode = Vector) (plan : Cplan.t) ~backend ~format ~mem_cap =
  (* A LAB-tree insert is three writes: a crash between them breaks its index. *)
  if (journal || resume) && format = Block_store.Lab_format then
    invalid_arg "Engine.run: journal and resume need the DAF format";
  (* A caller-supplied store list must cover the plan before anything runs:
     a gap would otherwise surface as [Not_found] at that array's first
     access, after earlier steps had already written. *)
  Option.iter
    (fun stores ->
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name stores) then
            invalid_arg ("Engine.run: no store for array " ^ name))
        plan.Cplan.config.Config.layouts)
    stores;
  let t0 = Unix.gettimeofday () in
  let before = snapshot backend in
  let stores =
    match stores with
    | Some s -> s
    | None -> stores_for backend ~format ~config:plan.Cplan.config
  in
  let store name = List.assoc name stores in
  (* With no sink no event is constructed.  Eviction events surface through
     the pool's hook; every other event is an op's narration, told at its
     engine action.  [cur_step] names the step whose demand caused an
     eviction. *)
  let tracing = Option.is_some trace in
  let emit ev = match trace with Some sk -> sk.Trace.emit ev | None -> () in
  let cur_step = ref (-1) in
  let on_evict =
    if tracing then
      Some
        (fun (array, index) ~dirty ->
          emit (Trace.Evict { step = !cur_step; array; index; flushed = dirty }))
    else None
  in
  let pool =
    Buffer_pool.create ~phantom:(not compute) ~stats:backend.Backend.stats ?on_evict
      ~cap_bytes:mem_cap ()
  in
  (* Crash-restart bookkeeping.  With [resume], recover the journalled
     watermark and restart from the analysis' restart point (elided values
     are regenerated by re-executing their producing chain); with [journal],
     append a record after each step whose boundary the analysis proved
     safe, syncing the data streams first.  Neither costs anything when both
     are off. *)
  let rplan =
    if journal || resume then Some (Journal.analyze plan) else None
  in
  let fp = if journal || resume then Journal.fingerprint plan else 0L in
  let recovered = if resume then Journal.recover backend ~fingerprint:fp else None in
  let start_step =
    match (recovered, rplan) with
    | Some { Journal.watermark; _ }, Some rp when watermark >= 0 ->
        rp.Journal.restart.(watermark)
    | _ -> 0
  in
  (* Every run executes a compiled plan; only a computing [Vector] run fuses
     (phantom runs have no buffers for a chain to work on).  A fused chain
     never materializes its link blocks, so a restart point strictly inside
     one would find them missing.  The journal analysis never produces such
     a point, but should one arise, run unfused: every step then has the
     plan's own pins and drops. *)
  let n = Array.length plan.Cplan.steps in
  let compiled =
    let cp = Vexec.compiled_for ~fuse:(compute && mode = Vector) plan in
    if start_step < n && cp.Vexec.program.Cplan.heads.(start_step) < 0 then
      Vexec.compiled_for ~fuse:false plan
    else cp
  in
  let p = compiled.Vexec.program in
  let blocks = p.Cplan.blocks and keys = p.Cplan.keys and link = p.Cplan.link in
  let store_of = Array.map (fun (blk : Cplan.block) -> store blk.Cplan.array) blocks in
  (* Read-ahead hints.  Phantom runs are excluded: they account reads via
     [touch_read] without materialising bytes, so a real prefetched pread
     would double-count the traffic. *)
  let hints = if compute then Some (Prefetch.of_program p) else None in
  let writer =
    if journal then
      Some
        (match recovered with
        | Some r -> Journal.continuation backend r
        | None -> Journal.start backend ~fingerprint:fp)
    else None
  in
  (* Before re-executing, put back the before-images of blocks the crashed
     incarnation(s) clobbered after a replayed read would observe them: per
     block, the oldest journalled image at or after the restart point (see
     Journal.restore_plan).  Idempotent when nothing was clobbered. *)
  (match recovered with
  | Some r ->
      List.iter
        (fun (im : Journal.image) ->
          Block_store.write_floats (store im.Journal.im_array) im.Journal.im_index
            im.Journal.im_data)
        (Journal.restore_plan r ~start_step)
  | None -> ());
  (* Resuming mid-plan: pins opened by completed steps are still live, so
     reload those blocks from disk and re-pin them.  Every value a replayed
     memory-serviced read will take from such a buffer has a durable
     producer (or is regenerated by the replay itself) - that is exactly
     what the analysis' safe-boundary predicate guarantees. *)
  if start_step > 0 then
    List.iter
      (fun ((blk : Cplan.block), a, b) ->
        if a < start_step && b >= start_step then begin
          ignore (Buffer_pool.get pool (store blk.Cplan.array) blk.Cplan.index);
          Buffer_pool.pin pool (blk.Cplan.array, blk.Cplan.index)
        end)
      plan.Cplan.pins;
  let missing phase (blk : Cplan.block) : exn =
    Error
      (Missing_block
         { step = !cur_step;
           stmt = plan.Cplan.steps.(!cur_step).Cplan.stmt;
           array = blk.Cplan.array;
           index = blk.Cplan.index;
           phase })
  in
  (* The protocol program, op by op from the restart point.  A link id (a
     fused chain's intermediate) exists only as the chain's scratch tile:
     its read and write are narrated, nothing more. *)
  let captured = Array.make p.Cplan.slots [||] and wbuf = ref [||] in
  let tell op = if tracing then Option.iter emit (Cplan.narrate plan blocks ~step:!cur_step op) in
  let run_op op =
    match op with
    | Cplan.Step_begin i ->
        cur_step := i;
        wbuf := [||];
        (* Hints go out as a unit starts, so the next unit's blocks are in
           flight while this one's kernels run.  A hint whose earliest safe
           step falls strictly inside a fused chain is skipped by the
           [h_earliest <= now] gate and falls back to a demand read. *)
        let hi = p.Cplan.heads.(i) in
        (match hints with
        | Some h when hi >= 0 ->
            Prefetch.issue h ~now:i ~horizon:(hi + prefetch) (fun (blk : Cplan.block) ->
                Block_store.prefetch (store blk.Cplan.array) blk.Cplan.index)
        | _ -> ());
        tell op
    | Cplan.Read { id; src; slot } ->
        let i = !cur_step in
        if (not link.(id)) && src = Cplan.From_memory && not (Buffer_pool.contains pool keys.(id))
        then raise (missing `Read blocks.(id));
        tell op;
        if not link.(id) then begin
          let data = Buffer_pool.get pool store_of.(id) blocks.(id).Cplan.index in
          (match (writer, rplan) with
          | Some w, Some rp when List.mem keys.(id) rp.Journal.undo.(i) ->
              Journal.append_image w ~step:i ~array:blocks.(id).Cplan.array
                ~index:blocks.(id).Cplan.index ~data
          | _ -> ());
          captured.(slot) <- data
        end
    | Cplan.Alloc { id; fill } ->
        let buf = Buffer_pool.get_for_write pool store_of.(id) blocks.(id).Cplan.index in
        if compute && fill then Dense.fill buf 0.;
        wbuf := buf
    | Cplan.Pin k ->
        Buffer_pool.pin pool keys.(k);
        tell op
    | Cplan.Kernel { lo; _ } ->
        (* A phantom run moves blocks but resolves no operands and runs no
           kernel. *)
        if compute then begin
          let k = compiled.Vexec.kernels.(lo) in
          let bufs =
            Array.map
              (function
                | Vexec.Slot s -> captured.(s)
                | Vexec.Pool id ->
                    if not (Buffer_pool.contains pool keys.(id)) then
                      raise (missing `Operand blocks.(id));
                    Buffer_pool.get pool store_of.(id) blocks.(id).Cplan.index
                | Vexec.Absent blk -> raise (missing `Operand blk))
              k.Vexec.operands
          in
          k.Vexec.run bufs !wbuf
        end
    | Cplan.Write { id; dst } ->
        if not link.(id) then Buffer_pool.mark_dirty pool keys.(id);
        tell op;
        if (not link.(id)) && dst = Cplan.To_disk then
          Buffer_pool.write_through pool store_of.(id) blocks.(id).Cplan.index
    | Cplan.Unpin k ->
        Buffer_pool.unpin pool keys.(k);
        tell op
    | Cplan.Drop k ->
        (* A dead block is released, and its data discarded if its write
           was elided: every consumer has been served. *)
        if Buffer_pool.pin_count pool keys.(k) = 0 && Buffer_pool.contains pool keys.(k) then begin
          Buffer_pool.drop_if_dead pool keys.(k);
          tell op
        end
    | Cplan.Mark { lo; hi } -> (
        (* One watermark per unit, at the latest safe boundary in its range.
           Journalling fewer watermarks than the analysis allows is always
           sound; a chain's interior boundaries are unusable anyway (their
           restart points sit at or below the chain head). *)
        match (writer, rplan) with
        | Some w, Some rp ->
            let j = ref (-1) in
            for k = lo to hi do
              if rp.Journal.safe.(k) then j := k
            done;
            if !j >= 0 then begin
              backend.Backend.sync ();
              Journal.append w ~step:!j
            end
        | _ -> ())
    | Cplan.Step_end _ -> tell op
  in
  (try
     for pc = p.Cplan.starts.(start_step) to Array.length p.Cplan.ops - 1 do
       run_op p.Cplan.ops.(pc)
     done
   with Vexec.Arity { step; stmt; kernel; operands } ->
     raise (Error (Kernel_arity { step; stmt; kernel; operands })));
  backend.Backend.sync ();
  measure ~t0 ~before backend stores pool

let check_cost (result : result) (plan : Cplan.t) =
  Cost_check.check plan ~actual:result.per_array
