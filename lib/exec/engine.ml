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
  (s.Io_stats.virtual_time, s.Io_stats.reads, s.Io_stats.writes, s.Io_stats.bytes_read,
   s.Io_stats.bytes_written)

let stores_for backend ~format ~config =
  List.map
    (fun (name, layout) ->
      (name, Block_store.create backend ~format ~name ~layout))
    config.Config.layouts

let key_of (blk : Cplan.block) = (blk.Cplan.array, blk.Cplan.index)


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

let run_opportunistic (plan : Cplan.t) ~backend ~format ~mem_cap =
  let t0 = Unix.gettimeofday () in
  let vt0, r0, w0, br0, bw0 = snapshot backend in
  let streams0 = Io_stats.stream_counts backend.Backend.stats in
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
  let vt1, r1, w1, br1, bw1 = snapshot backend in
  { wall_seconds = Unix.gettimeofday () -. t0;
    virtual_io_seconds = vt1 -. vt0;
    reads = r1 - r0;
    writes = w1 - w0;
    bytes_read = br1 - br0;
    bytes_written = bw1 - bw0;
    pool_peak_bytes = Buffer_pool.peak_bytes pool;
    per_array = per_array_delta ~before:streams0 backend stores }

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
  let vt0 = backend.Backend.stats.Io_stats.virtual_time in
  let r0 = backend.Backend.stats.Io_stats.reads
  and w0 = backend.Backend.stats.Io_stats.writes in
  let br0 = backend.Backend.stats.Io_stats.bytes_read
  and bw0 = backend.Backend.stats.Io_stats.bytes_written in
  let streams0 = Io_stats.stream_counts backend.Backend.stats in
  let stores =
    match stores with
    | Some s -> s
    | None -> stores_for backend ~format ~config:plan.Cplan.config
  in
  let store name = List.assoc name stores in
  (* Every event is emitted as [if tracing then emit (...)], so with no sink
     none is constructed.  Eviction events surface through the pool's hook;
     every other event is emitted at its engine action.  [cur_step] names
     the step whose demand caused an eviction. *)
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
     (phantom runs have no buffers for a chain to work on).  A fused group
     never materializes its link blocks, so a restart point strictly inside
     one would find them missing.  The journal analysis never produces such
     a point, but should one arise, run unfused: every step then has the
     plan's own pins and drops. *)
  let compiled =
    let fuse = compute && mode = Vector in
    let cp = Vexec.compiled_for ~fuse plan in
    if
      Array.exists
        (function
          | Vexec.Fused f -> start_step > f.Vexec.f_lo && start_step <= f.Vexec.f_hi
          | Vexec.Single _ -> false)
        cp.Vexec.ops
    then Vexec.compiled_for ~fuse:false plan
    else cp
  in
  (* Read-ahead hints.  Phantom runs are excluded: they account reads via
     [touch_read] without materialising bytes, so a real prefetched pread
     would double-count the traffic. *)
  let hints = if compute then Some (Prefetch.make plan) else None in
  let issue_hints ~now ~horizon =
    match hints with
    | None -> ()
    | Some h ->
        Prefetch.issue h ~now ~horizon (fun (blk : Cplan.block) ->
            Block_store.prefetch (store blk.Cplan.array) blk.Cplan.index)
  in
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
          Buffer_pool.pin pool (key_of blk)
        end)
      plan.Cplan.pins;
  let drop_dead i (blk : Cplan.block) =
    let k = key_of blk in
    if Buffer_pool.pin_count pool k = 0 && Buffer_pool.contains pool k then begin
      Buffer_pool.drop_if_dead pool k;
      if tracing then
        emit (Trace.Drop { step = i; array = blk.Cplan.array; index = blk.Cplan.index })
    end
  in
  let step_begin i stmt instance =
    if tracing then emit (Trace.Step_begin { step = i; stmt; instance })
  in
  let step_end i = if tracing then emit (Trace.Step_end { step = i }) in
  (* Open pins that start at a step (blocks are resident then). *)
  let open_pins i =
    List.iter
      (fun (blk : Cplan.block) ->
        Buffer_pool.pin pool (key_of blk);
        if tracing then
          emit (Trace.Pin_open { step = i; array = blk.Cplan.array; index = blk.Cplan.index }))
      compiled.Vexec.pins.Cplan.pin_start.(i)
  in
  (* Close pins ending at a step; a dead unpinned buffer is released (and its
     data discarded if its write was elided - every consumer has been
     served). *)
  let close_pins i =
    List.iter
      (fun (blk : Cplan.block) ->
        Buffer_pool.unpin pool (key_of blk);
        if tracing then
          emit (Trace.Pin_close { step = i; array = blk.Cplan.array; index = blk.Cplan.index });
        drop_dead i blk)
      compiled.Vexec.pins.Cplan.pin_stop.(i)
  in
  (* --- The step protocol: read, resolve the write buffer, open pins,
     compute, write, close pins, drop, journal.  [exec_single] runs it for
     one step; [exec_fused] runs it over a fused group, whose link blocks are
     never allocated or touched (no get/get_for_write/pin on them) and which
     journals a single watermark at the latest safe boundary in its range. *)
  (* Replay a step's planned reads from compiled metadata, capturing each
     buffer.  [skip] is the index of a fused group's incoming link read: it
     exists only as the chain's scratch tile, so only its trace event is
     replayed (its residency check, pool lookup and undo-image test all
     concern a buffer that never exists - and a link block is never in any
     undo set, because no step writes it to disk). *)
  let read_phase ~skip (s : Vexec.single) captured =
    let i = s.Vexec.s_step in
    Array.iteri
      (fun r ((blk : Cplan.block), src) ->
        (* A link read is always memory-serviced (Fuse's legality). *)
        if r <> skip && src = Cplan.From_memory
           && not (Buffer_pool.contains pool (key_of blk))
        then
          raise
            (Error
               (Missing_block
                  { step = i;
                    stmt = s.Vexec.s_stmt;
                    array = blk.Cplan.array;
                    index = blk.Cplan.index;
                    phase = `Read }));
        if tracing then
          emit
            (Trace.Read
               { step = i;
                 array = blk.Cplan.array;
                 index = blk.Cplan.index;
                 src =
                   (match src with
                   | Cplan.From_disk -> Trace.Disk
                   | Cplan.From_memory -> Trace.Memory) });
        if r <> skip then begin
          let data = Buffer_pool.get pool (store blk.Cplan.array) blk.Cplan.index in
          (match (writer, rplan) with
          | Some w, Some rp when List.mem (key_of blk) rp.Journal.undo.(i) ->
              Journal.append_image w ~step:i ~array:blk.Cplan.array
                ~index:blk.Cplan.index ~data
          | _ -> ());
          captured.(r) <- data
        end)
      s.Vexec.s_reads
  in
  let write_events (s : Vexec.single) =
    let i = s.Vexec.s_step in
    match s.Vexec.s_write with
    | None -> ()
    | Some (blk, dst) ->
        Buffer_pool.mark_dirty pool (key_of blk);
        if tracing then
          emit
            (Trace.Write
               { step = i;
                 array = blk.Cplan.array;
                 index = blk.Cplan.index;
                 elided = (dst = Cplan.Elided) });
        (match dst with
        | Cplan.To_disk ->
            Buffer_pool.write_through pool (store blk.Cplan.array) blk.Cplan.index
        | Cplan.Elided -> ())
  in
  let drop_phase (s : Vexec.single) =
    let i = s.Vexec.s_step in
    Array.iter (fun blk -> drop_dead i blk) s.Vexec.s_drops
  in
  let exec_single (s : Vexec.single) =
    let i = s.Vexec.s_step in
    cur_step := i;
    step_begin i s.Vexec.s_stmt s.Vexec.s_instance;
    let captured = Array.make (Array.length s.Vexec.s_reads) [||] in
    read_phase ~skip:(-1) s captured;
    let wbuf =
      match s.Vexec.s_write with
      | None -> [||]
      | Some (blk, _) ->
          let buf =
            Buffer_pool.get_for_write pool (store blk.Cplan.array) blk.Cplan.index
          in
          if compute && s.Vexec.s_fill then Dense.fill buf 0.;
          buf
    in
    open_pins i;
    (* A phantom run moves blocks but resolves no operands and runs no
       kernel. *)
    if compute then begin
      let opbufs =
        Array.map
          (function
            | Vexec.Rd r -> captured.(r)
            | Vexec.Pool blk ->
                if not (Buffer_pool.contains pool (key_of blk)) then
                  raise
                    (Error
                       (Missing_block
                          { step = i;
                            stmt = s.Vexec.s_stmt;
                            array = blk.Cplan.array;
                            index = blk.Cplan.index;
                            phase = `Operand }));
                Buffer_pool.get pool (store blk.Cplan.array) blk.Cplan.index)
          s.Vexec.s_ops
      in
      s.Vexec.s_kernel opbufs wbuf
    end;
    write_events s;
    close_pins i;
    drop_phase s;
    (match (writer, rplan) with
    | Some w, Some rp when rp.Journal.safe.(i) ->
        backend.Backend.sync ();
        Journal.append w ~step:i
    | _ -> ());
    step_end i
  in
  let exec_fused (f : Vexec.fused) =
    let nst = Array.length f.Vexec.f_steps in
    let captured = f.Vexec.f_captured in
    for o = 0 to nst - 1 do
      let s = f.Vexec.f_steps.(o) in
      let i = s.Vexec.s_step in
      cur_step := i;
      step_begin i s.Vexec.s_stmt s.Vexec.s_instance;
      read_phase ~skip:f.Vexec.f_prev_read.(o) s captured.(o);
      if o = nst - 1 then begin
        let dst =
          match s.Vexec.s_write with
          | Some (blk, _) ->
              Buffer_pool.get_for_write pool (store blk.Cplan.array) blk.Cplan.index
          | None -> assert false (* Fuse: terminal has exactly one write *)
        in
        open_pins i;
        let bufs =
          Array.map (fun (o', r) -> captured.(o').(r)) f.Vexec.f_binds
        in
        (match f.Vexec.f_terminal with
        | Vexec.Ew -> Dense.run_chain f.Vexec.f_chain ~bufs ~dst
        | Vexec.Rss { rows; cols } ->
            let e = Dense.run_stages f.Vexec.f_chain ~bufs in
            (* The accumulator zero-fill is deferred past the interior
               stages: they read only captured buffers and the scratch tile,
               so nothing they consume can alias the fill. *)
            if s.Vexec.s_fill then Dense.fill dst 0.;
            Dense.rss_acc ~rows ~cols ~e ~acc:dst);
        write_events s
      end
      else begin
        open_pins i;
        (* The interior write exists only in the trace replay: its block is
           the chain's scratch tile. *)
        match s.Vexec.s_write with
        | Some (blk, _) ->
            if tracing then
              emit
                (Trace.Write
                   { step = i; array = blk.Cplan.array; index = blk.Cplan.index; elided = true })
        | None -> assert false
      end;
      close_pins i;
      drop_phase s;
      if o = nst - 1 then begin
        (* One watermark for the whole fused run, at the latest safe boundary
           in its range.  Journalling fewer watermarks than the analysis
           allows is always sound; interior boundaries are unusable anyway
           (their restart points sit at or below the chain head). *)
        match (writer, rplan) with
        | Some w, Some rp ->
            let j = ref (-1) in
            for k = f.Vexec.f_lo to f.Vexec.f_hi do
              if rp.Journal.safe.(k) then j := k
            done;
            if !j >= 0 then begin
              backend.Backend.sync ();
              Journal.append w ~step:!j
            end
        | _ -> ()
      end;
      step_end i
    done
  in
  (* Hints are issued at dispatch boundaries so the next unit's blocks are
     in flight while the current unit's kernels run.  A hint whose earliest
     safe step falls strictly inside a fused run is skipped by the
     [h_earliest <= now] gate and falls back to a demand read. *)
  (try
     Array.iter
       (function
         | Vexec.Single s ->
             if s.Vexec.s_step >= start_step then begin
               issue_hints ~now:s.Vexec.s_step ~horizon:(s.Vexec.s_step + prefetch);
               exec_single s
             end
         | Vexec.Fused f ->
             if f.Vexec.f_lo >= start_step then begin
               issue_hints ~now:f.Vexec.f_lo ~horizon:(f.Vexec.f_hi + prefetch);
               exec_fused f
             end)
       compiled.Vexec.ops
   with Vexec.Arity { step; stmt; kernel; operands } ->
     raise (Error (Kernel_arity { step; stmt; kernel; operands })));
  backend.Backend.sync ();
  let stats = backend.Backend.stats in
  { wall_seconds = Unix.gettimeofday () -. t0;
    virtual_io_seconds = stats.Io_stats.virtual_time -. vt0;
    reads = stats.Io_stats.reads - r0;
    writes = stats.Io_stats.writes - w0;
    bytes_read = stats.Io_stats.bytes_read - br0;
    bytes_written = stats.Io_stats.bytes_written - bw0;
    pool_peak_bytes = Buffer_pool.peak_bytes pool;
    per_array = per_array_delta ~before:streams0 backend stores }

let check_cost (result : result) (plan : Cplan.t) =
  Cost_check.check plan ~actual:result.per_array
