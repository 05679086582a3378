module Access = Riot_ir.Access
module Config = Riot_ir.Config
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Kernel = Riot_ir.Kernel
module Array_info = Riot_ir.Array_info
module Sched = Riot_ir.Sched
module Coaccess = Riot_analysis.Coaccess

type severity = Error | Warning

type diag = {
  code : string;
  severity : severity;
  step : int;
  stmt : string;
  block : Cplan.block option;
  message : string;
}

type watermarks = {
  wm_safe : bool array;
  wm_restart : int array;
  wm_undo : (string * int list) list array;
}

type report = { diags : diag list; steps : int; families : string list }

let errors r =
  List.length (List.filter (fun d -> d.severity = Error) r.diags)

let warnings r =
  List.length (List.filter (fun d -> d.severity = Warning) r.diags)

let ok r = List.for_all (fun d -> d.severity <> Error) r.diags
let is_clean r = r.diags = []

let pp_block ppf (blk : Cplan.block) =
  Format.fprintf ppf "%s[%s]" blk.Cplan.array
    (String.concat "," (List.map string_of_int blk.Cplan.index))

let pp_diag ppf d =
  Format.fprintf ppf "%s %s:" d.code
    (match d.severity with Error -> "error" | Warning -> "warning");
  if d.step >= 0 then Format.fprintf ppf " step %d" d.step;
  if d.stmt <> "" then Format.fprintf ppf " (%s)" d.stmt;
  (match d.block with
  | Some blk -> Format.fprintf ppf " %a" pp_block blk
  | None -> ());
  Format.fprintf ppf ": %s" d.message

let pp_report ppf r =
  if is_clean r then
    Format.fprintf ppf "plan verified: %d steps, no diagnostics (%s)" r.steps
      (String.concat ", " r.families)
  else begin
    Format.fprintf ppf "plan verification: %d error(s), %d warning(s) over %d steps@,"
      (errors r) (warnings r) r.steps;
    Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_diag ppf r.diags
  end

exception Rejected of report

let () =
  Printexc.register_printer (function
    | Rejected r ->
        Some (Format.asprintf "Plan_verify.Rejected: @[<v>%a@]" pp_report r)
    | _ -> None)

let inst_key inst = List.sort compare inst

(* --- Shared plan chronology ----------------------------------------------- *)

(* Per-block access history in step order, by block id, plus the
   (stmt, instance) -> step index map.  Built once per [check]; every family
   reads from it. *)
type chrono = {
  reads_of : (int * Cplan.read_src) list array;
  writes_of : (int * Cplan.write_dst) list array;
  index_of : (string * (string * int) list, int) Hashtbl.t;
}

let chronology (plan : Cplan.t) =
  let nb = Array.length plan.Cplan.blocks in
  let reads_of = Array.make nb [] and writes_of = Array.make nb [] in
  let index_of = Hashtbl.create 64 in
  Array.iteri
    (fun i (st : Cplan.step) ->
      Hashtbl.replace index_of (st.Cplan.stmt, inst_key st.Cplan.instance) i;
      List.iter (fun (_, k, src) -> reads_of.(k) <- (i, src) :: reads_of.(k)) st.Cplan.reads;
      List.iter (fun (_, k, dst) -> writes_of.(k) <- (i, dst) :: writes_of.(k)) st.Cplan.writes)
    plan.Cplan.steps;
  { reads_of = Array.map List.rev reads_of;
    writes_of = Array.map List.rev writes_of;
    index_of }

(* Latest write of block [k] strictly before step [s]. *)
let producer ch k s =
  List.fold_left (fun acc (t, dst) -> if t < s then Some (t, dst) else acc) None ch.writes_of.(k)

(* Diagnostic emitter: [acc] is the report accumulator; polymorphic in the
   format so every family shares it. *)
let emit acc ?(step = -1) ?(stmt = "") ?block ~sev code fmt =
  Printf.ksprintf
    (fun message ->
      acc := { code; severity = sev; step; stmt; block; message } :: !acc)
    fmt

(* --- Dataflow well-formedness (DF) ---------------------------------------- *)

(* The realized sharing pairs' read endpoints, resolved to (later step,
   block, earlier step).  Shared by the DF002 check and the Flip_read_src
   mutation, so the mutation plants exactly the violation the check hunts. *)
let realized_read_endpoints (plan : Cplan.t) ch =
  let params = plan.Cplan.config.Config.params in
  let lookup inst n =
    match List.assoc_opt n inst with Some v -> v | None -> List.assoc n params
  in
  List.concat_map
    (fun (ca : Coaccess.t) ->
      if ca.Coaccess.dst_typ <> Access.Read then []
      else
        List.filter_map
          (fun (src, dst) ->
            match
              ( Hashtbl.find_opt ch.index_of (ca.Coaccess.src_stmt, inst_key src),
                Hashtbl.find_opt ch.index_of (ca.Coaccess.dst_stmt, inst_key dst) )
            with
            | Some si, Some di ->
                let s = Program.find_stmt plan.Cplan.prog ca.Coaccess.src_stmt in
                let acc = List.nth s.Stmt.accesses ca.Coaccess.src_acc in
                let blk =
                  { Cplan.array = acc.Access.array;
                    index = Array.to_list (Access.block_of acc (lookup src)) }
                in
                Some (ca, si, di, blk)
            | _ -> None)
          (Coaccess.pairs_at ca ~params))
    plan.Cplan.realized

let check_dataflow (plan : Cplan.t) ch acc =
  let steps = plan.Cplan.steps in
  let n = Array.length steps in
  (* DF004: steps must follow the schedule's lexicographic order. *)
  for i = 0 to n - 2 do
    if Sched.lex_compare steps.(i).Cplan.time steps.(i + 1).Cplan.time > 0 then
      emit acc ~step:(i + 1) ~stmt:steps.(i + 1).Cplan.stmt ~sev:Error "DF004"
        "scheduled before step %d: steps are out of lexicographic time order" i
  done;
  (* DF001 / DF003 / DF005: walk in step order tracking earlier accesses. *)
  let nb = Array.length plan.Cplan.blocks in
  let seen = Bytes.make nb '\000' and warned = Bytes.make nb '\000' in
  Array.iteri
    (fun i (st : Cplan.step) ->
      List.iter
        (fun ((_ : Access.t), k, src) ->
          let blk = plan.Cplan.blocks.(k) in
          (match src with
          | Cplan.From_memory ->
              if Bytes.get seen k = '\000' then
                emit acc ~step:i ~stmt:st.Cplan.stmt ~block:blk ~sev:Error "DF001"
                  "memory-serviced read with no earlier access of the block \
                   (no dominating producer or loader)"
          | Cplan.From_disk -> (
              match producer ch k i with
              | Some (t, Cplan.Elided) ->
                  emit acc ~step:i ~stmt:st.Cplan.stmt ~block:blk ~sev:Error "DF005"
                    "disk read of a block whose dominating write (step %d) was \
                     elided: those bytes were never materialised"
                    t
              | _ -> ()));
          if
            ch.writes_of.(k) = []
            && (Program.find_array plan.Cplan.prog blk.Cplan.array).Array_info.kind
               <> Array_info.Input
            && Bytes.get warned k = '\000'
          then begin
            Bytes.set warned k '\001';
            emit acc ~step:i ~stmt:st.Cplan.stmt ~block:blk ~sev:Warning "DF003"
              "read of a never-written non-input block (the storage contract \
               serves it as zeroes)"
          end)
        st.Cplan.reads;
      List.iter (fun (_, k, _) -> Bytes.set seen k '\001') st.Cplan.reads;
      List.iter (fun (_, k, _) -> Bytes.set seen k '\001') st.Cplan.writes)
    steps;
  (* DF002: each realized sharing pair must be marked consistently with the
     schedule order (the later-scheduled read endpoint is the one serviced
     from memory; a W->R pair must run write-first). *)
  List.iter
    (fun ((ca : Coaccess.t), si, di, blk) ->
      if ca.Coaccess.src_typ = Access.Write && si >= di then
        emit acc ~step:di ~stmt:steps.(di).Cplan.stmt ~block:blk ~sev:Error "DF002"
          "realized %s pair scheduled read-before-write (write at step %d)"
          (Coaccess.label ca) si
      else begin
        let li = max si di in
        match
          List.find_opt (fun (_, k, _) -> plan.Cplan.blocks.(k) = blk) steps.(li).Cplan.reads
        with
        | Some (_, _, Cplan.From_memory) -> ()
        | Some (_, _, Cplan.From_disk) ->
            emit acc ~step:li ~stmt:steps.(li).Cplan.stmt ~block:blk ~sev:Error "DF002"
              "later endpoint of realized pair %s (steps %d -> %d) is marked \
               From_disk, against the schedule order"
              (Coaccess.label ca) (min si di) li
        | None ->
            emit acc ~step:li ~stmt:steps.(li).Cplan.stmt ~block:blk ~sev:Error "DF002"
              "later endpoint of realized pair %s has no read of the shared block"
              (Coaccess.label ca)
      end)
    (realized_read_endpoints plan ch)

(* --- Residency safety (RS) ------------------------------------------------ *)

(* A fold over the predicted protocol stream ([Cplan.events]), tracking
   residency from the stream's own events: a Read or Write brings a block
   in, a Drop releases it, Pin_open/Pin_close move its pin depth.  The
   engine acquires a step's write buffer before opening the step's pins,
   while the stream narrates the Write after them, so a pin on the step's
   own write block is backed.  Malformed pin intervals are reported up
   front; the stream leaves them out. *)
let check_residency (plan : Cplan.t) cap_bytes acc =
  let n = Array.length plan.Cplan.steps in
  List.iter
    (fun (k, a, b) ->
      if a < 0 || b >= n || a > b then
        emit acc ~step:a ~block:plan.Cplan.blocks.(k) ~sev:Error "RS005"
          "malformed pin interval [%d, %d] (plan has %d steps)" a b n)
    plan.Cplan.pins;
  let resident = Hashtbl.create 64 and depth = Hashtbl.create 64 in
  let bytes = ref 0 and peak = ref 0 in
  let pins_on blk = Option.value ~default:0 (Hashtbl.find_opt depth blk) in
  let stmt i = plan.Cplan.steps.(i).Cplan.stmt in
  Seq.iter
    (function
      | (Trace.Read { array; index; _ } | Trace.Write { array; index; _ }) as ev ->
          let blk = { Cplan.array; index } in
          (match ev with
          | Trace.Read { step; src = Trace.Memory; _ }
            when not (Hashtbl.mem resident blk) ->
              emit acc ~step ~stmt:(stmt step) ~block:blk ~sev:Error "RS001"
                "memory-serviced read of a non-resident block (use after drop, \
                 or never brought in)"
          | _ -> ());
          if not (Hashtbl.mem resident blk) then begin
            Hashtbl.add resident blk ();
            bytes := !bytes + Cplan.block_bytes plan blk;
            peak := max !peak !bytes
          end
      | Trace.Pin_open { step; array; index } ->
          let blk = { Cplan.array; index } in
          let written =
            List.exists
              (fun (_, k, _) -> plan.Cplan.blocks.(k) = blk)
              plan.Cplan.steps.(step).Cplan.writes
          in
          if not (Hashtbl.mem resident blk || written) then
            emit acc ~step ~stmt:(stmt step) ~block:blk ~sev:Error "RS002"
              "pin opened on a block this step never made resident";
          Hashtbl.replace depth blk (pins_on blk + 1)
      | Trace.Pin_close { array; index; _ } ->
          let blk = { Cplan.array; index } in
          Hashtbl.replace depth blk (max 0 (pins_on blk - 1))
      | Trace.Drop { array; index; _ } ->
          let blk = { Cplan.array; index } in
          if Hashtbl.mem resident blk then begin
            Hashtbl.remove resident blk;
            bytes := !bytes - Cplan.block_bytes plan blk
          end
      | Trace.Step_begin _ | Trace.Step_end _ | Trace.Evict _ -> ())
    (Cplan.events plan);
  Hashtbl.iter
    (fun blk pins ->
      if pins > 0 then
        emit acc ~block:blk ~sev:Error "RS004" "%d pin(s) still open at plan end (leak)"
          pins)
    depth;
  if !peak > cap_bytes then
    emit acc ~sev:Error "RS003"
      "peak resident set of the predicted stream (%d bytes) exceeds the \
       buffer-pool capacity (%d bytes)"
      !peak cap_bytes

(* --- Journal safety (JR) -------------------------------------------------- *)

(* Independent re-derivation of the crash-restart safety argument, diffed
   against the claimed watermark data.  A claimed-safe boundary [i] with
   restart [r] is verified against every read a replay from [r] performs,
   with the crashed incarnation assumed to have run to the next claimed-safe
   boundary (beyond which the watermark would have advanced). *)
let check_journal (plan : Cplan.t) ch (wm : watermarks) acc =
  let steps = plan.Cplan.steps in
  let n = Array.length steps in
  if
    Array.length wm.wm_safe <> n
    || Array.length wm.wm_restart <> n
    || Array.length wm.wm_undo <> n
  then
    emit acc ~sev:Error "JR004"
      "watermark data shape (%d/%d/%d) does not match the plan's %d steps"
      (Array.length wm.wm_safe) (Array.length wm.wm_restart)
      (Array.length wm.wm_undo) n
  else begin
    let all_reads =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun s (st : Cplan.step) -> List.map (fun (_, k, src) -> (k, s, src)) st.Cplan.reads)
              steps))
    in
    let disk_writes k = List.filter (fun (_, dst) -> dst = Cplan.To_disk) ch.writes_of.(k) in
    (* Per restart point, the earliest disk write a replay from there can
       observe (JR001: a read's window of disk-valued restart points runs
       from just past its producer, or from 0, up to the read itself), and
       whether an elided value crosses it (JR002).  A boundary both leave
       clean has nothing to report; the others are scanned read by read. *)
    let observed_write =
      Riot_base.Cover.min_cover ~n:(n + 1)
        (List.filter_map
           (fun (k, s, src) ->
             match List.find_opt (fun (t, _) -> t >= s) (disk_writes k) with
             | None -> None
             | Some (w, _) ->
                 let from =
                   match src with
                   | Cplan.From_disk -> 0
                   | Cplan.From_memory -> (
                       match producer ch k s with
                       | Some (t, _) -> t + 1
                       | None -> 0)
                 in
                 Some (from, s, w))
           all_reads)
    and stranded =
      Riot_base.Cover.min_cover ~n:(n + 1)
        (List.filter_map
           (fun (k, s, src) ->
             match (src, producer ch k s) with
             | Cplan.From_memory, Some (t, Cplan.Elided) -> Some (t + 1, s, 0)
             | _ -> None)
           all_reads)
    in
    for i = 0 to n - 1 do
      if wm.wm_safe.(i) then begin
        let r = wm.wm_restart.(i) in
        let tmax = ref (n - 1) in
        (try
           for j = i + 1 to n - 1 do
             if wm.wm_safe.(j) then begin
               tmax := j;
               raise Exit
             end
           done
         with Exit -> ());
        if r > i + 1 then
          emit acc ~step:i ~sev:Error "JR002"
            "restart point %d skips steps the watermark never completed" r
        else if r < 0 || observed_write.(r) <= !tmax || stranded.(r) = 0 then begin
          (* JR001: a replayed read taking its value from the disk must not
             observe a To_disk write the crashed incarnation may have done. *)
          List.iter
            (fun (k, s, src) ->
              let from_disk_state =
                match src with
                | Cplan.From_disk -> true
                | Cplan.From_memory -> (
                    match producer ch k s with
                    | Some (t, _) -> t < r
                    | None -> true)
              in
              if
                s >= r && from_disk_state
                && List.exists (fun (t, _) -> s <= t && t <= !tmax) (disk_writes k)
              then
                emit acc ~step:i ~stmt:steps.(i).Cplan.stmt ~block:plan.Cplan.blocks.(k)
                  ~sev:Error "JR001"
                  "claimed-safe watermark is unsafe: the replayed read at step \
                   %d can observe a future disk version (write within [%d, %d])"
                  s s !tmax;
              (* JR002: a replayed memory read whose producer was elided
                 before the restart point consumes a value that no longer
                 exists anywhere. *)
              if s >= r && src = Cplan.From_memory then
                match producer ch k s with
                | Some (t, Cplan.Elided) when t < r ->
                    emit acc ~step:i ~stmt:steps.(i).Cplan.stmt ~block:plan.Cplan.blocks.(k)
                      ~sev:Error "JR002"
                      "restart point %d strands the elided value produced at \
                       step %d and consumed at step %d"
                      r t s
                | _ -> ())
            all_reads
        end
      end
    done;
    (* JR003: every anti-dependence read (a later step overwrites the block
       on disk) must have a covering before-image in its step's undo set. *)
    Array.iteri
      (fun i (st : Cplan.step) ->
        List.iter
          (fun ((_ : Access.t), k, _) ->
            let blk = plan.Cplan.blocks.(k) in
            if
              List.exists (fun (t, _) -> t >= i) (disk_writes k)
              && not (List.mem (blk.Cplan.array, blk.Cplan.index) wm.wm_undo.(i))
            then
              emit acc ~step:i ~stmt:st.Cplan.stmt ~block:blk ~sev:Error "JR003"
                "anti-dependence read has no covering before-image in the \
                 step's undo set")
          st.Cplan.reads)
      steps
  end

(* --- Fusion legality cross-check (FU) ------------------------------------- *)

(* Re-derived here from first principles (not by calling [Fuse]; only the
   kernel table, [Kernel.info], is shared); the fused groups the vectorized
   executor consumes are then diffed against it. *)
let check_fusion (plan : Cplan.t) ch groups acc =
  let steps = plan.Cplan.steps in
  let n = Array.length steps in
  let kernel i =
    Kernel.info (Program.find_stmt plan.Cplan.prog steps.(i).Cplan.stmt).Stmt.kernel
  in
  let operand_blocks i =
    let st = steps.(i) in
    let lookup nm =
      match List.assoc_opt nm st.Cplan.instance with
      | Some v -> v
      | None -> List.assoc nm plan.Cplan.config.Config.params
    in
    List.map
      (fun (a : Access.t) ->
        { Cplan.array = a.Access.array;
          index = Array.to_list (Access.block_of a lookup) })
      (Stmt.operand_reads (Program.find_stmt plan.Cplan.prog st.Cplan.stmt))
  in
  let static_shape i =
    let st = steps.(i) in
    let obs = operand_blocks i in
    List.length st.Cplan.writes = 1
    && (kernel i).Kernel.arity = Some (List.length obs)
    && List.for_all
         (fun ob -> List.exists (fun (_, rk, _) -> plan.Cplan.blocks.(rk) = ob) st.Cplan.reads)
         obs
  in
  let pins_of id =
    List.filter_map (fun (b, a0, b0) -> if b = id then Some (a0, b0) else None) plan.Cplan.pins
  in
  (* Why boundary [k] -> [k + 1] may not be fused over block [id]; [None] =
     legal. *)
  let illegal k id =
    if k + 1 >= n then Some "boundary past the last step"
    else if (kernel k).Kernel.chain <> Some Kernel.Elementwise then
      Some "producer kernel is not element-wise"
    else if (kernel (k + 1)).Kernel.chain = None then
      Some "consumer kernel is neither element-wise nor a chain terminal"
    else if not (static_shape k && static_shape (k + 1)) then
      Some "a step's kernel operands are not statically resolvable"
    else if
      steps.(k).Cplan.writes
      <> List.filter (fun (_, b, _) -> b = id) steps.(k).Cplan.writes
      || not
           (List.exists
              (fun (_, b, d) -> b = id && d = Cplan.Elided)
              steps.(k).Cplan.writes)
    then Some "producer's single write is not the elided write of the link block"
    else if ch.writes_of.(id) <> [ (k, Cplan.Elided) ] then
      Some "link block has writes elsewhere in the plan"
    else if ch.reads_of.(id) <> [ (k + 1, Cplan.From_memory) ] then
      Some "link block has reads beyond the consumer's memory read"
    else if not (List.for_all (fun (a0, b0) -> a0 >= k && b0 <= k + 1) (pins_of id))
    then Some "a pin of the link block escapes the fused pair"
    else if not (List.mem plan.Cplan.blocks.(id) (operand_blocks (k + 1))) then
      Some "link block is not a kernel operand of the consumer"
    else None
  in
  let tile id =
    Config.block_elems_total (Config.layout plan.Cplan.config plan.Cplan.blocks.(id).Cplan.array)
  in
  (* FU003: the groups must partition [0, n) contiguously, in order. *)
  let sorted = List.sort (fun (a : Fuse.group) b -> compare a.Fuse.lo b.Fuse.lo) groups in
  let rec contiguous expect = function
    | [] -> expect = n
    | (g : Fuse.group) :: rest ->
        g.Fuse.lo = expect && g.Fuse.hi >= g.Fuse.lo
        && g.Fuse.hi < n
        && List.length g.Fuse.links = g.Fuse.hi - g.Fuse.lo
        && contiguous (g.Fuse.hi + 1) rest
  in
  if not (contiguous 0 sorted) then
    emit acc ~sev:Error "FU003"
      "fusion groups do not partition the plan's %d steps contiguously" n
  else begin
    List.iter
      (fun (g : Fuse.group) ->
        if g.Fuse.hi > g.Fuse.lo then begin
          let t0 = tile (List.hd g.Fuse.links) in
          List.iteri
            (fun o id ->
              let k = g.Fuse.lo + o and block = plan.Cplan.blocks.(id) in
              (match illegal k id with
              | Some why ->
                  emit acc ~step:k ~stmt:steps.(k).Cplan.stmt ~block ~sev:Error
                    "FU001" "fused boundary %d -> %d is illegal: %s" k (k + 1)
                    why
              | None -> ());
              if tile id <> t0 then
                emit acc ~step:k ~stmt:steps.(k).Cplan.stmt ~block ~sev:Error
                  "FU001"
                  "fused run mixes tile sizes (%d vs %d elements): one scratch \
                   tile cannot carry the chain"
                  (tile id) t0)
            g.Fuse.links
        end)
      sorted;
    (* FU002: a legal, tile-compatible junction between two groups means the
       executor left sharing on the table (never produced by the greedy
       analysis; it flags forged or stale group lists). *)
    let rec junctions = function
      | (g1 : Fuse.group) :: (g2 :: _ as rest) ->
          let b = g1.Fuse.hi in
          (match steps.(b).Cplan.writes with
          | [ (_, id, _) ]
            when illegal b id = None
                 && (g1.Fuse.links = [] || tile id = tile (List.hd g1.Fuse.links))
            ->
              emit acc ~step:b ~stmt:steps.(b).Cplan.stmt ~block:plan.Cplan.blocks.(id)
                ~sev:Warning
                "FU002"
                "legal fusable boundary %d -> %d left unfused between two groups"
                b g2.Fuse.lo
          | _ -> ());
          junctions rest
      | _ -> []
    in
    ignore (junctions sorted : 'a list)
  end

(* --- Driver ---------------------------------------------------------------- *)

let check ?cap_bytes ?watermarks ?groups (plan : Cplan.t) =
  let n = Array.length plan.Cplan.steps in
  let cap = Option.value cap_bytes ~default:plan.Cplan.peak_memory in
  let acc = ref [] in
  let ch = chronology plan in
  check_dataflow plan ch acc;
  check_residency plan cap acc;
  Option.iter (fun wm -> check_journal plan ch wm acc) watermarks;
  let groups = match groups with Some g -> g | None -> Fuse.analyze plan in
  check_fusion plan ch groups acc;
  let families =
    [ "dataflow"; "residency" ]
    @ (if watermarks <> None then [ "journal" ] else [])
    @ [ "fusion" ]
  in
  { diags =
      List.sort
        (fun a b -> compare (a.step, a.code, a.message) (b.step, b.code, b.message))
        !acc;
    steps = n;
    families }

let check_exn ?cap_bytes ?watermarks ?groups plan =
  let r = check ?cap_bytes ?watermarks ?groups plan in
  if not (ok r) then raise (Rejected r)

(* --- Mutation harness ------------------------------------------------------ *)

type mutation =
  | Flip_read_src
  | Forge_mem_read
  | Drop_pin
  | Reorder_step
  | Move_watermark
  | Forge_fusion

type mutated = {
  m_plan : Cplan.t;
  m_watermarks : watermarks option;
  m_groups : Fuse.group list option;
  m_expect : string list;
  m_descr : string;
}

let mutation_name = function
  | Flip_read_src -> "flip-read-src"
  | Forge_mem_read -> "forge-mem-read"
  | Drop_pin -> "drop-pin"
  | Reorder_step -> "reorder-step"
  | Move_watermark -> "move-watermark"
  | Forge_fusion -> "forge-fusion"

let all_mutations =
  [ Flip_read_src; Forge_mem_read; Drop_pin; Reorder_step; Move_watermark;
    Forge_fusion ]

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Random.State.int rng (List.length xs)))

let set_read_src (plan : Cplan.t) ~step ~id src =
  let steps =
    Array.mapi
      (fun i (st : Cplan.step) ->
        if i <> step then st
        else
          { st with
            Cplan.reads =
              List.map
                (fun ((a, b, _) as r) -> if b = id then (a, b, src) else r)
                st.Cplan.reads })
      plan.Cplan.steps
  in
  { plan with Cplan.steps }

let mutate ?(seed = 0) ?watermarks mutation (plan : Cplan.t) =
  let rng = Random.State.make [| seed; 0x9E3779B9 |] in
  let ch = chronology plan in
  let n = Array.length plan.Cplan.steps in
  match mutation with
  | Flip_read_src -> (
      (* Re-create the historical Cplan.build bug: the later-scheduled
         endpoint of a realized read pair loses its From_memory marking. *)
      let sites =
        List.filter_map
          (fun ((_ : Coaccess.t), si, di, blk) ->
            let li = max si di in
            match
              List.find_opt
                (fun (_, b, _) -> plan.Cplan.blocks.(b) = blk)
                plan.Cplan.steps.(li).Cplan.reads
            with
            | Some (_, id, Cplan.From_memory) -> Some (li, id)
            | _ -> None)
          (realized_read_endpoints plan ch)
      in
      match pick rng sites with
      | None -> None
      | Some (step, id) ->
          Some
            { m_plan = set_read_src plan ~step ~id Cplan.From_disk;
              m_watermarks = None;
              m_groups = None;
              m_expect = [ "DF002"; "DF005" ];
              m_descr =
                Printf.sprintf "flip read of %s at step %d to From_disk"
                  plan.Cplan.blocks.(id).Cplan.array step })
  | Forge_mem_read -> (
      let covered i id =
        List.exists (fun (b, a0, b0) -> b = id && a0 < i && i <= b0) plan.Cplan.pins
      in
      let sites = ref [] in
      Array.iteri
        (fun i (st : Cplan.step) ->
          List.iter
            (fun ((_ : Access.t), id, src) ->
              if src = Cplan.From_disk && not (covered i id) then
                sites := (i, id) :: !sites)
            st.Cplan.reads)
        plan.Cplan.steps;
      match pick rng !sites with
      | None -> None
      | Some (step, id) ->
          Some
            { m_plan = set_read_src plan ~step ~id Cplan.From_memory;
              m_watermarks = None;
              m_groups = None;
              m_expect = [ "DF001"; "RS001" ];
              m_descr =
                Printf.sprintf "forge read of %s at step %d as From_memory"
                  plan.Cplan.blocks.(id).Cplan.array step })
  | Drop_pin -> (
      let consumer_only_pin (id, a, b) =
        b > a
        && List.exists
             (fun (s, src) -> src = Cplan.From_memory && a < s && s <= b)
             ch.reads_of.(id)
        && not
             (List.exists
                (fun (b2, a2, b2') -> b2 = id && (a2, b2') <> (a, b))
                plan.Cplan.pins)
      in
      match pick rng (List.filter consumer_only_pin plan.Cplan.pins) with
      | None -> None
      | Some ((id, a, b) as p) ->
          Some
            { m_plan =
                { plan with
                  Cplan.pins = List.filter (fun q -> q <> p) plan.Cplan.pins };
              m_watermarks = None;
              m_groups = None;
              m_expect = [ "RS001" ];
              m_descr =
                Printf.sprintf "drop pin of %s over [%d, %d]" plan.Cplan.blocks.(id).Cplan.array a
                  b })
  | Reorder_step -> (
      let sites = ref [] in
      for i = 0 to n - 2 do
        if
          Sched.lex_compare plan.Cplan.steps.(i).Cplan.time
            plan.Cplan.steps.(i + 1).Cplan.time
          < 0
        then sites := i :: !sites
      done;
      match pick rng !sites with
      | None -> None
      | Some i ->
          let steps = Array.copy plan.Cplan.steps in
          let tmp = steps.(i) in
          steps.(i) <- steps.(i + 1);
          steps.(i + 1) <- tmp;
          Some
            { m_plan = { plan with Cplan.steps = steps };
              m_watermarks = None;
              m_groups = None;
              m_expect = [ "DF004" ];
              m_descr = Printf.sprintf "swap steps %d and %d" i (i + 1) })
  | Move_watermark -> (
      match watermarks with
      | None -> None
      | Some wm when Array.length wm.wm_safe <> n -> None
      | Some wm -> (
          let copy () =
            { wm_safe = Array.copy wm.wm_safe;
              wm_restart = Array.copy wm.wm_restart;
              wm_undo = Array.copy wm.wm_undo }
          in
          let unsafe =
            List.filter (fun i -> not wm.wm_safe.(i)) (List.init n Fun.id)
          in
          let pulled_back =
            List.filter
              (fun i -> wm.wm_safe.(i) && wm.wm_restart.(i) < i + 1)
              (List.init n Fun.id)
          in
          let with_undo =
            List.filter (fun i -> wm.wm_undo.(i) <> []) (List.init n Fun.id)
          in
          match
            ( pick rng unsafe,
              pick rng pulled_back,
              pick rng with_undo )
          with
          | Some i, _, _ ->
              let wm' = copy () in
              wm'.wm_safe.(i) <- true;
              Some
                { m_plan = plan;
                  m_watermarks = Some wm';
                  m_groups = None;
                  m_expect = [ "JR001"; "JR002" ];
                  m_descr = Printf.sprintf "claim unsafe boundary %d safe" i }
          | None, Some i, _ ->
              let wm' = copy () in
              wm'.wm_restart.(i) <- i + 1;
              Some
                { m_plan = plan;
                  m_watermarks = Some wm';
                  m_groups = None;
                  m_expect = [ "JR002" ];
                  m_descr =
                    Printf.sprintf "raise restart of watermark %d from %d to %d"
                      i wm.wm_restart.(i) (i + 1) }
          | None, None, Some i ->
              let wm' = copy () in
              wm'.wm_undo.(i) <- List.tl wm.wm_undo.(i);
              Some
                { m_plan = plan;
                  m_watermarks = Some wm';
                  m_groups = None;
                  m_expect = [ "JR003" ];
                  m_descr = Printf.sprintf "drop an undo entry at step %d" i }
          | None, None, None -> None))
  | Forge_fusion -> (
      let groups = Fuse.analyze plan in
      let rec mergeable acc = function
        | (g1 : Fuse.group) :: (g2 :: _ as rest) ->
            let acc =
              match plan.Cplan.steps.(g1.Fuse.hi).Cplan.writes with
              | [ (_, id, _) ] -> (g1, g2, id) :: acc
              | _ -> acc
            in
            mergeable acc rest
        | _ -> acc
      in
      match pick rng (mergeable [] groups) with
      | None -> None
      | Some (g1, g2, id) ->
          let merged =
            { Fuse.lo = g1.Fuse.lo;
              hi = g2.Fuse.hi;
              links = g1.Fuse.links @ (id :: g2.Fuse.links) }
          in
          let forged =
            List.concat_map
              (fun g ->
                if g == g1 then [ merged ] else if g == g2 then [] else [ g ])
              groups
          in
          Some
            { m_plan = plan;
              m_watermarks = None;
              m_groups = Some forged;
              m_expect = [ "FU001" ];
              m_descr =
                Printf.sprintf "forge fusion across boundary %d -> %d"
                  g1.Fuse.hi g2.Fuse.lo })
