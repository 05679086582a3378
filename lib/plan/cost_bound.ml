module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Program = Riot_ir.Program
module Array_info = Riot_ir.Array_info
module Coaccess = Riot_analysis.Coaccess

(* An admissible per-candidate I/O lower bound.

   For a candidate set S of sharing opportunities, [eval t s] returns a lower
   bound (in modelled seconds) on [Cplan.predicted_io_seconds] of EVERY legal
   plan that realizes exactly S — without running the Farkas schedule search
   or building the plan.  The derivation mirrors Cplan's accounting block by
   block, replacing each schedule-dependent quantity by its best case:

   Reads.  Without sharing every (instance, block) read is a disk read (Cplan
   merges repeated reads of one block within an instance into one I/O, and so
   do we).  A read can only become memory-serviced when some realized [_, Read]
   pair covers its block — the pair's source access block is pinned, and that
   is exactly the block the pair's endpoints co-access.  So for a block outside
   the union of S's pinned blocks, all its reads hit the disk.  For a pinned
   block that is never written, the first read is still a cold miss (nothing
   else can make the block resident), so at most R(b) - 1 reads are saved;
   for a pinned block that is also written, all R(b) reads may be saved (a
   write makes the block resident for free).

   Writes.  A non-intermediate block keeps its last write in every plan —
   elision needs a realized W->W source AND a later write — so its cost is
   W(b) writes, of which at most W(b) - 1 are saved, and only when some
   opportunity in S has a W->W pair on the block.  An intermediate block
   (footnote 8) elides every write whose segment-to-next-write contains no
   disk-serviced read; segments with no reads at all elide unconditionally.
   Which reads fall into which write's segment does not depend on the
   schedule: every write is ordered against every other access of its block
   by a dependence, which each legal schedule keeps.  So K(b), the writes
   Plan 0 keeps (a lone write of its instance followed by a read before the
   block's next write), is the cost of every plan that leaves the block
   unpinned, and pinning it under S can save at most all K(b).  (Reads in
   the writing instance itself precede the write, so a block that is only
   read there keeps none of its writes.)

   Each per-block saving is counted once across the union of S's pinned/W->W
   block sets, so [eval] is monotone non-increasing in S and subadditive
   against the standalone [saving] of each opportunity — which is what makes
   the branch-and-bound tail bound [eval S - sum of top-k remaining savings]
   sound. *)

type opp = {
  pin_ids : int array;  (* interesting blocks this opportunity pins *)
  ww_ids : int array;   (* interesting blocks with a W->W source here *)
}

type t = {
  machine : Machine.t;
  base_read : int;   (* bytes, no sharing *)
  base_write : int;  (* bytes, no sharing *)
  (* per interesting block: bytes saved when the block is pinned / W->W'd *)
  pin_read_save : int array;
  pin_write_save : int array;
  ww_save : int array;
  opps : opp array;
  savings : float array;  (* standalone saving of each opportunity, seconds *)
}

let eval t s =
  let nb = Array.length t.pin_read_save in
  let pinned = Bytes.make nb '\000' and wwd = Bytes.make nb '\000' in
  let sr = ref 0 and sw = ref 0 in
  List.iter
    (fun i ->
      let o = t.opps.(i) in
      Array.iter
        (fun b ->
          if Bytes.get pinned b = '\000' then begin
            Bytes.set pinned b '\001';
            sr := !sr + t.pin_read_save.(b);
            sw := !sw + t.pin_write_save.(b)
          end)
        o.pin_ids;
      Array.iter
        (fun b ->
          if Bytes.get wwd b = '\000' then begin
            Bytes.set wwd b '\001';
            sw := !sw + t.ww_save.(b)
          end)
        o.ww_ids)
    s;
  Machine.io_seconds t.machine ~read_bytes:(t.base_read - !sr)
    ~write_bytes:(t.base_write - !sw)

let make ?cache machine (prog : Program.t) ~config ~coaccesses =
  let c =
    match cache with
    | Some c when Cplan.cache_fits c prog ~config -> c
    | _ -> Cplan.cache ~coaccesses prog ~config
  in
  let insts = Cplan.cache_instances c in
  let nb = Cplan.cache_block_count c in
  let name b = (Cplan.cache_block c b).Cplan.array in
  let bytes_of b = Config.block_bytes (Config.layout config (name b)) in
  let intermediate b = Array_info.is_intermediate (Program.find_array prog (name b)) in
  (* Event counts per block id: R = instance-merged reads, W = raw writes,
     and for intermediate blocks K = the writes Plan 0 keeps (below).
     Instances are walked in Plan 0's step order, read off the cache's
     resolved instances. *)
  let reads = Array.make nb 0 and writes = Array.make nb 0 and kept = Array.make nb 0 in
  (* Intermediate blocks whose latest write still awaits its first read. *)
  let pending = Bytes.make nb '\000' in
  Array.iter
    (fun g ->
      let it = insts.(g) in
      Array.iter
        (fun b ->
          reads.(b) <- reads.(b) + 1;
          if Bytes.get pending b = '\001' then begin
            Bytes.set pending b '\000';
            kept.(b) <- kept.(b) + 1
          end)
        it.Cplan.i_reads;
      let ws = it.Cplan.i_writes in
      Array.iter (fun b -> writes.(b) <- writes.(b) + 1) ws;
      Array.iter
        (fun b ->
          (* An instance's reads precede its writes, so a write's segment
             runs from the next instance to the block's next write.  Two
             writes in one instance elide together (the first one's segment
             is empty), so only a lone write can be kept. *)
          if intermediate b then begin
            let k = Array.fold_left (fun k b' -> if b' = b then k + 1 else k) 0 ws in
            Bytes.set pending b (if k = 1 then '\001' else '\000')
          end)
        ws)
    (Cplan.cache_order c prog.Program.original);
  (* Base (sharing-free) volume. *)
  let base_read = ref 0 and base_write = ref 0 in
  for b = 0 to nb - 1 do
    if reads.(b) > 0 then base_read := !base_read + (reads.(b) * bytes_of b);
    if writes.(b) > 0 then
      base_write :=
        !base_write + ((if intermediate b then kept.(b) else writes.(b)) * bytes_of b)
  done;
  (* Per-block saving potentials. *)
  let pin_read_save b =
    max 0 (reads.(b) - (if writes.(b) > 0 then 0 else 1)) * bytes_of b
  in
  let pin_write_save b = if intermediate b then kept.(b) * bytes_of b else 0 in
  let ww_save b =
    if (not (intermediate b)) && writes.(b) > 1 then (writes.(b) - 1) * bytes_of b else 0
  in
  (* Interesting blocks: those some opportunity can actually save on. *)
  let ids = Array.make nb (-1) and n_ids = ref 0 in
  let prs = ref [] and pws = ref [] and wws = ref [] in
  let id_of b =
    if ids.(b) < 0 then begin
      ids.(b) <- !n_ids;
      incr n_ids;
      prs := pin_read_save b :: !prs;
      pws := pin_write_save b :: !pws;
      wws := ww_save b :: !wws
    end;
    ids.(b)
  in
  let opps =
    Array.of_list
      (List.map
         (fun (ca : Coaccess.t) ->
           let pin = ref [] and ww = ref [] in
           Array.iter
             (fun (sg, _dg) ->
               (* Every pair lies in the instance sets; [Cplan.build]
                  rejects a plan realizing one that does not. *)
               if sg >= 0 then begin
                 let b = insts.(sg).Cplan.i_blocks.(ca.Coaccess.src_acc) in
                 match (ca.Coaccess.src_typ, ca.Coaccess.dst_typ) with
                 | Access.Write, Access.Write -> if ww_save b > 0 then ww := id_of b :: !ww
                 | _, Access.Read ->
                     if pin_read_save b > 0 || pin_write_save b > 0 then
                       pin := id_of b :: !pin
                 | Access.Read, Access.Write -> ()
               end)
             (Cplan.cache_pairs c ca);
           let keys l = Array.of_list (List.sort_uniq compare l) in
           { pin_ids = keys !pin; ww_ids = keys !ww })
         coaccesses)
  in
  let arr l = Array.of_list (List.rev l) in
  let pin_read_save = arr !prs
  and pin_write_save = arr !pws
  and ww_save = arr !wws in
  let t =
    { machine; base_read = !base_read; base_write = !base_write; pin_read_save;
      pin_write_save; ww_save; opps; savings = [||] }
  in
  let base = eval t [] in
  let savings =
    Array.init (Array.length opps) (fun i -> base -. eval t [ i ])
  in
  { t with savings }

let base t = eval t []
let saving t i = t.savings.(i)
