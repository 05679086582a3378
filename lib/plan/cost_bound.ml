module Poly = Riot_poly.Poly
module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Stmt = Riot_ir.Stmt
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

type blk = string * int list

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

let lookup_in inst params n =
  match List.assoc_opt n inst with Some v -> v | None -> List.assoc n params

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
  let params = config.Config.params in
  let c =
    match cache with
    | Some c when Cplan.cache_params c = params -> c
    | _ -> Cplan.cache ~coaccesses prog ~config
  in
  let bytes_of name = Config.block_bytes (Config.layout config name) in
  let intermediate name =
    Array_info.is_intermediate (Program.find_array prog name)
  in
  (* Event counts per block: R = instance-merged reads, W = raw writes, and
     for intermediate blocks K = the writes Plan 0 keeps (below).  Instances
     are walked in the original schedule's order, ties broken by statement
     order, exactly as [Cplan.build] orders Plan 0's steps. *)
  let reads : (blk, int) Hashtbl.t = Hashtbl.create 256 in
  let writes : (blk, int) Hashtbl.t = Hashtbl.create 256 in
  let kept : (blk, int) Hashtbl.t = Hashtbl.create 64 in
  (* Intermediate blocks whose latest write still awaits its first read. *)
  let pending : (blk, unit) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl b = Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)) in
  let events =
    List.stable_sort
      (fun (_, _, t1) (_, _, t2) -> Riot_ir.Sched.lex_compare t1 t2)
      (List.concat_map
         (fun (s : Stmt.t) ->
           let rows = Riot_ir.Sched.find prog.Program.original s.Stmt.name in
           List.map
             (fun inst ->
               (s, inst, Riot_ir.Sched.time_of rows (lookup_in inst params)))
             (List.assoc s.Stmt.name (Cplan.cache_instances c)))
         prog.Program.stmts)
  in
  List.iter
    (fun ((s : Stmt.t), inst, _) ->
      let active =
        List.filter_map
          (fun (a : Access.t) ->
            let act =
              match a.Access.restrict_to with
              | None -> true
              | Some r -> Poly.mem r (lookup_in inst params)
            in
            if act then
              Some
                ( a,
                  (a.Access.array,
                   Array.to_list (Access.block_of a (lookup_in inst params))) )
            else None)
          s.Stmt.accesses
      in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun ((a : Access.t), b) ->
          if Access.is_read a && not (Hashtbl.mem seen b) then begin
            Hashtbl.add seen b ();
            bump reads b;
            if Hashtbl.mem pending b then begin
              Hashtbl.remove pending b;
              bump kept b
            end
          end)
        active;
      let written = Hashtbl.create 4 in
      List.iter
        (fun ((a : Access.t), b) -> if Access.is_write a then bump written b)
        active;
      Hashtbl.iter
        (fun ((name, _) as b) k ->
          Hashtbl.replace writes b (k + Option.value ~default:0 (Hashtbl.find_opt writes b));
          (* An instance's reads precede its writes, so a write's segment
             runs from the next instance to the block's next write.  Two
             writes in one instance elide together (the first one's segment
             is empty), so only a lone write can be kept. *)
          if intermediate name then
            if k = 1 then Hashtbl.replace pending b () else Hashtbl.remove pending b)
        written)
    events;
  let r_of b = Option.value ~default:0 (Hashtbl.find_opt reads b) in
  let w_of b = Option.value ~default:0 (Hashtbl.find_opt writes b) in
  let k_of b = Option.value ~default:0 (Hashtbl.find_opt kept b) in
  (* Base (sharing-free) volume. *)
  let base_read = Hashtbl.fold (fun (a, _) n acc -> acc + (n * bytes_of a)) reads 0 in
  let base_write =
    let keep (a, _ as b) n = if intermediate a then k_of b else n in
    Hashtbl.fold (fun (a, _ as b) n acc -> acc + (keep b n * bytes_of a)) writes 0
  in
  (* Per-block saving potentials. *)
  let pin_read_save b =
    let (a, _) = b in
    max 0 (r_of b - (if w_of b > 0 then 0 else 1)) * bytes_of a
  in
  let pin_write_save b =
    let (a, _) = b in
    if intermediate a then k_of b * bytes_of a else 0
  in
  let ww_save b =
    let (a, _) = b in
    if (not (intermediate a)) && w_of b > 1 then (w_of b - 1) * bytes_of a else 0
  in
  (* Interesting blocks: those some opportunity can actually save on. *)
  let ids : (blk, int) Hashtbl.t = Hashtbl.create 64 in
  let prs = ref [] and pws = ref [] and wws = ref [] in
  let id_of b =
    match Hashtbl.find_opt ids b with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids b i;
        prs := pin_read_save b :: !prs;
        pws := pin_write_save b :: !pws;
        wws := ww_save b :: !wws;
        i
  in
  let src_block (ca : Coaccess.t) src =
    let s = Program.find_stmt prog ca.Coaccess.src_stmt in
    let acc = List.nth s.Stmt.accesses ca.Coaccess.src_acc in
    (acc.Access.array, Array.to_list (Access.block_of acc (lookup_in src params)))
  in
  let opps =
    Array.of_list
      (List.map
         (fun (ca : Coaccess.t) ->
           let pin = Hashtbl.create 8 and ww = Hashtbl.create 8 in
           List.iter
             (fun (src, _dst) ->
               match (ca.Coaccess.src_typ, ca.Coaccess.dst_typ) with
               | Access.Write, Access.Write ->
                   let b = src_block ca src in
                   if ww_save b > 0 then Hashtbl.replace ww (id_of b) ()
               | _, Access.Read ->
                   let b = src_block ca src in
                   if pin_read_save b > 0 || pin_write_save b > 0 then
                     Hashtbl.replace pin (id_of b) ()
               | Access.Read, Access.Write -> ())
             (Cplan.cache_pairs c ca);
           let keys tbl =
             let a = Array.of_seq (Hashtbl.to_seq_keys tbl) in
             Array.sort compare a;
             a
           in
           { pin_ids = keys pin; ww_ids = keys ww })
         coaccesses)
  in
  let arr l = Array.of_list (List.rev l) in
  let pin_read_save = arr !prs
  and pin_write_save = arr !pws
  and ww_save = arr !wws in
  let t =
    { machine; base_read; base_write; pin_read_save; pin_write_save; ww_save;
      opps; savings = [||] }
  in
  let base = eval t [] in
  let savings =
    Array.init (Array.length opps) (fun i -> base -. eval t [ i ])
  in
  { t with savings }

let base t = eval t []
let saving t i = t.savings.(i)
let n_opportunities t = Array.length t.opps
