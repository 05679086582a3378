(* Static read-ahead schedule extracted from a concrete plan.

   The polyhedral timeline makes prefetching heuristic-free: the plan's step
   array *is* the exact future access sequence, so every [From_disk] read
   can be hinted to the backend ahead of time.  The only subtlety is how
   early a hint may be issued.  An async backend executes its FIFO queue in
   submission order, so a hint enqueued at step [i] for a read at step [t]
   observes exactly the writes enqueued before step [i] — and the engine
   may write the very block the hint targets during [i, t): a [To_disk]
   write at the write step itself, or the dirty flush when the block's
   residency ends (drops happen at the last touch step, pin releases at the
   pin-stop step).  A hint issued before that flush would read stale bytes.

   So each hint carries its [earliest] safe issue step: one past the last
   step before [t] at which the block is touched (read or written — reads
   extend residency and thus possible dirty-flush points too) or has a pin
   interval ending.  Issuing anywhere in [earliest, t) is correct; issuing
   later merely shrinks the overlap.  When the window is empty the read is
   left to demand fetching, which is always correct. *)

(* The target step is the hint's index in [by_target]. *)
type hint = {
  h_block : Cplan.block;
  h_earliest : int;  (* first step at which issuing is safe *)
  mutable h_issued : bool;
}

type t = { by_target : hint list array }

let length t = Array.length t.by_target

let make (plan : Cplan.t) =
  let n = Array.length plan.Cplan.steps in
  (* [floor] maps a block to the earliest safe issue step implied by
     everything at steps processed so far. *)
  let floor : (Cplan.block, int) Hashtbl.t = Hashtbl.create 64 in
  let stops = (Cplan.pin_index plan).Cplan.pin_stop in
  let by_target = Array.make n [] in
  for t = 0 to n - 1 do
    let st = plan.Cplan.steps.(t) in
    let seen = ref [] in
    List.iter
      (fun (_, blk, src) ->
        if src = Cplan.From_disk && not (List.mem blk !seen) then begin
          seen := blk :: !seen;
          let e = Option.value ~default:0 (Hashtbl.find_opt floor blk) in
          if e < t then
            by_target.(t) <-
              { h_block = blk; h_earliest = e; h_issued = false }
              :: by_target.(t)
        end)
      st.Cplan.reads;
    (* This step's accesses and pin releases gate later hints for the same
       block behind this step's enqueued effects. *)
    List.iter (fun (_, blk, _) -> Hashtbl.replace floor blk (t + 1)) st.Cplan.reads;
    List.iter (fun (_, blk, _) -> Hashtbl.replace floor blk (t + 1)) st.Cplan.writes;
    List.iter (fun blk -> Hashtbl.replace floor blk (t + 1)) stops.(t)
  done;
  { by_target }

let issue t ~now ~horizon f =
  let n = Array.length t.by_target in
  let hi = min horizon (n - 1) in
  for s = now to hi do
    List.iter
      (fun h ->
        if (not h.h_issued) && h.h_earliest <= now then begin
          h.h_issued <- true;
          f h.h_block
        end)
      t.by_target.(s)
  done

let hint_count t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.by_target

let hints_at t step =
  List.map (fun h -> (h.h_block, h.h_earliest)) t.by_target.(step)
