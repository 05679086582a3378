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
  h_block : int;  (* block id *)
  h_earliest : int;  (* first step at which issuing is safe *)
  mutable h_issued : bool;
}

type t = { by_target : hint list array }

let length t = Array.length t.by_target

(* One pass over the program: [floor.(id)] is the earliest safe
   issue step implied by the ops seen so far.  A step's reads come before
   its write and pin releases, and its reads are of distinct blocks, so a
   read's hint sees only earlier steps' floors. *)
let of_program (p : Cplan.program) =
  let floor = Array.make (Array.length p.Cplan.blocks) 0 in
  let by_target = Array.make (Array.length p.Cplan.starts - 1) [] in
  let t = ref 0 in
  Array.iter
    (function
      | Cplan.Step_begin i -> t := i
      | Cplan.Read { id; src; _ } ->
          let e = floor.(id) in
          if src = Cplan.From_disk && e < !t then
            by_target.(!t) <-
              { h_block = id; h_earliest = e; h_issued = false }
              :: by_target.(!t);
          floor.(id) <- !t + 1
      | Cplan.Write { id; _ } | Cplan.Unpin id -> floor.(id) <- !t + 1
      | _ -> ())
    p.Cplan.ops;
  { by_target }

let make plan = of_program (Cplan.lower plan)

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

let hints_at t step =
  List.map (fun h -> (h.h_block, h.h_earliest)) t.by_target.(step)
