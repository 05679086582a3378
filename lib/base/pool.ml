let default_jobs () =
  match Sys.getenv_opt "RIOT_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
  | None -> Domain.recommended_domain_count ()

(* Workers block on [work_ready] until a new batch (higher epoch) appears,
   join it by counting themselves into [active] under [m], run its
   chunk-runner to exhaustion, then report in on [batch_done].  The caller
   closes the batch ([batch <- None], under [m]) as soon as its own runner
   returns, which is when every item has been claimed; it then waits only
   for the workers that joined, and a worker that arrives later skips the
   closed batch.  A batch's chunk-runner owns all per-batch state (atomic
   item counter, result slots, first-exception slot), so the pool itself
   carries no per-item state.  [epoch] and [active] change only under [m],
   but are atomics so that the spin phases below may read them without
   it. *)
type t = {
  size : int;
  m : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable batch : (unit -> unit) option;
  epoch : int Atomic.t;
  active : int Atomic.t;  (* workers that joined the current batch and are still in it *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  spin : bool;
}

let jobs t = t.size

(* In a spinning pool a domain spins for up to [spin_seconds] watching for
   what it waits for before it blocks on a condition.  Batches that follow
   each other closely (the executor's gemm calls, a fraction of a
   millisecond apart) then find the worker awake on its own core.  A worker
   woken from sleep is often placed by the OS on the waking domain's core,
   where it runs only after that domain blocks, so the batch runs
   serially. *)
let spin_seconds = 2e-3

let spin_until t ready =
  if t.spin && not (ready ()) then begin
    let t0 = Unix.gettimeofday () in
    while (not (ready ())) && Unix.gettimeofday () -. t0 < spin_seconds do
      Domain.cpu_relax ()
    done
  end

let worker t =
  let last_epoch = ref 0 in
  let rec loop () =
    spin_until t (fun () -> Atomic.get t.epoch <> !last_epoch);
    Mutex.lock t.m;
    while (not t.stop) && Atomic.get t.epoch = !last_epoch do
      Condition.wait t.work_ready t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      last_epoch := Atomic.get t.epoch;
      match t.batch with
      | None ->
          (* Closed before this worker got here: the caller ran it. *)
          Mutex.unlock t.m;
          loop ()
      | Some run ->
          Atomic.incr t.active;
          Mutex.unlock t.m;
          (* Chunk-runners never raise: item exceptions are captured per batch. *)
          run ();
          Mutex.lock t.m;
          Atomic.decr t.active;
          if Atomic.get t.active = 0 then Condition.broadcast t.batch_done;
          Mutex.unlock t.m;
          loop ()
    end
  in
  loop ()

(* Every worker domain any pool has spawned, for tests that assert a code
   path spawned none. *)
let spawned_total = Atomic.make 0
let spawned () = Atomic.get spawned_total

let create ?jobs ?(spin = false) () =
  let size = match jobs with Some j -> j | None -> default_jobs () in
  if size < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    { size;
      m = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
      epoch = Atomic.make 0;
      active = Atomic.make 0;
      stop = false;
      workers = [];
      spin }
  in
  t.workers <-
    List.init (size - 1) (fun _ ->
        Atomic.incr spawned_total;
        Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  (* Also ends a worker's spin at once. *)
  Atomic.incr t.epoch;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  if not already then List.iter Domain.join t.workers

let with_pool ?jobs ?spin f =
  let t = create ?jobs ?spin () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body i] for every [i < n] across the pool; [body] must not raise.

   The index space is split into one contiguous chunk per pool member, so a
   whole level of work is dispatched once per domain instead of contending on
   a single shared counter item by item.  Each member drains its own chunk
   from the front ([pos], an atomic only it advances on the fast path) and,
   once empty, turns thief: it steals single items from the BACK of the
   fullest surviving chunk ([lim] counts down), deque-style, so ragged chunks
   — a few pathologically slow candidates — cannot idle the other domains.
   The owner/thief race on a chunk's last items is resolved by a per-item
   claim flag (one CAS per item, uncontended except at chunk boundaries):
   whoever wins the CAS runs the item, so every item runs exactly once.  A
   final sweep over the claim flags before a member retires closes the
   owner-stopped/thief-skipped window where pos and lim cross concurrently;
   it almost always finds nothing. *)
let run_batch t ~n body =
  let seq () = for i = 0 to n - 1 do body i done in
  let chunks = min t.size n in
  let chunk_lo = Array.init chunks (fun c -> c * n / chunks) in
  let chunk_hi = Array.init chunks (fun c -> (c + 1) * n / chunks) in
  let pos = Array.init chunks (fun c -> Atomic.make chunk_lo.(c)) in
  let lim = Array.init chunks (fun c -> Atomic.make chunk_hi.(c)) in
  let claimed = Array.init n (fun _ -> Atomic.make false) in
  let run i = if Atomic.compare_and_set claimed.(i) false true then body i in
  let drain c =
    let rec go () =
      let i = Atomic.fetch_and_add pos.(c) 1 in
      (* [i <= lim] deliberately overlaps the thief by one item at the
         boundary; the claim flag arbitrates. *)
      if i < chunk_hi.(c) && i <= Atomic.get lim.(c) then begin
        run i;
        go ()
      end
    in
    go ()
  in
  let steal_from v =
    let rec go () =
      let i = Atomic.fetch_and_add lim.(v) (-1) - 1 in
      if i >= chunk_lo.(v) && i >= Atomic.get pos.(v) - 1 then begin
        run i;
        go ()
      end
    in
    go ()
  in
  let widx = Atomic.make 0 in
  let runner () =
    (* Per-batch worker numbering: the calling domain and the spawned domains
       each grab a distinct starting chunk; with chunks <= t.size every chunk
       gets exactly one owner (extra members, if n < size, start as thieves of
       chunk 0 — the claim flags make any assignment correct). *)
    let start = Atomic.fetch_and_add widx 1 mod chunks in
    drain start;
    for k = 1 to chunks - 1 do
      let v = (start + k) mod chunks in
      drain v;
      steal_from v
    done;
    (* Completeness sweep: claim flags are the ground truth. *)
    for i = 0 to n - 1 do
      if not (Atomic.get claimed.(i)) then run i
    done
  in
  if t.size = 1 || n <= 1 then seq ()
  else begin
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool: used after shutdown"
    end;
    t.batch <- Some runner;
    Atomic.incr t.epoch;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    runner ();
    (* Every item is claimed now.  Close the batch, so a worker that has not
       joined it yet (say, one woken onto this domain's core) never will,
       and wait only for those that did. *)
    Mutex.lock t.m;
    t.batch <- None;
    Mutex.unlock t.m;
    spin_until t (fun () -> Atomic.get t.active = 0);
    Mutex.lock t.m;
    while Atomic.get t.active > 0 do
      Condition.wait t.batch_done t.m
    done;
    Mutex.unlock t.m
  end

(* [body] may raise: the first exception stops further items from starting
   and is re-raised in the caller once the batch has drained. *)
let parallel_for t ~n body =
  if n < 0 then invalid_arg "Pool.parallel_for: negative n";
  if t.size = 1 then
    for i = 0 to n - 1 do
      body i
    done
  else begin
    let failure = Atomic.make None in
    run_batch t ~n (fun i ->
        if Atomic.get failure = None then
          try body i
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt))));
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure)
  end

let map_array t f xs =
  let results = Array.make (Array.length xs) None in
  parallel_for t ~n:(Array.length xs) (fun i -> results.(i) <- Some (f xs.(i)));
  Array.map Option.get results

let map t f xs =
  if t.size = 1 then List.map f xs
  else Array.to_list (map_array t f (Array.of_list xs))

let filter_map t f xs =
  if t.size = 1 then List.filter_map f xs
  else List.filter_map Fun.id (Array.to_list (map_array t f (Array.of_list xs)))

let parallel_map ?jobs f xs = with_pool ?jobs (fun t -> map t f xs)
let parallel_filter_map ?jobs f xs = with_pool ?jobs (fun t -> filter_map t f xs)
