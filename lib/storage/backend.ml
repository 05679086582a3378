type io_op = Read | Write | Sync

let op_name = function Read -> "read" | Write -> "write" | Sync -> "sync"

exception
  Io_error of {
    op : io_op;
    stream : string;
    off : int;
    len : int;
    transient : bool;
  }

exception Crash of { op : io_op; stream : string }

let () =
  Printexc.register_printer (function
    | Io_error { op; stream; off; len; transient } ->
        Some
          (Printf.sprintf "Backend.Io_error(%s %S off=%d len=%d %s)"
             (op_name op) stream off len
             (if transient then "transient" else "fatal"))
    | Crash { op; stream } ->
        Some (Printf.sprintf "Backend.Crash(%s %S)" (op_name op) stream)
    | _ -> None)

type t = {
  pread : name:string -> off:int -> len:int -> bytes;
  pwrite : name:string -> off:int -> data:bytes -> unit;
  read_discard : name:string -> off:int -> len:int -> unit;
  write_discard : name:string -> off:int -> len:int -> unit;
  prefetch : name:string -> off:int -> len:int -> unit;
  size : name:string -> int;
  sync : unit -> unit;
  close : unit -> unit;
  stats : Io_stats.t;
}

(* Synchronous backends have nothing useful to do with a read-ahead hint:
   performing the read now would just move the same blocking I/O earlier. *)
let noop_prefetch ~name:_ ~off:_ ~len:_ = ()

(* --- File backend -------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file ~root =
  mkdir_p root;
  let stats = Io_stats.create () in
  let fds : (string, Unix.file_descr) Hashtbl.t = Hashtbl.create 8 in
  let fd_of name =
    match Hashtbl.find_opt fds name with
    | Some fd -> fd
    | None ->
        let path = Filename.concat root name in
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
        Hashtbl.add fds name fd;
        fd
  in
  let pread ~name ~off ~len =
    let fd = fd_of name in
    let buf = Bytes.create len in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let rec fill pos =
      if pos < len then begin
        let n = Unix.read fd buf pos (len - pos) in
        if n = 0 then pos else fill (pos + n)
      end
      else pos
    in
    let moved = fill 0 in
    (* Reading past EOF yields zeroes: only the unread suffix needs them. *)
    Bytes.fill buf moved (len - moved) '\000';
    (* Account the bytes the disk actually served: the zero-filled suffix of
       an EOF-short read never moved, and counting it would overstate
       measured I/O relative to the cost model (see backend.mli). *)
    Io_stats.add_read ~stream:name stats moved;
    buf
  in
  let pwrite ~name ~off ~data =
    let fd = fd_of name in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let len = Bytes.length data in
    let rec drain pos =
      if pos < len then begin
        let n = Unix.write fd data pos (len - pos) in
        drain (pos + n)
      end
    in
    drain 0;
    Io_stats.add_write ~stream:name stats len
  in
  (* The read scratch is domain-local: once an async wrapper moves I/O onto
     a worker domain, a single shared buffer would be a cross-domain data
     race the moment any other domain also touched this backend. *)
  let scratch_key = Domain.DLS.new_key (fun () -> Bytes.create 65536) in
  (* [write_discard] must emit zeroes (the documented contract: a discarded
     write behaves like writing [len] zero bytes).  This buffer is created
     zeroed and never written to — sharing the read scratch here would leak
     whatever bytes a previous [read_discard] left behind into real files. *)
  let zeroes = Bytes.make 65536 '\000' in
  let read_discard ~name ~off ~len =
    let fd = fd_of name in
    let scratch = Domain.DLS.get scratch_key in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let rec chew remaining =
      if remaining > 0 then begin
        let n = Unix.read fd scratch 0 (min remaining (Bytes.length scratch)) in
        if n > 0 then chew (remaining - n)
      end
    in
    chew len;
    (* Unlike [pread], account the full requested length: [read_discard] is
       the accounting primitive phantom cost-validation runs issue against
       regions that may never have been materialized, and it models the
       cost of the read, mirroring the sim backend (see backend.mli). *)
    Io_stats.add_read ~stream:name stats len
  in
  let write_discard ~name ~off ~len =
    let fd = fd_of name in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let rec fill remaining =
      if remaining > 0 then begin
        let chunk = min remaining (Bytes.length zeroes) in
        let n = Unix.write fd zeroes 0 chunk in
        fill (remaining - n)
      end
    in
    fill len;
    Io_stats.add_write ~stream:name stats len
  in
  let size ~name = (Unix.fstat (fd_of name)).Unix.st_size in
  let sync () = Hashtbl.iter (fun _ fd -> Unix.fsync fd) fds in
  let close () =
    Hashtbl.iter (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
    Hashtbl.reset fds
  in
  { pread;
    pwrite;
    read_discard;
    write_discard;
    prefetch = noop_prefetch;
    size;
    sync;
    close;
    stats }

(* --- Simulated backend --------------------------------------------------- *)

(* A retained stream: zero-initialised backing bytes grown geometrically,
   with the logical length tracked separately.  Reads blit the requested
   window and writes splice in place, so block I/O costs the block size —
   a [Buffer.t] here would copy the whole stream on every read and rebuild
   it on every mid-stream overwrite, turning dispatch-bound runs
   quadratic in the block count (cpubound exposed this). *)
type sim_stream = { mutable sdata : Bytes.t; mutable slen : int }

let sim ?(retain_data = true) ?(sleep_factor = 0.) ~read_bw ~write_bw
    ~request_overhead () =
  let stats = Io_stats.create () in
  (* With a positive [sleep_factor] every request really blocks the calling
     domain for [virtual delta * factor] wall seconds, turning the virtual
     disk into a physical one at an adjustable speed — the iolap benchmark
     calibrates the factor so simulated I/O and real compute have comparable
     wall cost, then measures how much of it an async wrapper hides. *)
  let charge delta =
    stats.Io_stats.virtual_time <- stats.Io_stats.virtual_time +. delta;
    if sleep_factor > 0. then Unix.sleepf (delta *. sleep_factor)
  in
  (* Each name maps to its current size and, when retaining, its contents. *)
  let sizes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let contents : (string, sim_stream) Hashtbl.t = Hashtbl.create 8 in
  let stream_of name =
    match Hashtbl.find_opt contents name with
    | Some s -> s
    | None ->
        let s = { sdata = Bytes.make 4096 '\000'; slen = 0 } in
        Hashtbl.add contents name s;
        s
  in
  (* Growth keeps the tail zeroed, so a write past [slen] needs no explicit
     gap fill. *)
  let ensure s n =
    if Bytes.length s.sdata < n then begin
      let cap = ref (2 * Bytes.length s.sdata) in
      while !cap < n do
        cap := 2 * !cap
      done;
      let d = Bytes.make !cap '\000' in
      Bytes.blit s.sdata 0 d 0 s.slen;
      s.sdata <- d
    end
  in
  let cur_size name = Option.value ~default:0 (Hashtbl.find_opt sizes name) in
  let pread ~name ~off ~len =
    charge ((float_of_int len /. read_bw) +. request_overhead);
    Io_stats.add_read ~stream:name stats len;
    if retain_data then begin
      let s = stream_of name in
      let out = Bytes.create len in
      let avail = max 0 (min len (s.slen - off)) in
      if avail > 0 then Bytes.blit s.sdata off out 0 avail;
      (* Bytes past the stored length read as zeroes; only they need filling. *)
      Bytes.fill out avail (len - avail) '\000';
      out
    end
    else Bytes.make len '\000'
  in
  let pwrite ~name ~off ~data =
    let len = Bytes.length data in
    charge ((float_of_int len /. write_bw) +. request_overhead);
    Io_stats.add_write ~stream:name stats len;
    Hashtbl.replace sizes name (max (cur_size name) (off + len));
    if retain_data then begin
      let s = stream_of name in
      ensure s (off + len);
      Bytes.blit data 0 s.sdata off len;
      s.slen <- max s.slen (off + len)
    end
  in
  let read_discard ~name ~off ~len =
    ignore off;
    charge ((float_of_int len /. read_bw) +. request_overhead);
    Io_stats.add_read ~stream:name stats len
  in
  let write_discard ~name ~off ~len =
    charge ((float_of_int len /. write_bw) +. request_overhead);
    Io_stats.add_write ~stream:name stats len;
    Hashtbl.replace sizes name (max (cur_size name) (off + len))
  in
  let size ~name = cur_size name in
  let sync () = () in
  let close () =
    Hashtbl.reset sizes;
    Hashtbl.reset contents
  in
  { pread;
    pwrite;
    read_discard;
    write_discard;
    prefetch = noop_prefetch;
    size;
    sync;
    close;
    stats }

(* --- Fault injection ------------------------------------------------------ *)

module Failpoint = Riot_base.Failpoint

let fp_read_error = "backend.read.error"
let fp_read_fatal = "backend.read.fatal"
let fp_read_short = "backend.read.short"
let fp_write_error = "backend.write.error"
let fp_sync_error = "backend.sync.error"
let fp_crash = "backend.crash"

(* Faults are injected BEFORE the inner backend runs, so a failed attempt
   never reaches the inner counters: retried requests are not double-counted
   in bytes-moved totals.  The one exception is the torn prefix of a
   crashing write, which genuinely reaches the disk. *)
let faulty inner =
  let stats = inner.stats in
  let dead = ref false in
  let crashed op stream =
    dead := true;
    Io_stats.add_fault stats;
    raise (Crash { op; stream })
  in
  let check_dead op stream = if !dead then raise (Crash { op; stream }) in
  let fail op stream off len ~transient =
    Io_stats.add_fault stats;
    raise (Io_error { op; stream; off; len; transient })
  in
  let read_faults name off len =
    check_dead Read name;
    if Failpoint.armed () then begin
      if Failpoint.should_fail fp_crash then crashed Read name;
      if Failpoint.should_fail fp_read_error then
        fail Read name off len ~transient:true;
      if Failpoint.should_fail fp_read_fatal then
        fail Read name off len ~transient:false;
      if Failpoint.should_fail fp_read_short then
        (* Only a prefix arrived; report how much so the caller can tell a
           short read from an outright failure.  Clamped to >= 1: at len <= 1
           the naive [len / 2] would report a 0-byte "short read",
           indistinguishable from a total failure. *)
        fail Read name off (max 1 (len / 2)) ~transient:true
    end
  in
  let pread ~name ~off ~len =
    read_faults name off len;
    inner.pread ~name ~off ~len
  in
  let read_discard ~name ~off ~len =
    read_faults name off len;
    inner.read_discard ~name ~off ~len
  in
  let write_faults name off len ~torn =
    check_dead Write name;
    if Failpoint.armed () then begin
      if Failpoint.should_fail fp_crash then begin
        (* A crash mid-write leaves a torn prefix on the disk. *)
        torn ();
        crashed Write name
      end;
      if Failpoint.should_fail fp_write_error then
        fail Write name off len ~transient:true
    end
  in
  let pwrite ~name ~off ~data =
    let torn () =
      let half = Bytes.length data / 2 in
      if half > 0 then inner.pwrite ~name ~off ~data:(Bytes.sub data 0 half)
    in
    write_faults name off (Bytes.length data) ~torn;
    inner.pwrite ~name ~off ~data
  in
  let write_discard ~name ~off ~len =
    let torn () = if len / 2 > 0 then inner.write_discard ~name ~off ~len:(len / 2) in
    write_faults name off len ~torn;
    inner.write_discard ~name ~off ~len
  in
  let size ~name =
    check_dead Read name;
    inner.size ~name
  in
  let sync () =
    check_dead Sync "";
    if Failpoint.armed () then begin
      if Failpoint.should_fail fp_crash then crashed Sync "";
      if Failpoint.should_fail fp_sync_error then fail Sync "" 0 0 ~transient:true
    end;
    inner.sync ()
  in
  let close () = inner.close () in
  { pread;
    pwrite;
    read_discard;
    write_discard;
    prefetch = inner.prefetch;
    size;
    sync;
    close;
    stats }

(* --- Retry with exponential backoff -------------------------------------- *)

type retry_policy = {
  attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  sleep : float -> unit;
}

let default_retry_policy =
  { attempts = 5;
    base_delay = 0.01;
    multiplier = 2.0;
    max_delay = 1.0;
    sleep = (fun d -> if d > 0. then Unix.sleepf d) }

let retrying ?(policy = default_retry_policy) inner =
  let stats = inner.stats in
  let with_retries ?stream f =
    let rec go attempt =
      try f ()
      with Io_error { transient = true; _ } when attempt < policy.attempts ->
        Io_stats.add_retry ?stream stats;
        let d =
          policy.base_delay *. (policy.multiplier ** float_of_int (attempt - 1))
        in
        policy.sleep (Float.min d policy.max_delay);
        go (attempt + 1)
    in
    go 1
  in
  { pread =
      (fun ~name ~off ~len ->
        with_retries ~stream:name (fun () -> inner.pread ~name ~off ~len));
    pwrite =
      (fun ~name ~off ~data ->
        with_retries ~stream:name (fun () -> inner.pwrite ~name ~off ~data));
    read_discard =
      (fun ~name ~off ~len ->
        with_retries ~stream:name (fun () -> inner.read_discard ~name ~off ~len));
    write_discard =
      (fun ~name ~off ~len ->
        with_retries ~stream:name (fun () ->
            inner.write_discard ~name ~off ~len));
    prefetch = inner.prefetch;
    size = inner.size;
    sync = (fun () -> with_retries (fun () -> inner.sync ()));
    close = inner.close;
    stats }

(* --- Asynchronous wrapper: read-ahead + write-behind ---------------------- *)

(* State of one in-flight prefetch.  The table mapping request keys to cells
   lives on the issuing domain only; the cell's [state] is the one word that
   crosses domains, always under [cm]. *)
type fetch_state = Fetching | Fetched of bytes | Fetch_failed of exn

type fetch_cell = { mutable state : fetch_state }

let make_async ?(max_prefetch = 64) inner =
  let q = Io_queue.create () in
  (* Outstanding read-ahead, keyed by the exact (stream, off, len) the
     demand read will use.  Touched only by the issuing domain (hint at
     insert, consuming pread at remove), so no lock guards the table
     itself. *)
  let table : (string * int * int, fetch_cell) Hashtbl.t = Hashtbl.create 32 in
  let cm = Mutex.create () in
  let cv = Condition.create () in
  let prefetch ~name ~off ~len =
    let key = (name, off, len) in
    (* A duplicate hint for an outstanding request is dropped, and so are
       hints beyond the buffer budget: both fall back to an ordinary demand
       read, never to a second physical read. *)
    if (not (Hashtbl.mem table key)) && Hashtbl.length table < max_prefetch
    then begin
      let c = { state = Fetching } in
      Hashtbl.add table key c;
      Io_queue.submit q (fun () ->
          let st =
            try Fetched (inner.pread ~name ~off ~len)
            with e -> Fetch_failed e
          in
          Mutex.lock cm;
          c.state <- st;
          Condition.broadcast cv;
          Mutex.unlock cm)
    end
  in
  let pread ~name ~off ~len =
    let key = (name, off, len) in
    match Hashtbl.find_opt table key with
    | Some c ->
        Hashtbl.remove table key;
        Mutex.lock cm;
        let rec settle () =
          match c.state with
          | Fetching ->
              Condition.wait cv cm;
              settle ()
          | s -> s
        in
        let s = settle () in
        Mutex.unlock cm;
        (match s with
        | Fetched data -> data
        | Fetch_failed e -> raise e
        | Fetching -> assert false)
    | None -> Io_queue.run q (fun () -> inner.pread ~name ~off ~len)
  in
  let pwrite ~name ~off ~data =
    (* Write-behind.  The copy decouples the caller's buffer from the queue:
       the backend contract lets callers reuse [data] as soon as pwrite
       returns. *)
    let data = Bytes.copy data in
    Io_queue.submit q (fun () -> inner.pwrite ~name ~off ~data)
  in
  let read_discard ~name ~off ~len =
    Io_queue.submit q (fun () -> inner.read_discard ~name ~off ~len)
  in
  let write_discard ~name ~off ~len =
    Io_queue.submit q (fun () -> inner.write_discard ~name ~off ~len)
  in
  let size ~name = Io_queue.run q (fun () -> inner.size ~name) in
  (* The group-commit point: a sync drains every queued write (FIFO, so all
     of them precede it) and only then syncs the inner backend.  Journal
     boundaries call this, coalescing all write-behind since the previous
     boundary into one commit. *)
  let sync () = Io_queue.run q (fun () -> inner.sync ()) in
  let close () =
    Io_queue.shutdown q;
    inner.close ()
  in
  ( { pread;
      pwrite;
      read_discard;
      write_discard;
      prefetch;
      size;
      sync;
      close;
      stats = inner.stats },
    q )

let async ?max_prefetch inner = fst (make_async ?max_prefetch inner)

let with_async ?max_prefetch inner f =
  let b, q = make_async ?max_prefetch inner in
  match f b with
  | v ->
      Io_queue.shutdown q;
      v
  | exception e ->
      (* Drain and join so no job races the caller's recovery, but let the
         original failure win over any parked write-behind error (after a
         simulated crash every queued job fails with [Crash] too). *)
      (try Io_queue.shutdown q with _ -> ());
      raise e
