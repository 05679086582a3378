(* Measurement from outside the libraries: timed spans kept in memory and
   exported as Chrome trace events, and a timing wrapper around a storage
   backend. *)

module Backend = Riot_storage.Backend

let now = Unix.gettimeofday

(* --- Spans ----------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;  (** "<layer>.<what>", e.g. "plan.verify" *)
  parent : int;  (** -1 for a job's root span *)
  job : int;
  start : float;
  stop : float;
}

type recorder = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable current : int;  (** job id given to new spans *)
}

let recorder () = { spans = []; next_id = 0; stack = []; current = 0 }

(* Time [f] as a span nested in the innermost open one.  Spans are only
   opened from the benchmark's own domain. *)
let span r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let start = now () in
  let finish () =
    r.spans <- { id; name; parent; job = r.current; start; stop = now () } :: r.spans;
    r.stack <- List.tl r.stack
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* A span measured elsewhere (e.g. time blocked in storage calls summed by a
   backend wrapper), attached under [parent] for the self-time table. *)
let add_child r ~parent name ~seconds =
  let p = List.find (fun s -> s.id = parent) r.spans in
  let id = r.next_id in
  r.next_id <- id + 1;
  r.spans <-
    { id; name; parent; job = p.job; start = p.start; stop = p.start +. seconds }
    :: r.spans

let duration s = s.stop -. s.start

let last_id r = match r.spans with s :: _ -> s.id | [] -> invalid_arg "no span"

(* Summed duration of the spans called [name] in one job. *)
let total r ~job name =
  List.fold_left
    (fun acc s -> if s.job = job && s.name = name then acc +. duration s else acc)
    0. r.spans

let calls r ~job name =
  List.length (List.filter (fun s -> s.job = job && s.name = name) r.spans)

(* Self time of every span of one job: its duration minus its children's. *)
let self_times r ~job =
  let spans = List.filter (fun (s : span) -> s.job = job) r.spans in
  List.map
    (fun s ->
      let children =
        List.fold_left
          (fun acc c -> if c.parent = s.id then acc +. duration c else acc)
          0. spans
      in
      (s.name, duration s -. children))
    spans

(* Chrome trace-event JSON ("X" complete events, microseconds): opens in
   chrome://tracing, Perfetto and speedscope.  A span added by [add_child]
   sits at its parent's start with its summed length. *)
let write_chrome r path =
  let oc = open_out path in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity r.spans in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name
        (match String.index_opt s.name '.' with
        | Some k -> String.sub s.name 0 k
        | None -> s.name)
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.job)
    (List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) r.spans);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* --- Timed backend --------------------------------------------------------- *)

type io_time = {
  mutable wait : float;  (** seconds inside any call *)
  mutable read_wait : float;  (** seconds inside [pread]/[read_discard] *)
  mutable sync_wait : float;  (** seconds inside [sync] *)
  mutable hints : int;  (** [prefetch] calls *)
}

let io_time () = { wait = 0.; read_wait = 0.; sync_wait = 0.; hints = 0 }

(* [timed t b]: [b] with every call's wall time added to [t].  Shares [b]'s
   stats, so engine results and per-array counters are unchanged.  A
   wrapper must only be called from one domain (the async tier calls its
   inner backend from its I/O domain only). *)
let timed t (b : Backend.t) =
  let clock slot f =
    let t0 = now () in
    let v = f () in
    let d = now () -. t0 in
    t.wait <- t.wait +. d;
    (match slot with
    | `Read -> t.read_wait <- t.read_wait +. d
    | `Sync -> t.sync_wait <- t.sync_wait +. d
    | `Other -> ());
    v
  in
  { b with
    Backend.pread = (fun ~name ~off ~len -> clock `Read (fun () -> b.Backend.pread ~name ~off ~len));
    pwrite = (fun ~name ~off ~data -> clock `Other (fun () -> b.Backend.pwrite ~name ~off ~data));
    read_discard =
      (fun ~name ~off ~len -> clock `Read (fun () -> b.Backend.read_discard ~name ~off ~len));
    write_discard =
      (fun ~name ~off ~len -> clock `Other (fun () -> b.Backend.write_discard ~name ~off ~len));
    prefetch =
      (fun ~name ~off ~len ->
        t.hints <- t.hints + 1;
        clock `Other (fun () -> b.Backend.prefetch ~name ~off ~len));
    size = (fun ~name -> clock `Other (fun () -> b.Backend.size ~name));
    sync = (fun () -> clock `Sync b.Backend.sync) }

(* --- Process memory -------------------------------------------------------- *)

(* High-water resident set size (VmHWM) in bytes, 0 where /proc is absent. *)
let rss_peak_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> kb * 1024)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v
