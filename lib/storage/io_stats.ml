(* Request sizes are bucketed by power of two: bucket i counts requests with
   2^i <= len < 2^(i+1) (len = 0 lands in bucket 0). 63 buckets cover every
   OCaml int. *)
let hist_buckets = 63

let bucket_of len =
  if len <= 0 then 0
  else begin
    let b = ref 0 and v = ref len in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

type stream = {
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_bytes_read : int;
  mutable s_bytes_written : int;
  mutable s_retries : int;
  s_read_hist : int array;
  s_write_hist : int array;
}

type counts = {
  c_reads : int;
  c_writes : int;
  c_bytes_read : int;
  c_bytes_written : int;
}

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable virtual_time : float;
  streams : (string, stream) Hashtbl.t;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable pool_evictions : int;
  mutable pool_flushes : int;
  mutable retries : int;
  mutable faults_injected : int;
}

let create () =
  { reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    virtual_time = 0.;
    streams = Hashtbl.create 8;
    pool_hits = 0;
    pool_misses = 0;
    pool_evictions = 0;
    pool_flushes = 0;
    retries = 0;
    faults_injected = 0 }

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  t.virtual_time <- 0.;
  Hashtbl.reset t.streams;
  t.pool_hits <- 0;
  t.pool_misses <- 0;
  t.pool_evictions <- 0;
  t.pool_flushes <- 0;
  t.retries <- 0;
  t.faults_injected <- 0

let stream_of t name =
  match Hashtbl.find_opt t.streams name with
  | Some s -> s
  | None ->
      let s =
        { s_reads = 0;
          s_writes = 0;
          s_bytes_read = 0;
          s_bytes_written = 0;
          s_retries = 0;
          s_read_hist = Array.make hist_buckets 0;
          s_write_hist = Array.make hist_buckets 0 }
      in
      Hashtbl.add t.streams name s;
      s

let add_read ?stream t n =
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + n;
  match stream with
  | None -> ()
  | Some name ->
      let s = stream_of t name in
      s.s_reads <- s.s_reads + 1;
      s.s_bytes_read <- s.s_bytes_read + n;
      let b = bucket_of n in
      s.s_read_hist.(b) <- s.s_read_hist.(b) + 1

let add_write ?stream t n =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + n;
  match stream with
  | None -> ()
  | Some name ->
      let s = stream_of t name in
      s.s_writes <- s.s_writes + 1;
      s.s_bytes_written <- s.s_bytes_written + n;
      let b = bucket_of n in
      s.s_write_hist.(b) <- s.s_write_hist.(b) + 1

let add_retry ?stream t =
  t.retries <- t.retries + 1;
  match stream with
  | None -> ()
  | Some name ->
      let s = stream_of t name in
      s.s_retries <- s.s_retries + 1

let add_fault t = t.faults_injected <- t.faults_injected + 1

let stream_retries t name =
  match Hashtbl.find_opt t.streams name with Some s -> s.s_retries | None -> 0

let pool_hit t = t.pool_hits <- t.pool_hits + 1
let pool_miss t = t.pool_misses <- t.pool_misses + 1
let pool_eviction t = t.pool_evictions <- t.pool_evictions + 1
let pool_flush t = t.pool_flushes <- t.pool_flushes + 1

let counts_of_stream s =
  { c_reads = s.s_reads;
    c_writes = s.s_writes;
    c_bytes_read = s.s_bytes_read;
    c_bytes_written = s.s_bytes_written }

let zero_counts = { c_reads = 0; c_writes = 0; c_bytes_read = 0; c_bytes_written = 0 }

let stream_counts t =
  Hashtbl.fold (fun name s acc -> (name, counts_of_stream s) :: acc) t.streams []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counts_delta ~before ~after =
  let sub a b =
    { c_reads = a.c_reads - b.c_reads;
      c_writes = a.c_writes - b.c_writes;
      c_bytes_read = a.c_bytes_read - b.c_bytes_read;
      c_bytes_written = a.c_bytes_written - b.c_bytes_written }
  in
  List.map
    (fun (name, a) ->
      let b = Option.value ~default:zero_counts (List.assoc_opt name before) in
      (name, sub a b))
    after

let nonzero_hist h =
  let out = ref [] in
  for i = hist_buckets - 1 downto 0 do
    if h.(i) > 0 then out := (1 lsl i, h.(i)) :: !out
  done;
  !out

let stream_read_hist t name =
  match Hashtbl.find_opt t.streams name with
  | None -> []
  | Some s -> nonzero_hist s.s_read_hist

let pp ppf t =
  Format.fprintf ppf "reads=%d (%.1f MB) writes=%d (%.1f MB) vtime=%.2fs" t.reads
    (float_of_int t.bytes_read /. 1048576.)
    t.writes
    (float_of_int t.bytes_written /. 1048576.)
    t.virtual_time;
  if t.pool_hits + t.pool_misses + t.pool_evictions + t.pool_flushes > 0 then
    Format.fprintf ppf " pool[hit=%d miss=%d evict=%d flush=%d]" t.pool_hits
      t.pool_misses t.pool_evictions t.pool_flushes;
  if t.retries + t.faults_injected > 0 then
    Format.fprintf ppf " faults[injected=%d retries=%d]" t.faults_injected
      t.retries
