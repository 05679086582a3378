type key = string * int list

type buffer = {
  data : float array;
  bytes : int;
  store : Block_store.t;
  index : int list;
  bkey : key;
  mutable dirty : bool;
  mutable pins : int;
  (* Intrusive doubly-linked recency list: [prev] is toward the LRU end,
     [next] toward the MRU end.  A resident buffer is always linked. *)
  mutable prev : buffer option;
  mutable next : buffer option;
}

type t = {
  cap : int;
  phantom : bool;
  buffers : (key, buffer) Hashtbl.t;
  mutable used : int;
  mutable peak : int;
  mutable lru : buffer option;  (** least recently used end *)
  mutable mru : buffer option;  (** most recently used end *)
  stats : Io_stats.t option;
  on_evict : (key -> dirty:bool -> unit) option;
}

exception Insufficient_memory of string

let create ?(phantom = false) ?stats ?on_evict ~cap_bytes () =
  { cap = cap_bytes;
    phantom;
    buffers = Hashtbl.create 64;
    used = 0;
    peak = 0;
    lru = None;
    mru = None;
    stats;
    on_evict }

(* --- Recency list ---------------------------------------------------------- *)

let unlink t b =
  (match b.prev with Some p -> p.next <- b.next | None -> t.lru <- b.next);
  (match b.next with Some n -> n.prev <- b.prev | None -> t.mru <- b.prev);
  b.prev <- None;
  b.next <- None

let push_mru t b =
  b.prev <- t.mru;
  b.next <- None;
  (match t.mru with Some m -> m.next <- Some b | None -> t.lru <- Some b);
  t.mru <- Some b

let touch t b =
  match t.mru with
  | Some m when m == b -> ()
  | _ ->
      unlink t b;
      push_mru t b

let lru_keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some b -> go (b.bkey :: acc) b.next
  in
  go [] t.lru

(* --- Residency ------------------------------------------------------------- *)

let key_of store index = (Block_store.name store, index)

let stat t f = match t.stats with Some s -> f s | None -> ()

let flush_buffer t b =
  if b.dirty then begin
    if t.phantom then Block_store.touch_write b.store b.index
    else Block_store.write_floats b.store b.index b.data;
    b.dirty <- false;
    stat t Io_stats.pool_flush
  end

let remove t b =
  unlink t b;
  Hashtbl.remove t.buffers b.bkey;
  t.used <- t.used - b.bytes

let evict_one t =
  (* LRU among unpinned: first unpinned buffer from the cold end. *)
  let rec victim = function
    | None -> None
    | Some b when b.pins = 0 -> Some b
    | Some b -> victim b.next
  in
  match victim t.lru with
  | None -> false
  | Some b ->
      let dirty = b.dirty in
      flush_buffer t b;
      remove t b;
      stat t Io_stats.pool_eviction;
      (match t.on_evict with Some f -> f b.bkey ~dirty | None -> ());
      true

let make_room t need =
  let rec go () =
    if t.used + need <= t.cap then ()
    else if evict_one t then go ()
    else
      raise
        (Insufficient_memory
           (Printf.sprintf "need %d bytes, %d used of %d cap, all pinned" need t.used t.cap))
  in
  go ()

let install t store index data =
  let bytes = Block_store.block_bytes store in
  make_room t bytes;
  let b =
    { data;
      bytes;
      store;
      index;
      bkey = key_of store index;
      dirty = false;
      pins = 0;
      prev = None;
      next = None }
  in
  Hashtbl.replace t.buffers b.bkey b;
  push_mru t b;
  t.used <- t.used + bytes;
  if t.used > t.peak then t.peak <- t.used;
  b

let get_gen ~load t store index =
  match Hashtbl.find_opt t.buffers (key_of store index) with
  | Some b ->
      touch t b;
      stat t Io_stats.pool_hit;
      b.data
  | None ->
      stat t Io_stats.pool_miss;
      let data =
        if t.phantom then begin
          if load then Block_store.touch_read store index;
          [||]
        end
        else if load then Block_store.read_floats store index
        else Array.make (Block_store.block_bytes store / 8) 0.
      in
      (install t store index data).data

let get t store index = get_gen ~load:true t store index
let get_for_write t store index = get_gen ~load:false t store index
let contains t k = Hashtbl.mem t.buffers k

let pin t k =
  match Hashtbl.find_opt t.buffers k with
  | Some b -> b.pins <- b.pins + 1
  | None -> invalid_arg "Buffer_pool.pin: block not resident"

let unpin t k =
  match Hashtbl.find_opt t.buffers k with
  | Some b -> if b.pins > 0 then b.pins <- b.pins - 1
  | None -> ()

let mark_dirty t k =
  match Hashtbl.find_opt t.buffers k with
  | Some b -> b.dirty <- true
  | None -> invalid_arg "Buffer_pool.mark_dirty: block not resident"

(* Writes unconditionally — callers (journalled and opportunistic runs) use
   it to force the block to disk whether or not anyone called [mark_dirty] —
   but routes through [flush_buffer] so the flush is counted in pool stats
   exactly like an eviction- or drop-driven one. *)
let write_through t store index =
  match Hashtbl.find_opt t.buffers (key_of store index) with
  | Some b ->
      b.dirty <- true;
      flush_buffer t b
  | None -> invalid_arg "Buffer_pool.write_through: block not resident"

let drop t k =
  match Hashtbl.find_opt t.buffers k with
  | Some b when b.pins = 0 -> remove t b
  | _ -> ()

let pin_count t k =
  match Hashtbl.find_opt t.buffers k with Some b -> b.pins | None -> 0

let used_bytes t = t.used
let peak_bytes t = t.peak
