(** A memory-capped buffer pool with pinning and LRU replacement.

    The execution engine keeps every block it touches in a pool buffer;
    realized sharing opportunities pin blocks across their reuse interval so
    they cannot be evicted.  Unpinned buffers are evicted LRU - recency is
    kept in an intrusive doubly-linked list, so a hit and an eviction are
    O(1) (an eviction skips any pinned buffers at the cold end) - and dirty
    victims are flushed through their store unless explicitly dropped
    (elided writes of dead intermediate blocks). *)

type t

exception Insufficient_memory of string

val create :
  ?phantom:bool ->
  ?stats:Io_stats.t ->
  ?on_evict:(string * int list -> dirty:bool -> unit) ->
  cap_bytes:int ->
  unit ->
  t
(** With [phantom] (default false) buffers hold no data: reads and writes
    are accounted through the store ([touch_read]/[touch_write]) and memory
    is tracked logically.  Used for full-scale simulated runs where a block
    can be gigabytes.

    [stats] receives the pool's hit/miss/eviction/flush counts (typically
    the backend's [Io_stats.t], so one value aggregates physical and cache
    behaviour).  [on_evict] is called after a buffer has been evicted (and,
    when dirty, flushed) - the execution engine uses it to trace evictions. *)

val get : t -> Block_store.t -> int list -> float array
(** Return the block's buffer, reading through the store when absent
    (counts I/O). @raise Insufficient_memory when the cap cannot be met. *)

val get_for_write : t -> Block_store.t -> int list -> float array
(** Like {!get} but a missing block is allocated zeroed without read I/O. *)

val contains : t -> string * int list -> bool

val pin : t -> string * int list -> unit
(** Pin counts nest. @raise Invalid_argument if the block is not resident. *)

val unpin : t -> string * int list -> unit

val mark_dirty : t -> string * int list -> unit

val write_through : t -> Block_store.t -> int list -> unit
(** Write the buffer to the store now and mark it clean.
    @raise Invalid_argument if absent. *)

val drop : t -> string * int list -> unit
(** Release the block's buffer without flushing.  The caller asserts the
    buffered data is dead: if the buffer is dirty its contents are
    silently discarded (this is the point - an elided write must never
    reach the store), so never call this on a block whose write-back is
    still pending.  No-op if the block is absent or pinned.  A dead block
    (unpinned, every consumer served) is released whether clean (pure
    residency) or dirty (an elided write whose data must never be flushed
    by a later eviction). *)

val pin_count : t -> string * int list -> int

val lru_keys : t -> (string * int list) list
(** Resident blocks in recency order, least recently used first (exposed
    for tests asserting eviction order). *)

val used_bytes : t -> int
val peak_bytes : t -> int
