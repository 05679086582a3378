module Cplan = Riot_plan.Cplan
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store

let stream = "__journal__"
let magic = "RIOTJRN2"
let header_len = 32
let record_hdr_len = 40

(* --- Checksums ----------------------------------------------------------- *)

let mix2 a b =
  let open Int64 in
  let x = logxor (mul a 0x9E3779B97F4A7C15L) (mul b 0xC2B2AE3D27D4EB4FL) in
  logxor x (shift_right_logical x 29)

let mix3 a b c = mix2 (mix2 a b) c

let hash_payload (b : Bytes.t) =
  let n = Bytes.length b in
  let h = ref (Int64.of_int n) in
  let i = ref 0 in
  while !i + 8 <= n do
    h := mix2 !h (Bytes.get_int64_le b !i);
    i := !i + 8
  done;
  while !i < n do
    h := mix2 !h (Int64.of_int (Char.code (Bytes.get b !i)));
    incr i
  done;
  !h

(* Blocks are hashed by their records, so the fingerprint does not depend on
   how the cache numbers them. *)
let fingerprint (plan : Cplan.t) =
  let h = ref 0x52494F5453484152L in
  let add i = h := mix2 !h (Int64.of_int i) in
  let block k = plan.Cplan.blocks.(k) in
  add (Array.length plan.Cplan.steps);
  Array.iter
    (fun (st : Cplan.step) ->
      add (Hashtbl.hash st.Cplan.stmt);
      add (Hashtbl.hash st.Cplan.instance);
      List.iter
        (fun ((_ : Riot_ir.Access.t), k, src) -> add (Hashtbl.hash (block k, src)))
        st.Cplan.reads;
      List.iter
        (fun ((_ : Riot_ir.Access.t), k, dst) -> add (Hashtbl.hash (block k, dst)))
        st.Cplan.writes)
    plan.Cplan.steps;
  List.iter (fun (k, a, b) -> add (Hashtbl.hash (block k, a, b))) plan.Cplan.pins;
  !h

(* --- Static resume analysis ---------------------------------------------- *)

type resume_plan = {
  safe : bool array;
  restart : int array;
  undo : int list array;
}

(* Two passes over the unfused program, with per-block state in arrays by
   id.  Within a step the reads precede the write, so a read's producer is
   its block's latest write at an earlier step, while a write at the read's
   own step counts as at or after it. *)
let of_program (p : Cplan.program) =
  let ops = p.Cplan.ops in
  let n = Array.length p.Cplan.starts - 1 and nb = Array.length p.Cplan.blocks in
  (* Backwards: the first To_disk write of each read's block at or after the
     read's step ([max_int]: none), by op index. *)
  let next_disk = Array.make nb max_int and disk_after = Array.make (Array.length ops) max_int in
  let s = ref n in
  for pc = Array.length ops - 1 downto 0 do
    match ops.(pc) with
    | Cplan.Step_end i -> s := i
    | Cplan.Write { id; dst = Cplan.To_disk } -> next_disk.(id) <- !s
    | Cplan.Read { id; _ } -> disk_after.(pc) <- next_disk.(id)
    | _ -> ()
  done;
  (* Forwards, keeping each block's latest write so far, and collecting per
     read:
     - [elided]: a memory-serviced read of an elided (memory-only) value
       strands it for the restart points in the window [(producer, read]],
       kept as the interval [(producer + 1, read, 0)];
     - [poisoned]: a read takes a disk value for every restart point from
       just past its producer (from 0 if it has none or reads the disk) up
       to the read, and is poisoned by its block's first To_disk write at
       or after the read: [(from, read, write)];
     - [undo], the anti-dependence set: a read at step [s] of a block that
       some step [t >= s] overwrites on disk must journal the block's
       pre-clobber value (a before-image), so a restart below [s] can
       restore what the read saw.  The engine captures the bytes from the
       pool - the block is in memory at the read - so this costs journal
       writes, never extra data-stream I/O. *)
  let producer = Array.make nb (-1) and producer_elided = Array.make nb false in
  let elided = ref [] and poisoned = ref [] and undo = Array.make n [] in
  Array.iteri
    (fun pc -> function
      | Cplan.Step_begin i -> s := i
      | Cplan.Read { id; src; _ } ->
          let s = !s and t = producer.(id) and w = disk_after.(pc) in
          let memory = src = Cplan.From_memory && t >= 0 in
          if memory && producer_elided.(id) then elided := (t + 1, s, 0) :: !elided;
          if w < max_int then begin
            poisoned := ((if memory then t + 1 else 0), s, w) :: !poisoned;
            undo.(s) <- id :: undo.(s)
          end
      | Cplan.Write { id; dst } ->
          producer.(id) <- !s;
          producer_elided.(id) <- dst = Cplan.Elided
      | _ -> ())
    ops;
  (* Restart point for watermark [i]: the latest [r <= i + 1] that no
     elided window [(producer, read]] contains, so every replayed
     memory-serviced read of an elided value re-runs its producer.  One
     coverage sweep marks the contained points, and a prefix scan carries
     the latest free one forward; [0] is never contained. *)
  let covered = Riot_base.Cover.min_cover ~n:(n + 1) !elided in
  let latest = Array.make (n + 1) 0 in
  for r = 1 to n do
    latest.(r) <- (if covered.(r) = 0 then latest.(r - 1) else r)
  done;
  (* A boundary is safe iff no replayed read can observe a "future" disk
     version: a read of [b] at step [s >= restart] that takes its value from
     the disk is poisoned by any To_disk write of [b] at a step [t] with
     [s <= t <= tmax], where [tmax] bounds how far past this watermark the
     crashed incarnation can have run: up to the next safe boundary (beyond
     which the watermark would have advanced).  So boundary [i] is dangerous
     iff the least first write over the poisoned reads whose window contains
     its restart point is at most [tmax].  Computed backwards since [tmax]
     depends on later boundaries.

     Before-image records repair exactly these anti-dependences on resume,
     so every watermark remains recoverable even when no boundary below the
     crash point is safe; the [safe] gating still limits journal records and
     sync barriers to boundaries that need no repair. *)
  let first_disk_write = Riot_base.Cover.min_cover ~n:(n + 1) !poisoned in
  let safe = Array.make n false and restart = Array.make n 0 in
  let ns = ref None in
  for i = n - 1 downto 0 do
    let r = latest.(i + 1) in
    let tmax = match !ns with Some j -> j | None -> n - 1 in
    let danger = first_disk_write.(r) <= tmax in
    safe.(i) <- not danger;
    restart.(i) <- r;
    if not danger then ns := Some i
  done;
  { safe; restart; undo }

let analyze plan = of_program (Cplan.lower plan)

(* --- On-disk journal ------------------------------------------------------ *)

type image = { im_step : int; im_array : string; im_index : int list; im_data : float array }

type recovered = {
  watermark : int;
  nonce : int64;
  records : int;
  bytes : int;
  images : image list;
}

type writer = { backend : Backend.t; nonce : int64; mutable seq : int; mutable off : int }

(* Atomic: journal writers can be created from any domain (the engine has no
   domain affinity even though runs are single-domain today), and a torn
   counter increment could hand two incarnations the same nonce — the exact
   collision the nonce exists to prevent. *)
let nonce_counter = Atomic.make 0

let fresh_nonce () =
  mix2
    (Int64.bits_of_float (Unix.gettimeofday ()))
    (Int64.of_int (Atomic.fetch_and_add nonce_counter 1))

let encode_header ~fingerprint ~nonce =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 fingerprint;
  Bytes.set_int64_le b 16 nonce;
  Bytes.set_int64_le b 24 (mix2 fingerprint nonce);
  b

let kind_step = 0L
let kind_image = 1L

let record_checksum ~nonce ~seq ~kind ~step ~payload =
  mix3
    (mix3 (Int64.of_int seq) kind (Int64.of_int step))
    (mix2 (Int64.of_int (Bytes.length payload)) (hash_payload payload))
    nonce

let encode_record ~nonce ~seq ~kind ~step ~payload =
  let b = Bytes.create (record_hdr_len + Bytes.length payload) in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int64_le b 8 kind;
  Bytes.set_int64_le b 16 (Int64.of_int step);
  Bytes.set_int64_le b 24 (Int64.of_int (Bytes.length payload));
  Bytes.set_int64_le b 32 (record_checksum ~nonce ~seq ~kind ~step ~payload);
  Bytes.blit payload 0 b record_hdr_len (Bytes.length payload);
  b

let encode_image_payload ~array ~index ~(data : float array) =
  let nlen = String.length array in
  let nd = List.length index in
  let len = 8 + nlen + 8 + (8 * nd) + (8 * Array.length data) in
  let b = Bytes.create len in
  Bytes.set_int64_le b 0 (Int64.of_int nlen);
  Bytes.blit_string array 0 b 8 nlen;
  let p = ref (8 + nlen) in
  Bytes.set_int64_le b !p (Int64.of_int nd);
  p := !p + 8;
  List.iter
    (fun v ->
      Bytes.set_int64_le b !p (Int64.of_int v);
      p := !p + 8)
    index;
  Block_store.set_floats b ~off:!p data;
  b

let decode_image_payload ~step (b : Bytes.t) =
  let len = Bytes.length b in
  if len < 16 then None
  else begin
    let nlen = Int64.to_int (Bytes.get_int64_le b 0) in
    if nlen < 0 || 8 + nlen + 8 > len then None
    else begin
      let array = Bytes.sub_string b 8 nlen in
      let nd = Int64.to_int (Bytes.get_int64_le b (8 + nlen)) in
      let base = 8 + nlen + 8 in
      if nd < 0 || nd > 64 || base + (8 * nd) > len then None
      else begin
        let index =
          List.init nd (fun d -> Int64.to_int (Bytes.get_int64_le b (base + (8 * d))))
        in
        let doff = base + (8 * nd) in
        if (len - doff) mod 8 <> 0 then None
        else
          Some
            { im_step = step;
              im_array = array;
              im_index = index;
              im_data = Block_store.get_floats b ~off:doff ((len - doff) / 8) }
      end
    end
  end

let recover backend ~fingerprint:fp =
  let sz = backend.Backend.size ~name:stream in
  if sz < header_len then None
  else begin
    let hdr = backend.Backend.pread ~name:stream ~off:0 ~len:header_len in
    let hfp = Bytes.get_int64_le hdr 8 in
    let nonce = Bytes.get_int64_le hdr 16 in
    let chk = Bytes.get_int64_le hdr 24 in
    if
      Bytes.sub_string hdr 0 8 <> magic
      || chk <> mix2 hfp nonce
      || hfp <> fp
    then None
    else begin
      let watermark = ref (-1) and records = ref 0 in
      let images = ref [] in
      let off = ref header_len in
      let ok = ref true in
      while !ok && !off + record_hdr_len <= sz do
        let h = backend.Backend.pread ~name:stream ~off:!off ~len:record_hdr_len in
        let seq = Bytes.get_int64_le h 0
        and kind = Bytes.get_int64_le h 8
        and step = Int64.to_int (Bytes.get_int64_le h 16)
        and plen = Int64.to_int (Bytes.get_int64_le h 24)
        and chk = Bytes.get_int64_le h 32 in
        if
          seq <> Int64.of_int !records
          || (kind <> kind_step && kind <> kind_image)
          || plen < 0
          || !off + record_hdr_len + plen > sz
        then ok := false
        else begin
          let payload =
            if plen = 0 then Bytes.empty
            else backend.Backend.pread ~name:stream ~off:(!off + record_hdr_len) ~len:plen
          in
          if chk <> record_checksum ~nonce ~seq:!records ~kind ~step ~payload then
            ok := false (* torn or stale tail: stop at the last valid record *)
          else begin
            (if kind = kind_step then watermark := max !watermark step
             else
               match decode_image_payload ~step payload with
               | Some im -> images := im :: !images
               | None -> ());
            incr records;
            off := !off + record_hdr_len + plen
          end
        end
      done;
      Some
        { watermark = !watermark;
          nonce;
          records = !records;
          bytes = !off;
          images = List.rev !images }
    end
  end

let start backend ~fingerprint =
  let nonce = fresh_nonce () in
  backend.Backend.pwrite ~name:stream ~off:0
    ~data:(encode_header ~fingerprint ~nonce);
  backend.Backend.sync ();
  { backend; nonce; seq = 0; off = header_len }

let continuation backend (r : recovered) =
  { backend; nonce = r.nonce; seq = r.records; off = r.bytes }

let append_record (w : writer) ~kind ~step ~payload =
  let data = encode_record ~nonce:w.nonce ~seq:w.seq ~kind ~step ~payload in
  w.backend.Backend.pwrite ~name:stream ~off:w.off ~data;
  w.seq <- w.seq + 1;
  w.off <- w.off + Bytes.length data

let append w ~step =
  append_record w ~kind:kind_step ~step ~payload:Bytes.empty;
  w.backend.Backend.sync ()

let append_image w ~step ~array ~index ~data =
  append_record w ~kind:kind_image ~step
    ~payload:(encode_image_payload ~array ~index ~data)

(* The before-image a resume must restore for [key]: the oldest image at or
   after the restart point.  Any older state a replayed disk read needs is
   either regenerated by a replayed To_disk write, or was captured by an
   earlier (hence preferred) image of the same block. *)
let restore_plan (r : recovered) ~start_step =
  let best = Hashtbl.create 16 in
  List.iter
    (fun im ->
      if im.im_step >= start_step then
        match Hashtbl.find_opt best (im.im_array, im.im_index) with
        | Some prev when prev.im_step <= im.im_step -> ()
        | _ -> Hashtbl.replace best (im.im_array, im.im_index) im)
    r.images;
  Hashtbl.fold (fun _ im acc -> im :: acc) best []
