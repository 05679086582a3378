module Config = Riot_ir.Config

let page_size = 4096

(* Maximum entries per node. A leaf entry is 24 bytes, an internal entry 16;
   64 keeps both well under a page with headers. *)
let max_entries = 64

type node =
  | Leaf of (int * (int * int)) list  (* key -> (payload off, len), sorted *)
  | Internal of int list * int list  (* separator keys; children (len keys+1) *)

type t = {
  backend : Backend.t;
  file : string;
  layout : Config.layout;
  cache : (int, node) Hashtbl.t;
  mutable root : int;
  mutable next_page : int;
}

(* --- Page (de)serialisation ---------------------------------------------- *)

let put_i64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let get_i64 b pos = Int64.to_int (Bytes.get_int64_le b pos)

let encode node =
  let b = Bytes.make page_size '\000' in
  (match node with
  | Leaf entries ->
      Bytes.set b 0 '\000';
      Bytes.set_uint16_le b 1 (List.length entries);
      List.iteri
        (fun i (k, (off, len)) ->
          let base = 3 + (i * 24) in
          put_i64 b base k;
          put_i64 b (base + 8) off;
          put_i64 b (base + 16) len)
        entries
  | Internal (keys, children) ->
      Bytes.set b 0 '\001';
      Bytes.set_uint16_le b 1 (List.length keys);
      List.iteri (fun i k -> put_i64 b (3 + (i * 8)) k) keys;
      let cbase = 3 + (List.length keys * 8) in
      List.iteri (fun i c -> put_i64 b (cbase + (i * 8)) c) children);
  b

let decode b =
  let n = Bytes.get_uint16_le b 1 in
  match Bytes.get b 0 with
  | '\000' ->
      Leaf
        (List.init n (fun i ->
             let base = 3 + (i * 24) in
             (get_i64 b base, (get_i64 b (base + 8), get_i64 b (base + 16)))))
  | _ ->
      let keys = List.init n (fun i -> get_i64 b (3 + (i * 8))) in
      let cbase = 3 + (n * 8) in
      let children = List.init (n + 1) (fun i -> get_i64 b (cbase + (i * 8))) in
      Internal (keys, children)

(* --- Node and meta I/O ---------------------------------------------------- *)

let write_meta t =
  let b = Bytes.make page_size '\000' in
  Bytes.blit_string "LABT" 0 b 0 4;
  put_i64 b 8 t.root;
  put_i64 b 16 t.next_page;
  t.backend.Backend.pwrite ~name:t.file ~off:0 ~data:b

let load_node t id =
  match Hashtbl.find_opt t.cache id with
  | Some n -> n
  | None ->
      let b = t.backend.Backend.pread ~name:t.file ~off:(id * page_size) ~len:page_size in
      let n = decode b in
      Hashtbl.replace t.cache id n;
      n

let store_node t id node =
  Hashtbl.replace t.cache id node;
  t.backend.Backend.pwrite ~name:t.file ~off:(id * page_size) ~data:(encode node)

let alloc_pages t n =
  let id = t.next_page in
  t.next_page <- t.next_page + n;
  id

(* --- Create / open -------------------------------------------------------- *)

let create backend ~name ~layout =
  let file = name ^ ".lab" in
  let existing = backend.Backend.size ~name:file in
  if existing >= page_size then begin
    let b = backend.Backend.pread ~name:file ~off:0 ~len:page_size in
    if Bytes.sub_string b 0 4 <> "LABT" then invalid_arg "Lab_tree: bad magic";
    let t =
      { backend; file; layout; cache = Hashtbl.create 64;
        root = get_i64 b 8; next_page = get_i64 b 16 }
    in
    t
  end
  else begin
    let t =
      { backend; file; layout; cache = Hashtbl.create 64; root = 1; next_page = 2 }
    in
    store_node t t.root (Leaf []);
    write_meta t;
    t
  end

(* --- Lookup ---------------------------------------------------------------- *)

let rec lookup_node t id key =
  match load_node t id with
  | Leaf entries -> List.assoc_opt key entries
  | Internal (keys, children) ->
      let rec pick ks cs =
        match (ks, cs) with
        | [], [ c ] -> c
        | k :: ks', c :: cs' -> if key < k then c else pick ks' cs'
        | _ -> invalid_arg "Lab_tree: malformed internal node"
      in
      lookup_node t (pick keys children) key

let lookup t key = lookup_node t t.root key

(* --- Insert ----------------------------------------------------------------- *)

(* Insert into subtree [id]; returns [Some (sep, right_id)] when the node
   split, with [sep] the smallest key of the right sibling. *)
let rec insert_node t id key value =
  match load_node t id with
  | Leaf entries ->
      let entries =
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          [ (key, value) ]
          (List.remove_assoc key entries)
      in
      if List.length entries <= max_entries then begin
        store_node t id (Leaf entries);
        None
      end
      else begin
        let half = List.length entries / 2 in
        let left = List.filteri (fun i _ -> i < half) entries in
        let right = List.filteri (fun i _ -> i >= half) entries in
        let rid = alloc_pages t 1 in
        store_node t id (Leaf left);
        store_node t rid (Leaf right);
        let sep = match right with (k, _) :: _ -> k | [] -> assert false in
        Some (sep, rid)
      end
  | Internal (keys, children) ->
      let rec pick i ks =
        match ks with
        | [] -> i
        | k :: ks' -> if key < k then i else pick (i + 1) ks'
      in
      let ci = pick 0 keys in
      let child = List.nth children ci in
      (match insert_node t child key value with
      | None -> None
      | Some (sep, rid) ->
          let keys =
            List.filteri (fun i _ -> i < ci) keys
            @ [ sep ]
            @ List.filteri (fun i _ -> i >= ci) keys
          in
          let children =
            List.filteri (fun i _ -> i <= ci) children
            @ [ rid ]
            @ List.filteri (fun i _ -> i > ci) children
          in
          if List.length keys <= max_entries then begin
            store_node t id (Internal (keys, children));
            None
          end
          else begin
            let half = List.length keys / 2 in
            let sep_up = List.nth keys half in
            let lkeys = List.filteri (fun i _ -> i < half) keys in
            let rkeys = List.filteri (fun i _ -> i > half) keys in
            let lchildren = List.filteri (fun i _ -> i <= half) children in
            let rchildren = List.filteri (fun i _ -> i > half) children in
            let rid2 = alloc_pages t 1 in
            store_node t id (Internal (lkeys, lchildren));
            store_node t rid2 (Internal (rkeys, rchildren));
            Some (sep_up, rid2)
          end)

let insert t key value =
  match insert_node t t.root key value with
  | None -> ()
  | Some (sep, rid) ->
      let new_root = alloc_pages t 1 in
      store_node t new_root (Internal ([ sep ], [ t.root; rid ]));
      t.root <- new_root;
      write_meta t

(* --- Block interface --------------------------------------------------------- *)

let pages_for len = (len + page_size - 1) / page_size

let read_block t index =
  let key = Daf.linear_index t.layout index in
  let bb = Config.block_bytes t.layout in
  match lookup t key with
  | None -> Bytes.make bb '\000'
  | Some (off, len) ->
      let data = t.backend.Backend.pread ~name:t.file ~off ~len in
      (* [pread] returns a fresh buffer of exactly [len] bytes. *)
      if len = bb then data
      else if len > bb then Bytes.sub data 0 bb
      else begin
        let out = Bytes.make bb '\000' in
        Bytes.blit data 0 out 0 len;
        out
      end

let write_block t index data =
  let bb = Config.block_bytes t.layout in
  if Bytes.length data <> bb then invalid_arg "Lab_tree: payload size mismatch";
  let key = Daf.linear_index t.layout index in
  match lookup t key with
  | Some (off, _) -> t.backend.Backend.pwrite ~name:t.file ~off ~data
  | None ->
      let pages = pages_for bb in
      let page = alloc_pages t pages in
      let off = page * page_size in
      t.backend.Backend.pwrite ~name:t.file ~off ~data;
      insert t key (off, bb);
      write_meta t

(* A hint must carry the exact (off, len) the demand read will use, which
   for a LAB-tree is the stored extent, not the block size — so resolve the
   key first (node pages come from the cache or ordinary blocking reads).
   An absent key reads as zeroes without touching the backend, so there is
   nothing to prefetch. *)
let prefetch t index =
  let key = Daf.linear_index t.layout index in
  match lookup t key with
  | None -> ()
  | Some (off, len) -> t.backend.Backend.prefetch ~name:t.file ~off ~len

let touch_read t index =
  let key = Daf.linear_index t.layout index in
  let bb = Config.block_bytes t.layout in
  match lookup t key with
  | None -> ()
  | Some (off, len) -> t.backend.Backend.read_discard ~name:t.file ~off ~len:(min len bb)

let touch_write t index =
  let bb = Config.block_bytes t.layout in
  let key = Daf.linear_index t.layout index in
  match lookup t key with
  | Some (off, _) -> t.backend.Backend.write_discard ~name:t.file ~off ~len:bb
  | None ->
      let pages = pages_for bb in
      let page = alloc_pages t pages in
      let off = page * page_size in
      t.backend.Backend.write_discard ~name:t.file ~off ~len:bb;
      insert t key (off, bb);
      write_meta t

let rec count_node t id =
  match load_node t id with
  | Leaf entries -> List.length entries
  | Internal (_, children) -> List.fold_left (fun acc c -> acc + count_node t c) 0 children

let block_count t = count_node t t.root

let rec depth_node t id =
  match load_node t id with
  | Leaf _ -> 1
  | Internal (_, c :: _) -> 1 + depth_node t c
  | Internal (_, []) -> 1

let depth t = depth_node t t.root
let file_name t = t.file
