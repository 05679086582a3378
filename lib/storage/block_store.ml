module Config = Riot_ir.Config

type format = Daf_format | Lab_format
type impl = D of Daf.t | L of Lab_tree.t
type t = { name : string; layout : Config.layout; impl : impl }

let create backend ~format ~name ~layout =
  let impl =
    match format with
    | Daf_format -> D (Daf.create backend ~name ~layout)
    | Lab_format -> L (Lab_tree.create backend ~name ~layout)
  in
  { name; layout; impl }

let name t = t.name
let layout t = t.layout
let block_bytes t = Config.block_bytes t.layout

let read_block t index =
  match t.impl with D d -> Daf.read_block d index | L l -> Lab_tree.read_block l index

let write_block t index data =
  match t.impl with
  | D d -> Daf.write_block d index data
  | L l -> Lab_tree.write_block l index data

let touch_read t index =
  match t.impl with D d -> Daf.touch_read d index | L l -> Lab_tree.touch_read l index

let touch_write t index =
  match t.impl with D d -> Daf.touch_write d index | L l -> Lab_tree.touch_write l index

let prefetch t index =
  match t.impl with D d -> Daf.prefetch d index | L l -> Lab_tree.prefetch l index

external get_floats_unchecked : bytes -> int -> int -> float array
  = "riot_get_floats"

external set_floats_unchecked : bytes -> int -> float array -> unit
  = "riot_set_floats"
[@@noalloc]

(* Written so that no intermediate overflows: [8 * n] could. *)
let check_range fn b ~off n =
  if off < 0 || n < 0 || off > Bytes.length b || n > (Bytes.length b - off) / 8
  then invalid_arg fn

let get_floats b ~off n =
  check_range "Block_store.get_floats" b ~off n;
  get_floats_unchecked b off n

let set_floats b ~off (a : float array) =
  check_range "Block_store.set_floats" b ~off (Array.length a);
  set_floats_unchecked b off a

let floats_of_bytes b = get_floats b ~off:0 (Bytes.length b / 8)

let bytes_of_floats a =
  let b = Bytes.create (Array.length a * 8) in
  set_floats b ~off:0 a;
  b

let read_floats t index = floats_of_bytes (read_block t index)
let write_floats t index a = write_block t index (bytes_of_floats a)

let stream_name t =
  match t.impl with D d -> Daf.file_name d | L l -> Lab_tree.file_name l
