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

let get_floats b ~off n =
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Int64.float_of_bits (Bytes.get_int64_le b (off + (8 * i))))
  done;
  a

let set_floats b ~off (a : float array) =
  for i = 0 to Array.length a - 1 do
    Bytes.set_int64_le b (off + (8 * i)) (Int64.bits_of_float (Array.unsafe_get a i))
  done

let floats_of_bytes b = get_floats b ~off:0 (Bytes.length b / 8)

let bytes_of_floats a =
  let b = Bytes.create (Array.length a * 8) in
  set_floats b ~off:0 a;
  b

let read_floats t index = floats_of_bytes (read_block t index)
let write_floats t index a = write_block t index (bytes_of_floats a)

let stream_name t =
  match t.impl with D d -> Daf.file_name d | L l -> Lab_tree.file_name l
