type t =
  | Assign_add
  | Assign_sub
  | Gemm_acc of { ta : bool; tb : bool }
  | Invert
  | Rss_acc
  | Copy
  | Filter
  | Foreach
  | Join_nl
  | Opaque of string

type role = Elementwise | Terminal

type info = {
  name : string;
  arity : int option;
  accumulating : bool;
  chain : role option;
  op : string;
}

let info k =
  let row ?(accumulating = false) ?chain ?(op = ", ") name arity =
    { name; arity; accumulating; chain; op }
  in
  match k with
  | Assign_add -> row "add" (Some 2) ~chain:Elementwise ~op:" + "
  | Assign_sub -> row "sub" (Some 2) ~chain:Elementwise ~op:" - "
  | Copy -> row "copy" (Some 1) ~chain:Elementwise
  | Filter -> row "filter" (Some 1) ~chain:Elementwise
  | Foreach -> row "foreach" (Some 1) ~chain:Elementwise
  | Gemm_acc { ta; tb } ->
      let name = "gemm" ^ (if ta then "_ta" else "") ^ if tb then "_tb" else "" in
      row name (Some 2) ~accumulating:true ~op:" * "
  | Invert -> row "invert" (Some 1)
  | Rss_acc -> row "rss" (Some 1) ~accumulating:true ~chain:Terminal
  | Join_nl -> row "join" (Some 2)
  | Opaque s -> row ("opaque:" ^ s) None

let cost k ~(write : Config.layout) ~(operand : Config.layout option) =
  let dim (l : Config.layout) d = float_of_int l.Config.block_elems.(d) in
  let bytes = float_of_int (Config.block_bytes write) in
  match k with
  | Gemm_acc { ta; _ } ->
      let kk = match operand with Some a -> dim a (if ta then 0 else 1) | None -> 0. in
      (2. *. dim write 0 *. dim write 1 *. kk, 0.)
  | Assign_add | Assign_sub -> (0., 3. *. bytes)
  | Copy | Filter | Foreach -> (0., 2. *. bytes)
  | Invert ->
      let n = dim write 0 in
      (2. *. n *. n *. n, 0.)
  | Rss_acc -> (
      match operand with Some a -> (2. *. dim a 0 *. dim a 1, 0.) | None -> (0., 0.))
  | Join_nl -> (dim write 0 *. dim write 1, 0.) (* one multiply per output element *)
  | Opaque _ -> (0., 0.)

let pp ppf t = Format.pp_print_string ppf (info t).name
