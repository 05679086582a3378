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

let is_accumulating = function
  | Gemm_acc _ | Rss_acc -> true
  | Assign_add | Assign_sub | Invert | Copy | Filter | Foreach | Join_nl | Opaque _ ->
      false

let is_elementwise = function
  | Assign_add | Assign_sub | Copy | Filter | Foreach -> true
  | Gemm_acc _ | Invert | Rss_acc | Join_nl | Opaque _ -> false

let chain_arity = function
  | Assign_add | Assign_sub -> Some 2
  | Copy | Filter | Foreach | Rss_acc -> Some 1
  | Gemm_acc _ | Invert | Join_nl | Opaque _ -> None

let name = function
  | Assign_add -> "add"
  | Assign_sub -> "sub"
  | Gemm_acc { ta; tb } ->
      Printf.sprintf "gemm%s%s" (if ta then "_ta" else "") (if tb then "_tb" else "")
  | Invert -> "invert"
  | Rss_acc -> "rss"
  | Copy -> "copy"
  | Filter -> "filter"
  | Foreach -> "foreach"
  | Join_nl -> "join"
  | Opaque s -> "opaque:" ^ s

let pp ppf t = Format.pp_print_string ppf (name t)
