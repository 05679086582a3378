type layout = { grid : int array; block_elems : int array; elem_size : int }
type t = { params : (string * int) list; layouts : (string * layout) list }

let make ~params ~layouts = { params; layouts }
let param t n = List.assoc n t.params
let layout t n = List.assoc n t.layouts
module C = Riot_base.Checked

let product a = Array.fold_left C.mul 1 a
let block_elems_total l = product l.block_elems
let block_bytes l = C.mul (block_elems_total l) l.elem_size
let block_count l = product l.grid
let total_bytes l = C.mul (block_bytes l) (block_count l)

let matrix t name ~block_rows ~block_cols ~grid_rows ~grid_cols =
  { t with
    layouts =
      (name,
        { grid = [| grid_rows; grid_cols |];
          block_elems = [| block_rows; block_cols |];
          elem_size = 8 })
      :: t.layouts }

let pp ppf t =
  Format.fprintf ppf "@[<v>params: %a@ %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (n, v) -> Format.fprintf ppf "%s=%d" n v))
    t.params
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (n, l) ->
         Format.fprintf ppf "%s: %d blocks x %.1f MB" n (block_count l)
           (float_of_int (block_bytes l) /. 1048576.)))
    t.layouts
