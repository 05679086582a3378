module Aff = Riot_poly.Aff
module Space = Riot_poly.Space

type t = Aff.t array
type program_sched = (string * t) list

let time_of t lookup = Array.map (fun row -> Aff.eval row lookup) t

let over space t =
  Array.map
    (fun (row : Aff.t) -> if Space.equal row.Aff.space space then row else Aff.cast space row)
    t

let time_of_vec t point = Array.map (fun row -> Aff.eval_vec row point) t

let lex_compare a b =
  let n = max (Array.length a) (Array.length b) in
  let get v i = if i < Array.length v then v.(i) else 0 in
  let rec go i =
    if i >= n then 0
    else
      let c = compare (get a i) (get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let lex_lt a b = lex_compare a b < 0
let rows t = Array.length t
let find sched name = List.assoc name sched

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Aff.pp)
    t
