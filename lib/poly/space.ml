type t = { names : string array }

let check_unique names =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then invalid_arg ("Space: duplicate dimension " ^ n)
      else Hashtbl.add tbl n ())
    names

let of_names names =
  check_unique names;
  { names = Array.of_list names }

(* Names drawn from an existing space are unique already. *)
let sub t idxs = { names = Array.of_list (List.map (fun i -> t.names.(i)) idxs) }

let dim t = Array.length t.names
let names t = Array.to_list t.names
let name t i = t.names.(i)

let index_opt t n =
  let rec go i =
    if i >= dim t then None else if t.names.(i) = n then Some i else go (i + 1)
  in
  go 0

let index t n = match index_opt t n with Some i -> i | None -> raise Not_found
let mem t n = index_opt t n <> None
let concat a b = of_names (names a @ names b)
let append a l = of_names (names a @ l)

let union a b =
  of_names (names a @ List.filter (fun n -> not (mem a n)) (names b))

let remove a l = of_names (List.filter (fun n -> not (List.mem n l)) (names a))
let equal a b = a == b || a.names = b.names

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_string)
    (names t)
