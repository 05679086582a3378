module Poly = Riot_poly.Poly

type t = {
  name : string;
  params : string list;
  context : Poly.t;
  arrays : Array_info.t list;
  stmts : Stmt.t list;
  original : Sched.program_sched;
}

let find_stmt t name = List.find (fun (s : Stmt.t) -> s.Stmt.name = name) t.stmts

let find_array t name =
  List.find (fun (a : Array_info.t) -> a.Array_info.name = name) t.arrays

let max_depth t = List.fold_left (fun d s -> max d (Stmt.depth s)) 0 t.stmts

let writes_to t array =
  List.concat_map
    (fun (s : Stmt.t) ->
      List.filter_map
        (fun (a : Access.t) ->
          if Access.is_write a && a.Access.array = array then Some (s, a) else None)
        s.Stmt.accesses)
    t.stmts

let instances _t (s : Stmt.t) ~params =
  let d = Poly.fix_dims s.Stmt.domain params in
  Poly.enumerate d

let validate t =
  List.iter Stmt.validate t.stmts;
  List.iter
    (fun (s : Stmt.t) ->
      List.iter
        (fun (a : Access.t) ->
          let info =
            try find_array t a.Access.array
            with Not_found ->
              invalid_arg
                (Printf.sprintf "Program %s: statement %s accesses undeclared array %s"
                   t.name s.Stmt.name a.Access.array)
          in
          if Array.length a.Access.map <> info.Array_info.ndims then
            invalid_arg
              (Printf.sprintf "Program %s: access to %s has %d subscripts, array has %d dims"
                 t.name a.Access.array (Array.length a.Access.map) info.Array_info.ndims))
        s.Stmt.accesses;
      if not (List.mem_assoc s.Stmt.name t.original) then
        invalid_arg
          (Printf.sprintf "Program %s: no original schedule for %s" t.name s.Stmt.name))
    t.stmts

let pp ppf t =
  Format.fprintf ppf "@[<v2>program %s params=(%a):@ %a@]" t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_string)
    t.params
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Stmt.pp)
    t.stmts
