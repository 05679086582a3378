module Space = Riot_poly.Space
module Poly = Riot_poly.Poly
module Aff = Riot_poly.Aff

type t = {
  name : string;
  loop_vars : string list;
  space : Space.t;
  domain : Poly.t;
  accesses : Access.t list;
  kernel : Kernel.t;
}

let qualify stmt_name var = stmt_name ^ "." ^ var
let qualified_vars t = List.map (qualify t.name) t.loop_vars
let depth t = List.length t.loop_vars

let point t ~params inst =
  Array.map
    (fun n -> match List.assoc_opt n inst with Some v -> v | None -> List.assoc n params)
    (Array.of_list (Space.names t.space))

let write_access t = List.find_opt Access.is_write t.accesses

let operand_reads t =
  match write_access t with
  | None -> List.filter Access.is_read t.accesses
  | Some w ->
      List.filter (fun a -> Access.is_read a && not (Access.same_map w a)) t.accesses

let access_domain t (a : Access.t) =
  match a.Access.restrict_to with
  | None -> t.domain
  | Some r -> Poly.intersect t.domain r

let validate t =
  let writes = List.filter Access.is_write t.accesses in
  if List.length writes > 1 then
    invalid_arg (Printf.sprintf "Stmt %s: more than one write access" t.name);
  if not (Space.equal (Poly.space t.domain) t.space) then
    invalid_arg (Printf.sprintf "Stmt %s: domain space mismatch" t.name);
  List.iter
    (fun (a : Access.t) ->
      Array.iter
        (fun m ->
          if not (Space.equal m.Aff.space t.space) then
            invalid_arg
              (Printf.sprintf "Stmt %s: access to %s over the wrong space"
                 t.name a.Access.array))
        a.Access.map)
    t.accesses

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s (%a) [%a]:@ %a@ accesses: %a@]" t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_string)
    t.loop_vars Kernel.pp t.kernel Poly.pp t.domain
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Access.pp)
    t.accesses
