module Space = Riot_poly.Space
module Poly = Riot_poly.Poly
module Aff = Riot_poly.Aff
module Union = Riot_poly.Union
module Access = Riot_ir.Access
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Sched = Riot_ir.Sched

type t = {
  array : string;
  src_stmt : string;
  src_acc : int;
  dst_stmt : string;
  dst_acc : int;
  src_typ : Access.typ;
  dst_typ : Access.typ;
  space : Space.t;
  src_vars : string list;
  dst_vars : string list;
  params : string list;
  extent : Union.t;
}

let src_prefix = "src."
let dst_prefix = "dst."

let rename_into space ~prefix ~stmt aff =
  let coeffs =
    List.concat_map
      (fun v ->
        let c = Aff.coeff aff (Stmt.qualify stmt.Stmt.name v) in
        if c = 0 then [] else [ (prefix ^ v, c) ])
      stmt.Stmt.loop_vars
  in
  let params =
    List.filter_map
      (fun n ->
        if List.exists (fun v -> Stmt.qualify stmt.Stmt.name v = n) stmt.Stmt.loop_vars
        then None
        else
          let c = Aff.coeff aff n in
          if c = 0 then None else Some (n, c))
      (Space.names stmt.Stmt.space)
  in
  Aff.of_assoc space ~const:aff.Aff.const (coeffs @ params)

let rename_poly space ~prefix ~stmt p =
  let eqs = List.map (rename_into space ~prefix ~stmt) (Poly.eqs p) in
  let ges = List.map (rename_into space ~prefix ~stmt) (Poly.ges p) in
  Poly.of_constraints space ~eqs ~ges

(* The "src executes strictly before dst" condition under the original
   schedule, as a union over depths (zero-padding the shorter schedule).
   Optional micro ranks refine the order at the access level within one
   statement instance (reads rank 0, the write rank 1): they are appended as
   an extra constant time dimension. *)
let order_union ?micro space ~src_rows ~dst_rows =
  let src_rows, dst_rows =
    match micro with
    | None -> (src_rows, dst_rows)
    | Some (src_rank, dst_rank) ->
        let n = max (Array.length src_rows) (Array.length dst_rows) in
        let pad rows rank =
          Array.init (n + 1) (fun i ->
              if i < Array.length rows then rows.(i)
              else if i < n then Aff.zero space
              else Aff.const space rank)
        in
        (pad src_rows src_rank, pad dst_rows dst_rank)
  in
  let n = max (Array.length src_rows) (Array.length dst_rows) in
  let row v i = if i < Array.length v then v.(i) else Aff.zero space in
  List.init n (fun q ->
      let p = ref (Poly.universe space) in
      for r = 0 to q - 1 do
        p := Poly.add_eq !p (Aff.sub (row dst_rows r) (row src_rows r))
      done;
      Poly.add_gt !p (Aff.sub (row dst_rows q) (row src_rows q)))

let make (prog : Program.t) ~src:(src_stmt, src_acc) ~dst:(dst_stmt, dst_acc) =
  let src_a = List.nth src_stmt.Stmt.accesses src_acc in
  let dst_a = List.nth dst_stmt.Stmt.accesses dst_acc in
  if src_a.Access.array <> dst_a.Access.array then
    invalid_arg "Coaccess.make: accesses to different arrays";
  let params = prog.Program.params in
  let src_vars = List.map (fun v -> src_prefix ^ v) src_stmt.Stmt.loop_vars in
  let dst_vars = List.map (fun v -> dst_prefix ^ v) dst_stmt.Stmt.loop_vars in
  let space = Space.of_names (src_vars @ dst_vars @ params) in
  let base = Poly.universe space in
  let base =
    Poly.intersect base
      (rename_poly space ~prefix:src_prefix ~stmt:src_stmt
         (Stmt.access_domain src_stmt src_a))
  in
  let base =
    Poly.intersect base
      (rename_poly space ~prefix:dst_prefix ~stmt:dst_stmt
         (Stmt.access_domain dst_stmt dst_a))
  in
  (* Same block: Phi x = Phi' x'. *)
  let base =
    Array.to_list
      (Array.map2
         (fun m m' ->
           Aff.sub
             (rename_into space ~prefix:src_prefix ~stmt:src_stmt m)
             (rename_into space ~prefix:dst_prefix ~stmt:dst_stmt m'))
         src_a.Access.map dst_a.Access.map)
    |> List.fold_left Poly.add_eq base
  in
  let src_rows =
    Array.map
      (rename_into space ~prefix:src_prefix ~stmt:src_stmt)
      (Sched.find prog.Program.original src_stmt.Stmt.name)
  in
  let dst_rows =
    Array.map
      (rename_into space ~prefix:dst_prefix ~stmt:dst_stmt)
      (Sched.find prog.Program.original dst_stmt.Stmt.name)
  in
  let disjuncts =
    List.map (Poly.intersect base) (order_union space ~src_rows ~dst_rows)
  in
  { array = src_a.Access.array;
    src_stmt = src_stmt.Stmt.name;
    src_acc;
    dst_stmt = dst_stmt.Stmt.name;
    dst_acc;
    src_typ = src_a.Access.typ;
    dst_typ = dst_a.Access.typ;
    space;
    src_vars;
    dst_vars;
    params;
    extent = Union.of_polys space disjuncts }

let is_dependence t =
  match (t.src_typ, t.dst_typ) with
  | Access.Read, Access.Read -> false
  | _ -> true

let is_sharing t =
  match (t.src_typ, t.dst_typ) with
  | Access.Read, Access.Write -> false
  | _ -> true

let is_self t = t.src_stmt = t.dst_stmt
let restrict_extent t extent = { t with extent }

let strip_prefix prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then
    String.sub s n (String.length s - n)
  else s

let pairs_at t ~params =
  let fixed = Union.fix_dims t.extent params in
  let to_instance prefix stmt pt =
    List.filter_map
      (fun (n, v) ->
        if String.length n > String.length prefix
           && String.sub n 0 (String.length prefix) = prefix then
          Some (Stmt.qualify stmt (strip_prefix prefix n), v)
        else None)
      pt
  in
  List.map
    (fun pt ->
      (to_instance src_prefix t.src_stmt pt, to_instance dst_prefix t.dst_stmt pt))
    (Union.enumerate fixed)

let typ_str = function Access.Read -> "R" | Access.Write -> "W"

let label t =
  Printf.sprintf "%s.%s.%s -> %s.%s.%s" t.src_stmt (typ_str t.src_typ) t.array
    t.dst_stmt (typ_str t.dst_typ) t.array

let key t = Printf.sprintf "%s #%d#%d" (label t) t.src_acc t.dst_acc

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s:@ %a@]" (label t) Union.pp t.extent
