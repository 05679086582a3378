module Space = Riot_poly.Space
module Poly = Riot_poly.Poly
module Aff = Riot_poly.Aff

type aexp = { terms : (string * int) list; aconst : int }

let e ?(c = 0) terms = { terms; aconst = c }
let var v = e [ (v, 1) ]
let cst c = e ~c []

let ( + ) a b =
  { terms = a.terms @ b.terms; aconst = Stdlib.( + ) a.aconst b.aconst }

let ( - ) a b =
  { terms = a.terms @ List.map (fun (v, c) -> (v, -c)) b.terms;
    aconst = Stdlib.( - ) a.aconst b.aconst }

let aexp_vars (a : aexp) =
  List.sort_uniq compare (List.filter_map (fun (v, c) -> if c <> 0 then Some v else None) a.terms)

type acc = Access.typ * string * aexp list * aexp list

type item =
  | For of { var : string; lo : aexp; hi : aexp; body : item list }
  | S of { sname : string; kernel : Kernel.t; accs : acc list }

let for_ v ~lo ~hi body = For { var = v; lo; hi; body }
let stmt sname ~kernel ~accs = S { sname; kernel; accs }
let read array subs = (Access.Read, array, subs, [])
let read_if conds array subs = (Access.Read, array, subs, conds)
let write array subs = (Access.Write, array, subs, [])

(* Schedule-prefix rows during elaboration. *)
type row = RC of int | RV of string

let program ~name ~params ?context ~arrays items =
  let stmts = ref [] in
  let scheds = ref [] in
  let names = Hashtbl.create 8 in
  (* env: enclosing loops, outer first: (var, lo, hi) *)
  let rec walk env prefix items =
    List.iteri
      (fun idx item ->
        let prefix' = List.append prefix [ RC idx ] in
        match item with
        | For { var; lo; hi; body } ->
            if List.exists (fun (v, _, _) -> v = var) env then
              invalid_arg ("Build: shadowed loop variable " ^ var);
            walk (env @ [ (var, lo, hi) ]) (prefix' @ [ RV var ]) body
        | S { sname; kernel; accs } ->
            if Hashtbl.mem names sname then
              invalid_arg ("Build: duplicate statement name " ^ sname);
            Hashtbl.add names sname ();
            let loop_vars = List.map (fun (v, _, _) -> v) env in
            let space =
              Space.of_names (List.map (Stmt.qualify sname) loop_vars @ params)
            in
            let qual v =
              if List.mem v loop_vars then Stmt.qualify sname v
              else if List.mem v params then v
              else invalid_arg ("Build: unknown variable " ^ v ^ " in " ^ sname)
            in
            let to_aff (a : aexp) =
              Aff.of_assoc space ~const:a.aconst
                (List.filter_map (fun (v, c) -> if c = 0 then None else Some (qual v, c)) a.terms)
            in
            let domain =
              List.fold_left
                (fun p (v, lo, hi) ->
                  let qv = Aff.dim space (Stmt.qualify sname v) in
                  let p = Poly.add_ge p (Aff.sub qv (to_aff lo)) in
                  Poly.add_ge p (Aff.add_const (Aff.sub (to_aff hi) qv) (-1)))
                (Poly.universe space) env
            in
            let accesses =
              List.map
                (fun ((typ, array, subs, conds) : acc) ->
                  let map = Array.of_list (List.map to_aff subs) in
                  let restrict_to =
                    match conds with
                    | [] -> None
                    | conds ->
                        Some
                          (List.fold_left
                             (fun p c -> Poly.add_ge p (to_aff c))
                             (Poly.universe space) conds)
                  in
                  { Access.typ; array; map; restrict_to })
                accs
            in
            let rows =
              List.map
                (function RC c -> Aff.const space c | RV v -> Aff.dim space (qual v))
                prefix'
            in
            stmts := { Stmt.name = sname; loop_vars; space; domain; accesses; kernel } :: !stmts;
            scheds := (sname, Array.of_list rows) :: !scheds)
      items
  in
  walk [] [] items;
  let stmts = List.rev !stmts and scheds = List.rev !scheds in
  let pspace = Space.of_names params in
  let context_poly =
    let default =
      List.fold_left
        (fun p n -> Poly.add_ge p (Aff.add_const (Aff.dim pspace n) (-1)))
        (Poly.universe pspace) params
    in
    match context with
    | None -> default
    | Some exprs ->
        List.fold_left
          (fun p (a : aexp) ->
            Poly.add_ge p
              (Aff.of_assoc pspace ~const:a.aconst
                 (List.map
                    (fun (v, c) ->
                      if List.mem v params then (v, c)
                      else invalid_arg ("Build: context uses non-parameter " ^ v))
                    a.terms)))
          default exprs
  in
  (* Intersect every statement domain with the (casted) parameter context. *)
  let stmts =
    List.map
      (fun (s : Stmt.t) ->
        { s with Stmt.domain = Poly.intersect s.Stmt.domain (Poly.cast s.Stmt.space context_poly) })
      stmts
  in
  let prog =
    { Program.name; params; context = context_poly; arrays; stmts; original = scheds }
  in
  Program.validate prog;
  prog
