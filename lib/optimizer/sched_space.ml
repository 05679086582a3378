module Space = Riot_poly.Space
module Poly = Riot_poly.Poly
module Aff = Riot_poly.Aff
module Farkas = Riot_poly.Farkas
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Coaccess = Riot_analysis.Coaccess

type t = {
  prog : Program.t;
  space : Space.t;
  cache : (string * string, Poly.t) Hashtbl.t;
  mutable frozen : bool;
      (* once set, [cached] stops inserting on miss so the table can be
         shared read-only across domains *)
}

let coeff_name_raw ~stmt ~dim = stmt ^ "|" ^ dim
let const_name_raw ~stmt = stmt ^ "|#"

let make (prog : Program.t) =
  let names =
    List.concat_map
      (fun (s : Stmt.t) ->
        List.map
          (fun dim -> coeff_name_raw ~stmt:s.Stmt.name ~dim)
          (Space.names s.Stmt.space)
        @ [ const_name_raw ~stmt:s.Stmt.name ])
      prog.Program.stmts
  in
  { prog; space = Space.of_names names; cache = Hashtbl.create 64; frozen = false }

let space t = t.space

let loop_coeff_names t ~stmt =
  let s = Program.find_stmt t.prog stmt in
  List.map (fun qv -> coeff_name_raw ~stmt ~dim:qv) (Stmt.qualified_vars s)

let row_of_point _t ~stmt point =
  let name = stmt.Stmt.name in
  let terms =
    List.filter_map
      (fun dim ->
        match List.assoc_opt (coeff_name_raw ~stmt:name ~dim) point with
        | Some c when c <> 0 -> Some (dim, c)
        | _ -> None)
      (Space.names stmt.Stmt.space)
  in
  let const =
    match List.assoc_opt (const_name_raw ~stmt:name) point with
    | Some c -> c
    | None -> 0
  in
  Aff.of_assoc stmt.Stmt.space ~const terms

(* Translate "theta_dst(x') - theta_src(x) - delta" into Farkas inputs for a
   co-access: a coefficient form over the unknowns for each extent dimension,
   plus a constant form. *)
let target_forms t (ca : Coaccess.t) ~delta =
  let u = t.space in
  let src = ca.Coaccess.src_stmt and dst = ca.Coaccess.dst_stmt in
  let strip prefix n = String.sub n (String.length prefix) (String.length n - String.length prefix) in
  let coeff dim =
    if List.mem dim ca.Coaccess.src_vars then
      (* -u_{src, src_loop_var} *)
      let v = strip Coaccess.src_prefix dim in
      Aff.scale (-1)
        (Aff.dim u (coeff_name_raw ~stmt:src ~dim:(Stmt.qualify src v)))
    else if List.mem dim ca.Coaccess.dst_vars then
      let v = strip Coaccess.dst_prefix dim in
      Aff.dim u (coeff_name_raw ~stmt:dst ~dim:(Stmt.qualify dst v))
    else
      (* A parameter: u_{dst,p} - u_{src,p}. *)
      Aff.sub
        (Aff.dim u (coeff_name_raw ~stmt:dst ~dim))
        (Aff.dim u (coeff_name_raw ~stmt:src ~dim))
  in
  let const =
    Aff.add_const
      (Aff.sub
         (Aff.dim u (const_name_raw ~stmt:dst))
         (Aff.dim u (const_name_raw ~stmt:src)))
      (-delta)
  in
  (coeff, const)

let cached t key (ca : Coaccess.t) f =
  let k = (key, Coaccess.key ca) in
  match Hashtbl.find_opt t.cache k with
  | Some p -> p
  | None ->
      let p = f () in
      if not t.frozen then Hashtbl.add t.cache k p;
      p

let weak t ca =
  cached t "weak" ca (fun () ->
      let coeff, const = target_forms t ca ~delta:0 in
      Farkas.nonneg_on_union ~unknowns:t.space ~over:ca.Coaccess.extent ~coeff ~const)

let strong t ca =
  cached t "strong" ca (fun () ->
      let coeff, const = target_forms t ca ~delta:1 in
      Farkas.nonneg_on_union ~unknowns:t.space ~over:ca.Coaccess.extent ~coeff ~const)

let equal_const t ~delta ca =
  cached t (Printf.sprintf "eq%d" delta) ca (fun () ->
      let coeff, const = target_forms t ca ~delta in
      Farkas.zero_on_union ~unknowns:t.space ~over:ca.Coaccess.extent ~coeff ~const)

let equal_zero t ca = equal_const t ~delta:0 ca

(* Compute every Farkas translation [Find_schedule.find] can possibly ask
   for — weak and strong forms of each dependence, equality and +-1 shift
   forms of each sharing opportunity — then freeze the table.  A frozen
   space is safe to share read-only across domains: lookups hit for the
   whole search and a (theoretically impossible) miss recomputes locally
   without mutating the table. *)
let prefill t ~deps ~sharing =
  List.iter
    (fun ca ->
      ignore (weak t ca);
      ignore (strong t ca))
    deps;
  List.iter
    (fun ca ->
      ignore (equal_zero t ca);
      ignore (equal_const t ~delta:1 ca);
      ignore (equal_const t ~delta:(-1) ca))
    sharing;
  t.frozen <- true
