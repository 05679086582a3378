module Space = Riot_poly.Space
module Poly = Riot_poly.Poly
module Aff = Riot_poly.Aff
module Q = Riot_base.Q
module C = Riot_base.Checked
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Sched = Riot_ir.Sched
module Kernel = Riot_ir.Kernel
module Access = Riot_ir.Access

type bound = { num : Aff.t; den : int }

type guard =
  | Ge of Aff.t
  | Divisible of Aff.t * int

type ast =
  | Loop of {
      var : string;
      lower : bound list;
      lower_cover : bool;
      upper : bound list;
      upper_cover : bool;
      body : ast list;
    }
  | Guarded of guard list * ast
  | Exec of { stmt : string; bindings : (string * bound) list }

(* --- Shared setup ---------------------------------------------------------- *)

let tvar i = Printf.sprintf "t%d" i

(* Per-statement generation state. *)
type stmt_info = {
  s : Stmt.t;
  textual : int;  (* the constant final row *)
  time_poly : Poly.t;  (* over tspace ++ qualified loop vars *)
  bindings : (string * bound) list;  (* loop var -> value in t and params *)
  guards : guard list;  (* leaf guards over tspace *)
}

(* Solve the schedule equations theta_r(x) = t_r for the loop variables by
   exact Gauss-Jordan elimination, yielding each variable as an affine form
   over the time variables and parameters (with a denominator). *)
let solve_loop_vars (s : Stmt.t) rows ~levels ~tspace =
  let xs = Stmt.qualified_vars s in
  let nx = List.length xs in
  let nt = Space.dim tspace in
  (* Row r: theta_r's x-part | rhs = t_{r+1} - theta_r's (params + const). *)
  let rows_q =
    List.init levels (fun r ->
        let theta = rows.(r) in
        let xcoef = Array.of_list (List.map (fun v -> Q.of_int (Aff.coeff theta v)) xs) in
        let rhs = Array.make (nt + 1) Q.zero in
        rhs.(Space.index tspace (tvar (r + 1))) <- Q.one;
        List.iteri
          (fun i n ->
            (* parameters live in both spaces under the same name *)
            if not (List.mem n xs) then begin
              ignore i;
              match Space.index_opt tspace n with
              | Some j ->
                  rhs.(j) <- Q.sub rhs.(j) (Q.of_int (Aff.coeff theta n))
              | None -> ()
            end)
          (Space.names s.Stmt.space);
        rhs.(nt) <- Q.sub rhs.(nt) (Q.of_int theta.Aff.const);
        (xcoef, rhs))
  in
  let rows_q = Array.of_list rows_q in
  let nrows = Array.length rows_q in
  let pivot_of = Array.make nx (-1) in
  let used = Array.make nrows false in
  (* Gauss-Jordan over the x columns. *)
  for col = 0 to nx - 1 do
    let piv = ref (-1) in
    for r = 0 to nrows - 1 do
      if !piv < 0 && (not used.(r)) && not (Q.is_zero (fst rows_q.(r)).(col)) then
        piv := r
    done;
    if !piv >= 0 then begin
      let r = !piv in
      used.(r) <- true;
      pivot_of.(col) <- r;
      let xc, rhs = rows_q.(r) in
      let inv = Q.inv xc.(col) in
      Array.iteri (fun j v -> xc.(j) <- Q.mul inv v) xc;
      Array.iteri (fun j v -> rhs.(j) <- Q.mul inv v) rhs;
      for r' = 0 to nrows - 1 do
        if r' <> r then begin
          let xc', rhs' = rows_q.(r') in
          let f = xc'.(col) in
          if not (Q.is_zero f) then begin
            Array.iteri (fun j v -> xc'.(j) <- Q.sub v (Q.mul f xc.(j))) xc';
            Array.iteri (fun j v -> rhs'.(j) <- Q.sub v (Q.mul f rhs.(j))) rhs'
          end
        end
      done
    end
  done;
  let aff_of_rhs rhs =
    let den = Array.fold_left (fun acc q -> C.lcm acc (Q.den q)) 1 rhs in
    let coeffs =
      List.filter_map
        (fun j ->
          let c = Q.num rhs.(j) * (den / Q.den rhs.(j)) in
          if c = 0 then None else Some (Space.name tspace j, c))
        (List.init nt Fun.id)
    in
    let const = Q.num rhs.(nt) * (den / Q.den rhs.(nt)) in
    (Aff.of_assoc tspace ~const coeffs, den)
  in
  let bindings =
    List.mapi
      (fun col v ->
        if pivot_of.(col) < 0 then
          failwith
            (Printf.sprintf "Codegen: loop variable %s of %s is not determined by the schedule"
               v s.Stmt.name);
        let _, rhs = rows_q.(pivot_of.(col)) in
        (* Back-substitution left other x coefficients zero (full Jordan). *)
        let num, den = aff_of_rhs rhs in
        (v, { num; den }))
      xs
  in
  (* Rows not used as pivots have zero x-coefficients; their residual
     rhs = t_r - theta_r(x(t)) must vanish (e.g. a statement scheduled at a
     constant time executes only at that time). *)
  let residuals =
    List.filter_map
      (fun r ->
        if used.(r) then None
        else begin
          let _, rhs = rows_q.(r) in
          let num, _ = aff_of_rhs rhs in
          if Aff.is_zero num then None else Some num
        end)
      (List.init nrows Fun.id)
  in
  (bindings, residuals)

(* Substitute the solved loop variables into an affine constraint over the
   statement space, producing an integer affine form over tspace (scaled by
   the lcm of the denominators, which is positive, so >= is preserved). *)
let subst_into_t (s : Stmt.t) ~tspace ~bindings (a : Aff.t) =
  let lcm_all =
    List.fold_left (fun acc (_, b) -> C.lcm acc b.den) 1 bindings
  in
  let acc = ref (Aff.const tspace (C.mul a.Aff.const lcm_all)) in
  List.iter
    (fun n ->
      let c = Aff.coeff a n in
      if c <> 0 then
        match List.assoc_opt n bindings with
        | Some b ->
            (* c * num/den, scaled by lcm_all *)
            acc := Aff.add !acc (Aff.scale (C.mul c (lcm_all / b.den)) b.num)
        | None -> (
            (* parameter *)
            match Space.index_opt tspace n with
            | Some _ -> acc := Aff.add !acc (Aff.scale (C.mul c lcm_all) (Aff.dim tspace n))
            | None -> failwith ("Codegen: unbound name " ^ n)))
    (Space.names s.Stmt.space);
  !acc

let build_info prog ~sched ~tspace ~levels (s : Stmt.t) =
  let rows = Sched.find sched s.Stmt.name in
  let d = levels + 1 in
  let rows =
    Array.init d (fun i ->
        if i < Array.length rows then rows.(i) else Aff.zero s.Stmt.space)
  in
  let last = rows.(d - 1) in
  if not (Aff.is_constant last) then
    failwith
      (Printf.sprintf "Codegen: %s's final schedule row is not constant" s.Stmt.name);
  ignore prog;
  (* Time polyhedron over tspace ++ loop vars: domain plus t_r = theta_r. *)
  let full = Space.concat tspace (Space.of_names (Stmt.qualified_vars s)) in
  let dom = Poly.cast full s.Stmt.domain in
  let tp =
    List.fold_left
      (fun p r ->
        Poly.add_eq p
          (Aff.sub (Aff.dim full (tvar (r + 1))) (Aff.cast full rows.(r))))
      dom
      (List.init levels Fun.id)
  in
  let bindings, residuals = solve_loop_vars s rows ~levels ~tspace in
  let guards =
    List.concat_map (fun e -> [ Ge e; Ge (Aff.neg e) ]) residuals
    @ List.filter_map
        (fun (_, b) -> if b.den > 1 then Some (Divisible (b.num, b.den)) else None)
        bindings
    @ List.map (fun a -> Ge (subst_into_t s ~tspace ~bindings a))
        (Poly.ges (Poly.simplify s.Stmt.domain))
    @ List.concat_map
        (fun a ->
          let e = subst_into_t s ~tspace ~bindings a in
          [ Ge e; Ge (Aff.neg e) ])
        (Poly.eqs (Poly.simplify s.Stmt.domain))
  in
  { s; textual = last.Aff.const; time_poly = tp; bindings; guards }

(* Bounds of t_level for one statement: project its time polyhedron onto
   t1..t_level (and parameters) and read off the constraints on t_level. *)
let level_bounds info ~tspace ~levels ~level =
  let full_space = Poly.space info.time_poly in
  let gone =
    List.init (levels - level) (fun i -> tvar (level + 1 + i))
    @ Stmt.qualified_vars info.s
  in
  let proj = Poly.simplify (Poly.eliminate info.time_poly gone) in
  let tl = tvar level in
  let lower = ref [] and upper = ref [] in
  let handle (a : Aff.t) =
    let c = Aff.coeff a tl in
    if c > 0 then begin
      (* c*t + rest >= 0  ->  t >= ceild(-rest, c) *)
      let rest = { a with Aff.coeffs = Array.copy a.Aff.coeffs } in
      rest.Aff.coeffs.(Space.index full_space tl) <- 0;
      lower := { num = Aff.cast tspace (Aff.neg rest); den = c } :: !lower
    end
    else if c < 0 then begin
      let rest = { a with Aff.coeffs = Array.copy a.Aff.coeffs } in
      rest.Aff.coeffs.(Space.index full_space tl) <- 0;
      upper := { num = Aff.cast tspace rest; den = -c } :: !upper
    end
  in
  List.iter handle (Poly.ges proj);
  List.iter
    (fun a ->
      handle a;
      handle (Aff.neg a))
    (Poly.eqs proj);
  (!lower, !upper, proj)

(* Is a candidate bound valid for (implied by) another statement's projected
   polyhedron? Checked by asking whether its violation is rationally
   empty. *)
let bound_valid_for ~tspace ~level kind (b : bound) proj =
  let full_space = Poly.space proj in
  let t = Aff.dim full_space (tvar level) in
  let num = Aff.cast full_space b.num in
  (* lower: t >= num/den, violation den*t <= num - 1; upper symmetric. *)
  let violation =
    match kind with
    | `Lower -> Aff.add_const (Aff.sub num (Aff.scale b.den t)) (-1)
    | `Upper -> Aff.add_const (Aff.sub (Aff.scale b.den t) num) (-1)
  in
  ignore tspace;
  Poly.is_rationally_empty (Poly.add_ge proj violation)

let dedup_bounds bs =
  List.fold_left
    (fun acc b ->
      if List.exists (fun b' -> b'.den = b.den && Aff.equal b'.num b.num) acc then acc
      else acc @ [ b ])
    [] bs

(* Splitting support: can two statements ever share the same value of
   t_level under a common prefix? And if not, is one provably always
   earlier? Both questions reduce to rational emptiness over the time
   variables and parameters. *)
let overlaps a b = not (Poly.is_rationally_empty (Poly.intersect a b))

let strictly_before ~tspace ~level a b =
  (* empty { prefix, ta in a, tb in b : ta >= tb } *)
  let tl = tvar level in
  let tl' = tl ^ "$" in
  let space' = Space.append tspace [ tl' ] in
  let a' = Poly.cast space' a in
  let b' = Poly.cast space' (Poly.rename b [ (tl, tl') ]) in
  let bad =
    Poly.add_ge (Poly.intersect a' b')
      (Aff.sub (Aff.dim space' tl) (Aff.dim space' tl'))
  in
  Poly.is_rationally_empty bad

let generate (prog : Program.t) ~sched =
  let levels =
    List.fold_left (fun m (_, rows) -> max m (Array.length rows)) 0 sched - 1
  in
  let tspace = Space.of_names (List.init levels (fun i -> tvar (i + 1)) @ prog.Program.params) in
  let all_infos =
    List.map (build_info prog ~sched ~tspace ~levels) prog.Program.stmts
  in
  (* Recursive generation in the classical CLooG style, simplified: when
     every active statement pins t_level to an integer constant, split into
     per-constant groups (loop distribution); otherwise emit one loop whose
     bounds are the statements' bounds that are valid for all of them, and
     let the leaf guards separate the iterations. *)
  let rec gen infos level ctx =
    if level > levels then
      List.map
        (fun info ->
          (* Drop guards already implied by the enclosing loops and the
             parameter context. *)
          let guards =
            List.filter
              (fun g ->
                match g with
                | Divisible _ -> true
                | Ge e ->
                    not
                      (Poly.is_rationally_empty
                         (Poly.add_ge ctx (Aff.add_const (Aff.neg e) (-1)))))
              info.guards
          in
          let leaf = Exec { stmt = info.s.Stmt.name; bindings = info.bindings } in
          if guards = [] then leaf else Guarded (guards, leaf))
        (List.sort (fun a b -> compare a.textual b.textual) infos)
    else begin
      let per_stmt =
        List.map (fun info -> (info, level_bounds info ~tspace ~levels ~level)) infos
      in
      (* Loop distribution: partition the statements into connected groups of
         overlapping t_level ranges; distinct groups get separate loops,
         ordered by the provable strictly-before relation. *)
      let arr = Array.of_list per_stmt in
      let n = Array.length arr in
      let tproj = Array.map (fun (_, (_, _, p)) -> Poly.cast tspace p) arr in
      let parent = Array.init n Fun.id in
      let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if overlaps tproj.(i) tproj.(j) then begin
            let ri = find i and rj = find j in
            if ri <> rj then parent.(ri) <- rj
          end
        done
      done;
      let roots = List.sort_uniq compare (List.init n find) in
      let groups =
        List.map
          (fun r -> List.filter (fun i -> find i = r) (List.init n Fun.id))
          roots
      in
      let emit_group idxs =
        let infos' = List.map (fun i -> fst arr.(i)) idxs in
        let bounds = List.map (fun i -> snd arr.(i)) idxs in
        let projs = List.map (fun (_, _, p) -> p) bounds in
        let all_lower = List.concat_map (fun (l, _, _) -> l) bounds in
        let all_upper = List.concat_map (fun (_, u, _) -> u) bounds in
        let common kind bs =
          List.filter
            (fun b -> List.for_all (bound_valid_for ~tspace ~level kind b) projs)
            bs
        in
        (* Tight bounds shared by every statement when they exist; otherwise
           a covering bound (min of lowers / max of uppers): the loop then
           visits a superset and the leaf guards filter. *)
        let lower, lower_cover =
          match dedup_bounds (common `Lower all_lower) with
          | [] -> (dedup_bounds all_lower, true)
          | l -> (l, false)
        in
        let upper, upper_cover =
          match dedup_bounds (common `Upper all_upper) with
          | [] -> (dedup_bounds all_upper, true)
          | u -> (u, false)
        in
        if lower = [] || upper = [] then
          failwith
            (Printf.sprintf "Codegen: unbounded loop level %d" level);
        let t = Aff.dim tspace (tvar level) in
        let ctx' =
          let ctx =
            if lower_cover then ctx
            else
              List.fold_left
                (fun c (b : bound) ->
                  Poly.add_ge c (Aff.sub (Aff.scale b.den t) b.num))
                ctx lower
          in
          if upper_cover then ctx
          else
            List.fold_left
              (fun c (b : bound) -> Poly.add_ge c (Aff.sub b.num (Aff.scale b.den t)))
              ctx upper
        in
        Loop { var = tvar level; lower; lower_cover; upper; upper_cover;
               body = gen infos' (level + 1) ctx' }
      in
      match groups with
      | [ g ] -> [ emit_group g ]
      | gs ->
          (* Sort groups by the strictly-before relation on representatives;
             every cross-group pair must be ordered or generation fails. *)
          let before g1 g2 =
            List.for_all
              (fun i ->
                List.for_all
                  (fun j -> strictly_before ~tspace ~level tproj.(i) tproj.(j))
                  g2)
              g1
          in
          let sorted =
            List.sort
              (fun g1 g2 ->
                if before g1 g2 then -1
                else if before g2 g1 then 1
                else
                  failwith
                    (Printf.sprintf
                       "Codegen: interleaved disjoint domains at loop level %d" level))
              gs
          in
          List.map emit_group sorted
    end
  in
  gen all_infos 1 (Poly.cast tspace prog.Program.context)

(* --- Interpreter ------------------------------------------------------------- *)

let eval_bound env (b : bound) = Q.make (Aff.eval b.num env) b.den

let interpret (prog : Program.t) ast ~params =
  ignore prog;
  let out = ref [] in
  let limit = 1_000_000 in
  let rec go env = function
    | Exec { stmt; bindings } ->
        let inst =
          List.map
            (fun (v, b) ->
              let q = eval_bound env b in
              if not (Q.is_integer q) then
                failwith "Codegen.interpret: non-integral binding without guard";
              (v, Q.to_int_exn q))
            bindings
        in
        out := (stmt, inst) :: !out
    | Guarded (gs, body) ->
        let ok =
          List.for_all
            (function
              | Ge a -> Aff.eval a env >= 0
              | Divisible (a, d) -> Aff.eval a env mod d = 0)
            gs
        in
        if ok then go env body
    | Loop { var; lower; lower_cover; upper; upper_cover; body } ->
        let fold f init g l = List.fold_left (fun acc b -> f acc (g (eval_bound env b))) init l in
        let lo =
          if lower_cover then fold min max_int Q.ceil lower
          else fold max min_int Q.ceil lower
        in
        let hi =
          if upper_cover then fold max min_int Q.floor upper
          else fold min max_int Q.floor upper
        in
        if lo < -limit || hi > limit then failwith "Codegen.interpret: runaway loop";
        for v = lo to hi do
          let env' n = if n = var then v else env n in
          List.iter (go env') body
        done
  in
  let env n = List.assoc n params in
  List.iter (go env) ast;
  List.rev !out

(* --- Pretty printer ------------------------------------------------------------ *)

let bound_str ~round (b : bound) =
  let e = Format.asprintf "%a" Aff.pp b.num in
  if b.den = 1 then e
  else Printf.sprintf "%s(%s, %d)" (match round with `Ceil -> "ceild" | `Floor -> "floord") e b.den

let rec combine f = function
  | [] -> assert false
  | [ x ] -> x
  | x :: rest -> Printf.sprintf "%s(%s, %s)" f x (combine f rest)

let guard_str = function
  | Ge a -> Format.asprintf "%a >= 0" Aff.pp a
  | Divisible (a, d) -> Format.asprintf "(%a) %% %d == 0" Aff.pp a d

let kernel_comment (prog : Program.t) stmt =
  let s = Program.find_stmt prog stmt in
  let w =
    match Stmt.write_access s with
    | Some (a : Access.t) -> a.Access.array
    | None -> "?"
  in
  let reads =
    List.map (fun (a : Access.t) -> a.Access.array) (Stmt.operand_reads s)
  in
  let k = Kernel.info s.Stmt.kernel in
  Printf.sprintf "%s: %s %s= %s" stmt w
    (if k.Kernel.accumulating then "+" else "")
    (String.concat k.Kernel.op (match reads with [] -> [ "..." ] | l -> l))

let to_c prog ast =
  let buf = Buffer.create 1024 in
  let pad n = String.make (2 * n) ' ' in
  let rec emit depth node =
    match node with
    | Loop { var; lower; lower_cover; upper; upper_cover; body } ->
        let lo =
          combine (if lower_cover then "min" else "max")
            (List.map (bound_str ~round:`Ceil) lower)
        in
        let hi =
          combine (if upper_cover then "max" else "min")
            (List.map (bound_str ~round:`Floor) upper)
        in
        Buffer.add_string buf
          (Printf.sprintf "%sfor (%s = %s; %s <= %s; %s++) {\n" (pad depth) var lo var hi var);
        List.iter (emit (depth + 1)) body;
        Buffer.add_string buf (Printf.sprintf "%s}\n" (pad depth))
    | Guarded (gs, body) ->
        Buffer.add_string buf
          (Printf.sprintf "%sif (%s) {\n" (pad depth)
             (String.concat " && " (List.map guard_str gs)));
        emit (depth + 1) body;
        Buffer.add_string buf (Printf.sprintf "%s}\n" (pad depth))
    | Exec { stmt; bindings } ->
        let args =
          String.concat ", "
            (List.map
               (fun (v, b) ->
                 Printf.sprintf "%s = %s" v (bound_str ~round:`Floor b))
               bindings)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%s(%s);  // %s\n" (pad depth) stmt args
             (kernel_comment prog stmt))
  in
  List.iter (emit 0) ast;
  Buffer.contents buf
