module Sched = Riot_ir.Sched
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Access = Riot_ir.Access
module Coaccess = Riot_analysis.Coaccess
module Deps = Riot_analysis.Deps

let lookup_in inst params n =
  match List.assoc_opt n inst with Some v -> v | None -> List.assoc n params

let times (prog : Program.t) ~sched ~params =
  List.concat_map
    (fun (s : Stmt.t) ->
      let rows = Sched.find sched s.Stmt.name in
      List.map
        (fun inst -> (s.Stmt.name, inst, Sched.time_of rows (lookup_in inst params)))
        (Program.instances prog s ~params))
    prog.Program.stmts

let time_of prog ~sched ~params stmt inst =
  let rows = Sched.find sched stmt in
  ignore prog;
  Sched.time_of rows (lookup_in inst params)

let legal (prog : Program.t) ~sched ~params =
  let pairs = Deps.concrete_dependence_pairs prog ~params in
  List.for_all
    (fun ((s1, i1), (s2, i2)) ->
      Sched.lex_lt
        (time_of prog ~sched ~params s1 i1)
        (time_of prog ~sched ~params s2 i2))
    pairs

let injective (prog : Program.t) ~sched ~params =
  let seen = Hashtbl.create 1024 in
  List.for_all
    (fun (_, _, time) ->
      let k = Array.to_list time in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (times prog ~sched ~params)

(* [t2 - t1], the shorter vector padded with zeros. *)
let diff t1 t2 =
  let n = max (Array.length t1) (Array.length t2) in
  Array.init n (fun i ->
      let get v j = if j < Array.length v then v.(j) else 0 in
      get t2 i - get t1 i)

(* The Table-1 condition over the time differences of an opportunity's
   pairs. *)
let realizes_diffs (ca : Coaccess.t) diffs =
  let is_read_read =
    ca.Coaccess.src_typ = Access.Read && ca.Coaccess.dst_typ = Access.Read
  in
  if Coaccess.is_self ca then begin
    (* (0,...,0,c,0) with c = 1, or a consistent c in {1,-1} for R->R. *)
    let ok_shape d =
      let n = Array.length d in
      n >= 2
      && Array.for_all (fun v -> v = 0) (Array.sub d 0 (n - 2))
      && d.(n - 1) = 0
      && (if is_read_read then abs d.(n - 2) = 1 else d.(n - 2) = 1)
    in
    List.for_all ok_shape diffs
    &&
    match diffs with
    | [] -> true
    | d0 :: rest ->
        let n = Array.length d0 in
        List.for_all (fun d -> d.(n - 2) = d0.(n - 2)) rest
  end
  else begin
    (* (0,...,0,c) with c > 0, or consistent c <> 0 for R->R. *)
    let ok_shape d =
      let n = Array.length d in
      n >= 1
      && Array.for_all (fun v -> v = 0) (Array.sub d 0 (n - 1))
      && (if is_read_read then d.(n - 1) <> 0 else d.(n - 1) > 0)
    in
    List.for_all ok_shape diffs
  end

let realizes (prog : Program.t) ~sched ~params (ca : Coaccess.t) =
  realizes_diffs ca
    (List.map
       (fun (src, dst) ->
         diff
           (time_of prog ~sched ~params ca.Coaccess.src_stmt src)
           (time_of prog ~sched ~params ca.Coaccess.dst_stmt dst))
       (Coaccess.pairs_at ca ~params))

(* --- The cached checker ------------------------------------------------- *)

type checker = {
  cparams : (string * int) list;
  stmts : Stmt.t array;
  stmt_of : int array;  (* instance id -> statement index *)
  points : int array array;  (* instance id -> point over its statement's space *)
  inst_id : (string * (string * int) list, int) Hashtbl.t;
  ground_pairs : (int * int) array;  (* instance ids *)
  extent_pairs : (string, (int * int) array) Hashtbl.t;
  frozen : bool;
      (* set when every co-access of interest was prefilled; a frozen checker
         never mutates [extent_pairs] and is safe to share across domains *)
}

let inst_key inst = List.sort compare inst

let intern c pairs =
  let id stmt inst =
    match Hashtbl.find_opt c.inst_id (stmt, inst_key inst) with
    | Some g -> g
    | None ->
        invalid_arg
          (Printf.sprintf "Verify.checker: an instance of %s outside its instance set" stmt)
  in
  Array.of_list (List.map (fun ((s1, i1), (s2, i2)) -> (id s1 i1, id s2 i2)) pairs)

let coaccess_pairs c (ca : Coaccess.t) =
  List.map
    (fun (src, dst) -> ((ca.Coaccess.src_stmt, src), (ca.Coaccess.dst_stmt, dst)))
    (Coaccess.pairs_at ca ~params:c.cparams)

let checker ?(coaccesses = []) (prog : Program.t) ~params =
  let stmts = Array.of_list prog.Program.stmts in
  (* Instance ids run statement by statement, in enumeration order. *)
  let insts =
    Array.of_list
      (List.concat
         (List.mapi
            (fun k s -> List.map (fun inst -> (k, inst)) (Program.instances prog s ~params))
            prog.Program.stmts))
  in
  let inst_id = Hashtbl.create 256 in
  Array.iteri
    (fun g (k, inst) -> Hashtbl.replace inst_id (stmts.(k).Stmt.name, inst_key inst) g)
    insts;
  let c =
    { cparams = params;
      stmts;
      stmt_of = Array.map fst insts;
      points = Array.map (fun (k, inst) -> Stmt.point stmts.(k) ~params inst) insts;
      inst_id;
      ground_pairs = [||];
      extent_pairs = Hashtbl.create 32;
      frozen = coaccesses <> [] }
  in
  List.iter
    (fun ca ->
      let key = Coaccess.key ca in
      if not (Hashtbl.mem c.extent_pairs key) then
        Hashtbl.add c.extent_pairs key (intern c (coaccess_pairs c ca)))
    coaccesses;
  { c with ground_pairs = intern c (Deps.concrete_dependence_pairs prog ~params) }

(* Every instance's time under [sched], by id: each statement's rows are
   aligned with its space once, then evaluated once per instance. *)
let times_by_id c sched =
  let rows =
    Array.map
      (fun (s : Stmt.t) -> Sched.over s.Stmt.space (Sched.find sched s.Stmt.name))
      c.stmts
  in
  Array.mapi (fun g p -> Sched.time_of_vec rows.(c.stmt_of.(g)) p) c.points

let legal_at c times =
  Array.for_all (fun (a, b) -> Sched.lex_lt times.(a) times.(b)) c.ground_pairs

let injective_at times =
  let seen = Hashtbl.create 1024 in
  Array.for_all
    (fun t ->
      (not (Hashtbl.mem seen t))
      && begin
           Hashtbl.add seen t ();
           true
         end)
    times

let realizes_at c times (ca : Coaccess.t) =
  let key = Coaccess.key ca in
  let pairs =
    match Hashtbl.find_opt c.extent_pairs key with
    | Some p -> p
    | None ->
        let p = intern c (coaccess_pairs c ca) in
        if not c.frozen then Hashtbl.add c.extent_pairs key p;
        p
  in
  realizes_diffs ca
    (Array.to_list (Array.map (fun (a, b) -> diff times.(a) times.(b)) pairs))

let check_legal c sched = legal_at c (times_by_id c sched)
let check_injective c sched = injective_at (times_by_id c sched)
let check_realizes c ca sched = realizes_at c (times_by_id c sched) ca

let check c ~q sched =
  let times = times_by_id c sched in
  legal_at c times && injective_at times && List.for_all (realizes_at c times) q
