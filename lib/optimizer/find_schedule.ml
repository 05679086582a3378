module Space = Riot_poly.Space
module Poly = Riot_poly.Poly
module Aff = Riot_poly.Aff
module Q = Riot_base.Q
module Mat = Riot_linalg.Mat
module Stmt = Riot_ir.Stmt
module Program = Riot_ir.Program
module Access = Riot_ir.Access
module Coaccess = Riot_analysis.Coaccess

let log = Logs.Src.create "riot.optimizer.findsched" ~doc:"FindSchedule"

module Log = (val Logs.src_log log : Logs.LOG)

(* --- Sampling with connected-component decomposition -------------------- *)

(* Deterministic work budget for integer sampling.  The bound descent in
   [Poly.sample] is exponential in the number of coupled schedule-coefficient
   dimensions that carry no two-side bound, and one pathological candidate
   (e.g. an identity access coupled to a rank-deficient diagonal one) can
   otherwise stall the whole enumeration for hours.  The budget counts search
   -tree nodes via the [prefer] hook and spans a whole [find] call, so a
   candidate's total work stays bounded across components, range retries and
   non-zero-forcing branches.  Running out reads as "no schedule found",
   which the greedy heuristic is always free to answer. *)
let sample_fuel = 100_000

exception Out_of_fuel

(* One search's memo, shared by every domain of its pool: emptiness verdicts
   of components, and per component and window the sample drawn with the
   fuel the draw spent.  A sample depends on its key alone, and a draw
   raises [Out_of_fuel] exactly when the fuel it spends exceeds what is
   left, so a hit that charges the recorded fuel behaves as a fresh draw
   would: the same point, or [Out_of_fuel] at the same component. *)
type memo = {
  empty : Poly.memo;
  lock : Mutex.t;
  samples : (int * ((string * int) list option * int)) list Poly.Tbl.t;
}

let memo () = { empty = Poly.memo (); lock = Mutex.create (); samples = Poly.Tbl.create 64 }
let fm_components m = Poly.memo_size m.empty
let fm_giveups m = Poly.memo_giveups m.empty

let samples_drawn m =
  Mutex.protect m.lock (fun () ->
      Poly.Tbl.fold (fun _ draws n -> n + List.length draws) m.samples 0)

let budgeted_sample ~memo ~fuel ~range p =
  let prefer _k candidates =
    fuel := !fuel - List.length candidates;
    if !fuel < 0 then raise Out_of_fuel;
    (* Default ordering of [Poly.sample]: nearest to zero first. *)
    List.stable_sort (fun a b -> compare (abs a, a) (abs b, b)) candidates
  in
  let draws () = Option.value ~default:[] (Poly.Tbl.find_opt memo.samples p) in
  if !fuel < 0 then None
  else
    match List.assoc_opt range (Mutex.protect memo.lock draws) with
    | Some (pt, spent) ->
        fuel := !fuel - spent;
        if !fuel < 0 then raise Out_of_fuel;
        pt
    | None ->
        let before = !fuel in
        let pt = Poly.sample ~range ~prefer ~fm_budget:2000 p in
        Mutex.protect memo.lock (fun () ->
            Poly.Tbl.replace memo.samples p
              ((range, (pt, before - !fuel)) :: List.remove_assoc range (draws ())));
        pt

(* The unknown space couples statements only through shared constraints;
   sampling each connected component on its own keeps the recursive bound
   descent tractable.  Dimensions in no constraint default to zero without
   spending fuel. *)
let sample_decomposed ~memo ~fuel ~range p =
  let p = Poly.simplify p in
  if Poly.is_obviously_empty p then None
  else
    let exception Fail in
    try
      let assignment = Hashtbl.create 16 in
      List.iter
        (fun c ->
          match budgeted_sample ~memo ~fuel ~range c with
          | Some pt -> List.iter (fun (nm, v) -> Hashtbl.replace assignment nm v) pt
          | None -> raise Fail)
        (Poly.split_components p);
      let value nm = Option.value ~default:0 (Hashtbl.find_opt assignment nm) in
      if Poly.mem p value then
        Some (List.map (fun nm -> (nm, value nm)) (Space.names (Poly.space p)))
      else None
    with Fail -> None

let sample_with_retries ~memo ~fuel p =
  match sample_decomposed ~memo ~fuel ~range:3 p with
  | Some pt -> Some pt
  | None -> sample_decomposed ~memo ~fuel ~range:16 p

(* Sample a point such that, for each name-set in [nonzero], at least one of
   the names is non-zero (needed for rows that must be linearly
   independent). *)
let sample_nonzero ~fuel ~memo p ~nonzero =
  let ok pt =
    List.for_all
      (fun names -> List.exists (fun nm -> List.assoc nm pt <> 0) names)
      nonzero
  in
  match sample_with_retries ~memo ~fuel p with
  | Some pt when ok pt -> Some pt
  | base -> (
      ignore base;
      (* Force non-zero coefficients set by set, backtracking over which
         coefficient of each set is forced and in which direction. *)
      let space = Poly.space p in
      let candidates cur names =
        List.concat_map
          (fun nm ->
            [ Poly.add_ge cur (Aff.add_const (Aff.dim space nm) (-1));
              Poly.add_ge cur (Aff.add_const (Aff.scale (-1) (Aff.dim space nm)) (-1)) ])
          names
      in
      let rec force cur = function
        | [] -> sample_with_retries ~memo ~fuel cur
        | names :: rest ->
            List.find_map
              (fun p2 ->
                if Poly.is_rationally_empty ~memo:memo.empty p2 then None
                else force p2 rest)
              (candidates cur names)
      in
      match nonzero with
      | [] -> None
      | _ ->
          (match force p nonzero with
          | Some pt when ok pt -> Some pt
          | _ -> None))

(* --- Classification of sharing opportunities (Table 1) ------------------ *)

type klass = Self_write | Self_read | Nonself_write | Nonself_read

let classify (ca : Coaccess.t) =
  let self = Coaccess.is_self ca in
  match (ca.Coaccess.src_typ, ca.Coaccess.dst_typ) with
  | Access.Write, _ -> if self then Self_write else Nonself_write
  | Access.Read, Access.Read -> if self then Self_read else Nonself_read
  | Access.Read, Access.Write -> invalid_arg "classify: R->W is not a sharing opportunity"

(* --- The main search ----------------------------------------------------- *)

let find ?(memo = memo ()) ss ~prog ~q ~deps =
  let fuel = ref sample_fuel in
  (* Emptiness verdicts and samples repeat heavily across the depths,
     statements and sign combinations of one call, and across the candidate
     sets of one search: the caller passes the search's memo, so a component
     is decided once per search, whichever domain meets it first. *)
  let empty = memo.empty in
  let dtil = Program.max_depth prog in
  let stmts = prog.Program.stmts in
  let u = Sched_space.space ss in
  let qsw = List.filter (fun c -> classify c = Self_write) q in
  let qsr = List.filter (fun c -> classify c = Self_read) q in
  let qnw = List.filter (fun c -> classify c = Nonself_write) q in
  let qnr = List.filter (fun c -> classify c = Nonself_read) q in
  (* State threaded through depths. *)
  let module State = struct
    type t = {
      remaining : Coaccess.t list;  (* dependences not yet strongly satisfied *)
      ks : (string * int) list;  (* independent rows chosen so far *)
      prev_rows : (string * int list list) list;  (* loop-coeff vectors *)
      rows : (string * Aff.t list) list;  (* sampled schedule rows (reversed) *)
    }
  end in
  let init =
    { State.remaining = deps;
      ks = List.map (fun (s : Stmt.t) -> (s.Stmt.name, 0)) stmts;
      prev_rows = List.map (fun (s : Stmt.t) -> (s.Stmt.name, [])) stmts;
      rows = List.map (fun (s : Stmt.t) -> (s.Stmt.name, [])) stmts }
  in
  let intersect_all x polys = List.fold_left Poly.intersect x polys in
  (* One depth; [qsr_signs] gives the +-1 choice for each self R->R at the
     last depth. *)
  let depth_step (st : State.t) ~d ~qsr_signs =
    let x = Poly.universe u in
    let x = intersect_all x (List.map (Sched_space.weak ss) st.State.remaining) in
    let x = intersect_all x (List.map (Sched_space.equal_zero ss) (qnw @ qnr)) in
    let x =
      if d < dtil then intersect_all x (List.map (Sched_space.equal_zero ss) (qsw @ qsr))
      else
        let x = intersect_all x (List.map (Sched_space.equal_const ss ~delta:1) qsw) in
        List.fold_left2
          (fun x ca sign -> Poly.intersect x (Sched_space.equal_const ss ~delta:sign ca))
          x qsr qsr_signs
    in
    if Poly.is_rationally_empty ~memo:empty x then begin
      Log.debug (fun m -> m "depth %d: constraint system empty" d);
      None
    end
    else begin
      (* Dimensionality constraints, statement by statement (Algorithm 1):
         l = 0 keeps the row inside the span of previous rows, l = 1 forces
         it into their orthogonal complement. *)
      let exception Fail in
      try
        let x = ref x and choices = ref [] and new_ks = ref [] in
        List.iter
          (fun (s : Stmt.t) ->
            let name = s.Stmt.name in
            let k = List.assoc name st.State.ks in
            let ds = Stmt.depth s in
            let loop_names = Sched_space.loop_coeff_names ss ~stmt:name in
            let prev = List.assoc name st.State.prev_rows in
            let options = if dtil - d < ds - k then [ 1 ] else [ 0; 1 ] in
            let constraint_for l =
              match l with
              | 0 ->
                  (* Orthogonal to the null space of previous rows, i.e. in
                     their span. *)
                  let m =
                    Array.of_list
                      (List.map (fun r -> Array.of_list (List.map Q.of_int r)) prev)
                  in
                  let m = if Array.length m = 0 then [| Array.make (List.length loop_names) Q.zero |] else m in
                  let basis = List.map Riot_linalg.Vec.normalize (Mat.null_space m) in
                  List.map
                    (fun v ->
                      Aff.of_assoc u
                        (List.mapi (fun i nm -> (nm, Q.num v.(i))) loop_names))
                    basis
              | _ ->
                  (* Orthogonal to each previous row. *)
                  List.map
                    (fun r ->
                      Aff.of_assoc u (List.map2 (fun nm c -> (nm, c)) loop_names r))
                    prev
            in
            let try_l l =
              let eqs = constraint_for l in
              let x' = List.fold_left Poly.add_eq !x eqs in
              if Poly.is_rationally_empty ~memo:empty x' then None else Some (x', l)
            in
            match List.find_map try_l options with
            | Some (x', l) ->
                x := x';
                choices := (name, l) :: !choices;
                new_ks := (name, k + l) :: !new_ks
            | None ->
                Log.debug (fun m -> m "depth %d: dimensionality failed for %s" d name);
                raise Fail)
          stmts;
        (* Strongly satisfy as many remaining dependences as possible. *)
        let remaining =
          List.filter
            (fun dep ->
              let x' = Poly.intersect !x (Sched_space.strong ss dep) in
              if Poly.is_rationally_empty ~memo:empty x' then true
              else begin
                x := x';
                false
              end)
            st.State.remaining
        in
        (* Statements whose row must be linearly independent need a non-zero
           loop-coefficient vector. *)
        let nonzero =
          List.filter_map
            (fun (nm, l) ->
              if l = 1 then Some (Sched_space.loop_coeff_names ss ~stmt:nm) else None)
            !choices
        in
        match sample_nonzero ~fuel ~memo !x ~nonzero with
        | None ->
            Log.debug (fun m -> m "depth %d: sampling failed for %a with nonzero=[%s]" d Poly.pp !x (String.concat "; " (List.map (String.concat ",") nonzero)));
            None
        | Some pt ->
            let rows =
              List.map
                (fun (s : Stmt.t) ->
                  let row = Sched_space.row_of_point ss ~stmt:s pt in
                  (s.Stmt.name, row :: List.assoc s.Stmt.name st.State.rows))
                stmts
            in
            let prev_rows =
              List.map
                (fun (s : Stmt.t) ->
                  let nm = s.Stmt.name in
                  let loop_names = Sched_space.loop_coeff_names ss ~stmt:nm in
                  let vec = List.map (fun n -> List.assoc n pt) loop_names in
                  let l = List.assoc nm !choices in
                  let prev = List.assoc nm st.State.prev_rows in
                  (nm, if l = 1 then vec :: prev else prev))
                stmts
            in
            Some { State.remaining; ks = !new_ks; prev_rows; rows }
      with Fail -> None
    end
  in
  (* Constants for the last dimension by topological sort. *)
  let assign_constants (st : State.t) =
    (* Remaining self dependences can no longer be satisfied. *)
    if List.exists Coaccess.is_self st.State.remaining then None
    else begin
      let names = List.map (fun (s : Stmt.t) -> s.Stmt.name) stmts in
      let edges =
        List.filter_map
          (fun (ca : Coaccess.t) ->
            if Coaccess.is_self ca then None
            else Some (ca.Coaccess.src_stmt, ca.Coaccess.dst_stmt))
          (st.State.remaining @ qnw @ qnr)
      in
      (* Kahn's algorithm; all statements receive distinct constants in a
         topological order of the constraints. *)
      let indeg = Hashtbl.create 8 in
      List.iter (fun n -> Hashtbl.replace indeg n 0) names;
      List.iter
        (fun (_, d) -> Hashtbl.replace indeg d (1 + Hashtbl.find indeg d))
        edges;
      let order = ref [] in
      let queue = Queue.create () in
      List.iter (fun n -> if Hashtbl.find indeg n = 0 then Queue.add n queue) names;
      while not (Queue.is_empty queue) do
        let n = Queue.pop queue in
        order := n :: !order;
        List.iter
          (fun (s, d) ->
            if s = n then begin
              let v = Hashtbl.find indeg d - 1 in
              Hashtbl.replace indeg d v;
              if v = 0 then Queue.add d queue
            end)
          edges
      done;
      if List.length !order <> List.length names then None (* cycle *)
      else begin
        let order = List.rev !order in
        Some
          (List.map
             (fun (s : Stmt.t) ->
               let nm = s.Stmt.name in
               let c =
                 let rec idx i = function
                   | [] -> 0
                   | x :: _ when x = nm -> i
                   | _ :: r -> idx (i + 1) r
                 in
                 idx 0 order
               in
               let rows = List.rev (List.assoc nm st.State.rows) in
               (nm, Array.of_list (rows @ [ Aff.const s.Stmt.space c ])))
             stmts)
      end
    end
  in
  (* Run depths 1..dtil, branching over the +-1 choices of self R->R
     opportunities at the last depth. *)
  let rec run st d ~qsr_signs =
    if d > dtil then assign_constants st
    else
      match depth_step st ~d ~qsr_signs with
      | Some st' -> run st' (d + 1) ~qsr_signs
      | None -> None
  in
  let rec sign_combos = function
    | [] -> [ [] ]
    | _ :: rest ->
        let tails = sign_combos rest in
        List.concat_map (fun t -> [ 1 :: t; -1 :: t ]) tails
  in
  if dtil = 0 then assign_constants init
  else
    try
      List.find_map
        (fun qsr_signs ->
          Log.debug (fun m -> m "trying sign combo");
          run init 1 ~qsr_signs)
        (sign_combos qsr)
    with Out_of_fuel ->
      Log.warn (fun m ->
          m "sampling budget exhausted for {%s}; candidate dropped"
            (String.concat ", " (List.map Coaccess.label q)));
      None
