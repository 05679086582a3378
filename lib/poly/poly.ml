module C = Riot_base.Checked
module Q = Riot_base.Q

type t = { space : Space.t; eqs : Aff.t list; ges : Aff.t list }

let space t = t.space
let universe space = { space; eqs = []; ges = [] }
let of_constraints space ~eqs ~ges = { space; eqs; ges }
let eqs t = t.eqs
let ges t = t.ges
let add_eq t aff = { t with eqs = aff :: t.eqs }
let add_ge t aff = { t with ges = aff :: t.ges }
let add_gt t aff = { t with ges = Aff.add_const aff (-1) :: t.ges }

let intersect a b =
  if not (Space.equal a.space b.space) then invalid_arg "Poly.intersect: space mismatch";
  { a with eqs = a.eqs @ b.eqs; ges = a.ges @ b.ges }

let cast space t =
  { space; eqs = List.map (Aff.cast space) t.eqs; ges = List.map (Aff.cast space) t.ges }

let product a b =
  let space = Space.concat a.space b.space in
  intersect (cast space a) (cast space b)

(* --- Constraint normalisation ----------------------------------------- *)

(* The canonical empty polyhedron: 0 >= -1 is recognisable syntactically. *)
let empty space = { space; eqs = []; ges = [ Aff.const space (-1) ] }

exception Infeasible

(* Canonical sign: first non-zero coefficient positive, so structurally equal
   equalities of opposite sign share one representative. *)
let canon_sign aff =
  let rec lead i =
    if i >= Array.length aff.Aff.coeffs then 1
    else if aff.Aff.coeffs.(i) > 0 then 1
    else if aff.Aff.coeffs.(i) < 0 then -1
    else lead (i + 1)
  in
  if lead 0 < 0 then Aff.neg aff else aff

(* Normalise an equality [aff = 0]. Returns [None] for the trivial 0 = 0.
   With [tighten], an equality whose coefficient gcd does not divide the
   constant has no integer solution.
   @raise Infeasible when no solution can exist. *)
let norm_eq ~tighten aff =
  let g = Aff.content_gcd aff in
  if g = 0 then if aff.Aff.const = 0 then None else raise Infeasible
  else if aff.Aff.const mod g <> 0 then
    if tighten then raise Infeasible
    else
      let g = C.gcd g aff.Aff.const in
      let aff =
        if g <= 1 then aff
        else { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                        Aff.const = aff.Aff.const / g }
      in
      Some (canon_sign aff)
  else
    let aff = { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                         Aff.const = aff.Aff.const / g } in
    Some (canon_sign aff)

(* Normalise an inequality [aff >= 0]. [tighten] may round the constant down
   (valid over the integers only). Returns [None] for a trivially true
   constraint. @raise Infeasible when trivially false. *)
let norm_ge ~tighten aff =
  let g = Aff.content_gcd aff in
  if g = 0 then if aff.Aff.const >= 0 then None else raise Infeasible
  else if tighten then
    Some
      { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                 Aff.const = C.fdiv aff.Aff.const g }
  else
    let g = C.gcd g aff.Aff.const in
    if g <= 1 then Some aff
    else
      Some
        { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                   Aff.const = aff.Aff.const / g }

(* Constraint tables key on coefficient rows and hash every coefficient:
   the polymorphic [Hashtbl.hash] reads only about ten words, so the wide,
   mostly-zero rows of a schedule-coefficient space would share leading
   zeros and pile into one bucket. *)
let hash_row coeffs const =
  let h = ref const in
  for i = 0 to Array.length coeffs - 1 do
    h := (!h * 31) + coeffs.(i)
  done;
  !h land max_int

let equal_row (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* Keys are coefficient rows: [key] (with the constant) identifies a
   constraint, [coeff_key] the direction its inequality bounds. *)
module Rows = Hashtbl.Make (struct
  type t = int array * int

  let equal ((a, k) : t) (b, l) = k = l && equal_row a b
  let hash ((a, k) : t) = hash_row a k
end)

let key aff = (aff.Aff.coeffs, aff.Aff.const)
let coeff_key aff = (aff.Aff.coeffs, 0)

(* Drop repeated equalities, keeping first occurrences in order. *)
let dedup_eqs eqs =
  let seen = Rows.create 16 in
  List.filter
    (fun a ->
      let k = key a in
      if Rows.mem seen k then false
      else begin
        Rows.add seen k ();
        true
      end)
    eqs

(* The strongest (smallest) constant per inequality direction. *)
let strongest ges =
  let best = Rows.create 16 in
  List.iter
    (fun a ->
      let k = coeff_key a in
      match Rows.find_opt best k with
      | Some c when c <= a.Aff.const -> ()
      | _ -> Rows.replace best k a.Aff.const)
    ges;
  best

let simplify_exn ?(tighten = true) t =
  let eqs = dedup_eqs (List.filter_map (norm_eq ~tighten) t.eqs) in
  let ges = List.filter_map (norm_ge ~tighten) t.ges in
  (* For inequalities sharing a coefficient vector keep only the strongest
     (smallest constant); detect opposite pairs that form an equality. *)
  let best = strongest ges in
  let promoted = ref [] in
  let ges =
    List.filter_map
      (fun a ->
        let k = coeff_key a in
        match Rows.find_opt best k with
        | Some c when c = a.Aff.const ->
            Rows.remove best k;
            (* Opposite direction present with exactly opposite constant? *)
            let nk = coeff_key (Aff.neg a) in
            (match Rows.find_opt best nk with
            | Some nc when nc = -a.Aff.const ->
                Rows.remove best nk;
                promoted := a :: !promoted;
                None
            | _ -> Some a)
        | _ -> None)
      ges
  in
  let extra_eqs = List.filter_map (norm_eq ~tighten) !promoted in
  { t with eqs = eqs @ extra_eqs; ges }

let simplify ?tighten t = try simplify_exn ?tighten t with Infeasible -> empty t.space

let is_obviously_empty t =
  List.exists (fun a -> Aff.is_constant a && a.Aff.const < 0) t.ges
  || List.exists (fun a -> Aff.is_constant a && a.Aff.const <> 0) t.eqs

(* --- Fourier–Motzkin elimination --------------------------------------- *)

(* Lightweight redundancy elimination: drop syntactic duplicates and
   inequalities dominated by an identical-coefficient row with a smaller
   constant (for [c.x + k >= 0], smaller [k] is stronger).  Unlike
   [simplify] this performs no gcd normalisation or infeasibility analysis,
   so it is cheap enough to run after every projection step; repeated
   eliminations otherwise multiply near-identical rows. *)
let compact t =
  let best = strongest t.ges in
  let ges =
    List.filter
      (fun a ->
        let k = coeff_key a in
        match Rows.find_opt best k with
        | Some c when c = a.Aff.const ->
            Rows.remove best k;
            true
        | _ -> false)
      t.ges
  in
  { t with eqs = dedup_eqs t.eqs; ges }

exception Fm_budget_exceeded

(* Eliminate one dimension. Prefers exact substitution via an equality with a
   unit coefficient; otherwise falls back to FM over the inequalities (with
   non-unit equalities split into two inequalities).  [combo_budget], when
   given, raises [Fm_budget_exceeded] sooner than materializing more than
   that many pos*neg combinations — the step that makes FM double
   exponential. *)
let eliminate_one ?combo_budget ~tighten t i =
  let coeff a = a.Aff.coeffs.(i) in
  let unit_eq = List.find_opt (fun a -> abs (coeff a) = 1) (List.filter (fun a -> coeff a <> 0) t.eqs) in
  match unit_eq with
  | Some e ->
      (* e = c*x + rest = 0  =>  x = -rest/c = -c*rest (|c| = 1). *)
      let c = coeff e in
      let rest = { e with Aff.coeffs = Array.copy e.Aff.coeffs } in
      rest.Aff.coeffs.(i) <- 0;
      let r = Aff.scale (-c) rest in
      let sub a = Aff.subst_at a i r in
      compact
        { t with
          eqs = List.filter (fun a -> not (a == e)) t.eqs |> List.map sub;
          ges = List.map sub t.ges }
  | None ->
      let eq_with, eq_without = List.partition (fun a -> coeff a <> 0) t.eqs in
      let ges = t.ges @ List.concat_map (fun a -> [ a; Aff.neg a ]) eq_with in
      let pos, rest = List.partition (fun a -> coeff a > 0) ges in
      let negs, zero = List.partition (fun a -> coeff a < 0) rest in
      (match combo_budget with
      | Some b when List.length pos * List.length negs > b ->
          raise Fm_budget_exceeded
      | _ -> ());
      let combos =
        List.concat_map
          (fun p ->
            List.map
              (fun n ->
                (* p: a*x + e >= 0 (a>0);  n: -b*x + f >= 0 (b>0)
                   =>  b*e + a*f >= 0 *)
                let a = coeff p and b = -coeff n in
                let g = C.gcd a b in
                let c = Aff.add (Aff.scale (b / g) p) (Aff.scale (a / g) n) in
                c)
              negs)
          pos
      in
      simplify ~tighten { t with eqs = eq_without; ges = zero @ combos }

let eliminate ?(tighten = true) t names =
  let t = simplify ~tighten t in
  if is_obviously_empty t then empty t.space
  else
    List.fold_left
      (fun t name ->
        if is_obviously_empty t then empty t.space
        else eliminate_one ~tighten t (Space.index t.space name))
      t names

let drop_dims t names =
  let t = eliminate t names in
  let space = Space.remove t.space names in
  cast space t

let fix_dims t assignments =
  let fix a = Aff.fix_dims a assignments in
  let names = List.map fst assignments in
  let space = Space.remove t.space names in
  cast space { t with eqs = List.map fix t.eqs; ges = List.map fix t.ges }

(* Renaming keeps each [Aff.t]'s positional coefficient layout, so the target
   names must stay pairwise distinct: a mapping that collides two dimensions
   would otherwise merge them silently while the coefficient arrays still
   address two separate slots. *)
let renamed_names ~who space mapping =
  let rn n = match List.assoc_opt n mapping with Some m -> m | None -> n in
  let names = List.map rn (Space.names space) in
  let seen = Hashtbl.create 8 in
  List.iter2
    (fun old now ->
      match Hashtbl.find_opt seen now with
      | Some prev ->
          invalid_arg
            (Printf.sprintf "%s: mapping collides dimensions %s and %s onto %s" who
               prev old now)
      | None -> Hashtbl.add seen now old)
    (Space.names space) names;
  names

let rename t mapping =
  let space = Space.of_names (renamed_names ~who:"Poly.rename" t.space mapping) in
  let re a = { a with Aff.space = space } in
  { space; eqs = List.map re t.eqs; ges = List.map re t.ges }

(* --- Emptiness, sampling, enumeration ---------------------------------- *)

(* Connected components of the constraint graph: dimensions coupled by a
   common constraint. Emptiness factorises over components, which keeps
   Fourier-Motzkin elimination local (the schedule-coefficient spaces of the
   optimizer couple statements only pairwise).  Index-based: every
   constraint is assigned to the component of its first non-zero
   coefficient and its coefficients are remapped by position.  Components
   come in order of their smallest dimension; each lists its dimensions in
   decreasing space order, the order the optimizer's sampled schedules
   were always drawn in. *)
let split_components t =
  let n = Space.dim t.space in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let constrained = Array.make n false in
  let touch (a : Aff.t) =
    let first = ref (-1) in
    Array.iteri
      (fun i c ->
        if c <> 0 then begin
          constrained.(i) <- true;
          if !first < 0 then first := i
          else
            let ri = find !first and rj = find i in
            if ri <> rj then parent.(ri) <- rj
        end)
      a.Aff.coeffs
  in
  List.iter touch t.eqs;
  List.iter touch t.ges;
  (* [comp.(root)] numbers the components; [pos.(i)] is dimension [i]'s
     index inside its component. *)
  let comp = Array.make n (-1) and size = Array.make n 0 in
  let ncomp = ref 0 in
  for i = 0 to n - 1 do
    if constrained.(i) then begin
      let r = find i in
      if comp.(r) < 0 then begin
        comp.(r) <- !ncomp;
        incr ncomp
      end;
      size.(comp.(r)) <- size.(comp.(r)) + 1
    end
  done;
  let dims = Array.make !ncomp [] and seen = Array.make !ncomp 0 in
  let pos = Array.make n (-1) in
  for i = 0 to n - 1 do
    if constrained.(i) then begin
      let c = comp.(find i) in
      dims.(c) <- i :: dims.(c);
      pos.(i) <- size.(c) - 1 - seen.(c);
      seen.(c) <- seen.(c) + 1
    end
  done;
  let spaces = Array.map (Space.sub t.space) dims in
  let none = Space.sub t.space [] in
  (* Slot [!ncomp] collects constraints that mention no dimension. *)
  let eqs = Array.make (!ncomp + 1) [] and ges = Array.make (!ncomp + 1) [] in
  let place bucket (a : Aff.t) =
    let first = ref (-1) in
    Array.iteri (fun i c -> if c <> 0 && !first < 0 then first := i) a.Aff.coeffs;
    if !first < 0 then bucket.(!ncomp) <- { a with Aff.space = none; coeffs = [||] } :: bucket.(!ncomp)
    else begin
      let c = comp.(find !first) in
      let coeffs = Array.make size.(c) 0 in
      Array.iteri (fun i v -> if v <> 0 then coeffs.(pos.(i)) <- v) a.Aff.coeffs;
      bucket.(c) <- { a with Aff.space = spaces.(c); coeffs } :: bucket.(c)
    end
  in
  List.iter (place eqs) t.eqs;
  List.iter (place ges) t.ges;
  let part space c = { space; eqs = List.rev eqs.(c); ges = List.rev ges.(c) } in
  let comps = List.init !ncomp (fun c -> part spaces.(c) c) in
  if eqs.(!ncomp) = [] && ges.(!ncomp) = [] then comps else part none !ncomp :: comps

(* Fourier-Motzkin emptiness is double-exponential in the worst case: each
   elimination can square the inequality count.  Past this many inequalities
   in an intermediate system we give up on the component and conservatively
   answer "not provably empty" - sound for every caller, since emptiness only
   gates pruning and dropping (a retained non-empty verdict is re-tested by
   whatever sampling or verification follows). *)
let fm_inequality_budget = 4000

(* Rational emptiness of one component: simplification, then
   Fourier-Motzkin elimination of every dimension. Greedy order: always the
   dimension whose pos*neg inequality product is smallest (ties to the first
   in space order), which delays the blow-up FM is prone to under a fixed
   order.  Dimensions are picked and eliminated by index: no name is looked
   up on the way. *)
let component_empty c =
  let cost c i =
    let pos = ref 0 and neg = ref 0 and eq = ref false in
    List.iter (fun (a : Aff.t) -> if a.Aff.coeffs.(i) <> 0 then eq := true) c.eqs;
    List.iter
      (fun (a : Aff.t) ->
        if a.Aff.coeffs.(i) > 0 then incr pos
        else if a.Aff.coeffs.(i) < 0 then incr neg)
      c.ges;
    if !eq then -1 else !pos * !neg
  in
  let rec go c dims =
    if is_obviously_empty c then true
    else
      match dims with
      | [] -> false
      | d :: rest ->
          let best, _ =
            List.fold_left
              (fun (bi, bc) i ->
                let ci = cost c i in
                if ci < bc then (i, ci) else (bi, bc))
              (d, cost c d) rest
          in
          go
            (eliminate_one ~combo_budget:fm_inequality_budget ~tighten:false c best)
            (List.filter (fun i -> i <> best) dims)
  in
  try go (simplify ~tighten:false c) (List.init (Space.dim c.space) Fun.id)
  with Fm_budget_exceeded -> false

(* Systems keyed exactly as they arrive: dimension names plus every
   coefficient of every constraint, in order.  Order is part of the key
   because an answer can depend on it: which unit equality substitutes a
   dimension is the first in the list, and that shapes the later pos*neg
   counts the budget give-up compares.  Keyed this way a memoised verdict
   or sample is exactly what recomputation would return. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let rec equal_rows l m =
    match (l, m) with
    | [], [] -> true
    | (a : Aff.t) :: l, (b : Aff.t) :: m ->
        a.Aff.const = b.Aff.const && equal_row a.Aff.coeffs b.Aff.coeffs && equal_rows l m
    | _ -> false

  let equal a b = Space.equal a.space b.space && equal_rows a.eqs b.eqs && equal_rows a.ges b.ges

  let hash c =
    let rows h l =
      List.fold_left (fun h (a : Aff.t) -> (h * 65599) + hash_row a.Aff.coeffs a.Aff.const) h l
    in
    rows (rows (Hashtbl.hash c.space) c.eqs + 1) c.ges land max_int
end)

(* One lock guards the table: lookups and inserts are short, and the
   elimination itself runs outside it, so two domains may decide the same
   component at once and store the same verdict. *)
type memo = { lock : Mutex.t; verdicts : bool Tbl.t }

let memo () = { lock = Mutex.create (); verdicts = Tbl.create 256 }
let memo_size m = Mutex.protect m.lock (fun () -> Tbl.length m.verdicts)

(* Normalisation acts row by row and never changes a row's support, so it
   commutes with the split: each component is simplified on its own, and a
   memo hit skips that work as well as the elimination. *)
let is_rationally_empty ?memo t =
  let decide c =
    match memo with
    | None -> component_empty c
    | Some m -> (
        match Mutex.protect m.lock (fun () -> Tbl.find_opt m.verdicts c) with
        | Some v -> v
        | None ->
            let v = component_empty c in
            Mutex.protect m.lock (fun () -> Tbl.replace m.verdicts c v);
            v)
  in
  List.exists decide (split_components t)

(* Levels for bound descent: [levels.(k)] only constrains dims 0..k.
   [fm_budget], when given, caps the pos*neg combination count of every
   projection step: the elimination order here is forced (dims project
   top-down), so one pathological system can otherwise square its
   constraint count at every level.  Overflow raises [Fm_budget_exceeded],
   which [search] reports through the truncation channel. *)
let cascade ?fm_budget t =
  let n = Space.dim t.space in
  let levels = Array.make (max n 1) (simplify t) in
  if n = 0 then levels
  else begin
    levels.(n - 1) <- simplify t;
    for k = n - 1 downto 1 do
      levels.(k - 1) <-
        eliminate_one ?combo_budget:fm_budget ~tighten:true levels.(k) k
    done;
    levels
  end

type bound = { mutable lo : Q.t option; mutable hi : Q.t option; mutable feasible : bool }

(* Candidate integer values for dim [k] of [level] under the partial
   assignment [vals] (indices < k assigned). *)
let dim_bounds level k vals =
  let b = { lo = None; hi = None; feasible = true } in
  let eval_rest a =
    (* All coeffs at indices > k are zero at this level. *)
    let acc = ref a.Aff.const in
    for j = 0 to k - 1 do
      if a.Aff.coeffs.(j) <> 0 then acc := C.add !acc (C.mul a.Aff.coeffs.(j) vals.(j))
    done;
    !acc
  in
  let tighten_lo q = match b.lo with Some l when Q.compare l q >= 0 -> () | _ -> b.lo <- Some q in
  let tighten_hi q = match b.hi with Some h when Q.compare h q <= 0 -> () | _ -> b.hi <- Some q in
  let handle_ge a =
    let c = a.Aff.coeffs.(k) in
    let v = eval_rest a in
    if c = 0 then (if v < 0 then b.feasible <- false)
    else
      let q = Q.make (-v) c in
      if c > 0 then tighten_lo q else tighten_hi q
  in
  let handle_eq a =
    let c = a.Aff.coeffs.(k) in
    let v = eval_rest a in
    if c = 0 then (if v <> 0 then b.feasible <- false)
    else begin
      let q = Q.make (-v) c in
      tighten_lo q;
      tighten_hi q
    end
  in
  List.iter handle_eq (eqs level);
  List.iter handle_ge (ges level);
  b

let default_prefer _k candidates =
  List.stable_sort (fun a b -> compare (abs a, a) (abs b, b)) candidates

let range_list lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* Candidate values for one dimension.  [Exact] windows cover every integer
   the bounds admit; a one-sided or absent bound only yields a [Truncated]
   window of [2*range + 1] values (or [Unbounded], nothing to anchor on), so
   a miss there proves nothing. *)
type window =
  | Window_exact of int list
  | Window_truncated of int list
  | Window_unbounded

let candidates_of_bounds ~range b =
  if not b.feasible then Window_exact []
  else
    let lo = Option.map Q.ceil b.lo and hi = Option.map Q.floor b.hi in
    match (lo, hi) with
    | Some l, Some h -> Window_exact (if l > h then [] else range_list l h)
    | Some l, None -> Window_truncated (range_list l (l + (2 * range)))
    | None, Some h -> Window_truncated (range_list (h - (2 * range)) h)
    | None, None -> Window_unbounded

let search ?(range = 64) ?(prefer = default_prefer) ?on_truncate ?fm_budget ~all
    ?(max_points = 1_000_000) t =
  let n = Space.dim t.space in
  let t = simplify t in
  if is_obviously_empty t then []
  else if n = 0 then [ [] ]
  else begin
    match cascade ?fm_budget t with
    | exception Fm_budget_exceeded ->
        (* Give up, reported like a window truncation: "no point found" is
           a search surrender here, never an emptiness verdict. *)
        (match on_truncate with Some f -> f "<fm-budget>" | None -> ());
        []
    | levels ->
    if Array.exists is_obviously_empty levels then []
    else begin
      let vals = Array.make n 0 in
      let results = ref [] in
      let count = ref 0 in
      let truncated name =
        match on_truncate with Some f -> f name | None -> ()
      in
      let exception Done in
      let rec go k =
        if k = n then begin
          incr count;
          if !count > max_points then failwith "Poly.enumerate: too many points";
          results :=
            List.init n (fun j -> (Space.name t.space j, vals.(j))) :: !results;
          if not all then raise Done
        end
        else begin
          let b = dim_bounds levels.(k) k vals in
          let cands =
            match candidates_of_bounds ~range b with
            | Window_exact c -> c
            | Window_truncated c ->
                (* Exhaustive enumeration cannot window-cap: a one-sided
                   bound is as unbounded as none at all. *)
                if all then
                  failwith ("Poly.enumerate: unbounded dimension " ^ Space.name t.space k)
                else begin
                  truncated (Space.name t.space k);
                  c
                end
            | Window_unbounded ->
                if all then
                  failwith ("Poly.enumerate: unbounded dimension " ^ Space.name t.space k)
                else begin
                  truncated (Space.name t.space k);
                  range_list (-range) range
                end
          in
          let cands = if all then cands else prefer k cands in
          List.iter (fun v -> vals.(k) <- v; go (k + 1)) cands
        end
      in
      (try go 0 with Done -> ());
      List.rev !results
    end
  end

let sample ?range ?prefer ?on_truncate ?fm_budget t =
  match search ?range ?prefer ?on_truncate ?fm_budget ~all:false t with
  | [] -> None
  | p :: _ -> Some p

let enumerate ?max_points t = search ~all:true ?max_points t

let is_integrally_empty ?range ?on_truncate t = sample ?range ?on_truncate t = None

let mem t lookup =
  List.for_all (fun a -> Aff.eval a lookup = 0) t.eqs
  && List.for_all (fun a -> Aff.eval a lookup >= 0) t.ges

(* --- Set difference ----------------------------------------------------- *)

let subtract p q =
  if not (Space.equal p.space q.space) then invalid_arg "Poly.subtract: space mismatch";
  let q = simplify q in
  if is_obviously_empty q then [ p ]
  else begin
    (* Walk q's constraints; piece_i satisfies the first i-1 and violates the
       i-th, giving disjoint pieces covering p \ q. Equalities contribute two
       violation branches. *)
    let pieces = ref [] in
    let kept = ref p in
    let add_piece piece =
      let piece = simplify piece in
      if not (is_obviously_empty piece || is_rationally_empty piece) then
        pieces := piece :: !pieces
    in
    List.iter
      (fun a ->
        add_piece (add_ge !kept (Aff.add_const (Aff.neg a) (-1)));
        kept := add_ge !kept a)
      q.ges;
    List.iter
      (fun a ->
        add_piece (add_ge !kept (Aff.add_const a (-1)));
        add_piece (add_ge !kept (Aff.add_const (Aff.neg a) (-1)));
        kept := add_eq !kept a)
      q.eqs;
    List.rev !pieces
  end

let affine_hull_eqs t = (simplify t).eqs

let pp ppf t =
  let pp_list sep ppf l =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "%s@ " sep) Aff.pp ppf l
  in
  Format.fprintf ppf "@[<hv>{ %a" Space.pp t.space;
  if t.eqs <> [] then Format.fprintf ppf " :@ @[%a = 0@]" (pp_list " = 0, ") t.eqs;
  if t.ges <> [] then
    Format.fprintf ppf "%s@ @[%a >= 0@]" (if t.eqs = [] then " :" else ",") (pp_list " >= 0, ") t.ges;
  Format.fprintf ppf " }@]"
