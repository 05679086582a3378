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

(* [aff] with every coefficient divided by [g] and constant [const]. *)
let div_row aff g const =
  { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs; Aff.const = const }

(* Normalise an equality [aff = 0]. Returns [None] for the trivial 0 = 0.
   With [tighten], an equality whose coefficient gcd does not divide the
   constant has no integer solution.  A row already in lowest terms is
   returned as it is.
   @raise Infeasible when no solution can exist. *)
let norm_eq ~tighten aff =
  let g = Aff.content_gcd aff in
  if g = 0 then if aff.Aff.const = 0 then None else raise Infeasible
  else if aff.Aff.const mod g <> 0 then
    if tighten then raise Infeasible
    else
      let g = C.gcd g aff.Aff.const in
      Some (canon_sign (if g <= 1 then aff else div_row aff g (aff.Aff.const / g)))
  else Some (canon_sign (if g = 1 then aff else div_row aff g (aff.Aff.const / g)))

(* Normalise an inequality [aff >= 0]. [tighten] may round the constant down
   (valid over the integers only). Returns [None] for a trivially true
   constraint. @raise Infeasible when trivially false. *)
let norm_ge ~tighten aff =
  let g = Aff.content_gcd aff in
  if g = 0 then if aff.Aff.const >= 0 then None else raise Infeasible
  else if tighten then Some (if g = 1 then aff else div_row aff g (C.fdiv aff.Aff.const g))
  else
    let g = C.gcd g aff.Aff.const in
    Some (if g <= 1 then aff else div_row aff g (aff.Aff.const / g))

(* A polynomial row hash, unmasked.  It is linear in the row over machine
   integers, so the negated row hashes to the negated value: the opposite
   direction of a row is found without building it.  Hash every
   coefficient: the wide, mostly-zero rows of a schedule-coefficient space
   share long runs of zeros. *)
let row_hash coeffs const =
  let h = ref const in
  for i = 0 to Array.length coeffs - 1 do
    h := (!h * 31) + coeffs.(i)
  done;
  !h

let hash_row coeffs const = row_hash coeffs const land max_int

let equal_row (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

let equal_neg (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = - b.(!i) do
    incr i
  done;
  !i = n

(* Classes of equal rows, found without a hash table: every row is hashed
   once into [hash], and two rows are compared only when their hashes
   agree.  [slots] is an open-addressing array of row indices plus one (0:
   free) over a power-of-two size at least twice the row count; it holds
   the first row of each class, which [head] names for every row.  Rows
   are keyed on their coefficients and, with [with_const], their
   constant. *)
type classes = { rows : Aff.t array; hash : int array; slots : int array; head : int array }

(* Multiplicative hashing spreads the polynomial hash over the table. *)
let slot slots h = ((h * 0x1E3779B97F4A7C15) lsr 32) land (Array.length slots - 1)

let classes ~with_const rows =
  let m = Array.length rows in
  let hash = Array.make m 0 and head = Array.make m 0 in
  for i = 0 to m - 1 do
    let a = rows.(i) in
    hash.(i) <- row_hash a.Aff.coeffs (if with_const then a.Aff.const else 0)
  done;
  let size = ref 8 in
  while !size < 2 * m do
    size := 2 * !size
  done;
  let slots = Array.make !size 0 in
  let mask = !size - 1 in
  for i = 0 to m - 1 do
    let a = rows.(i) and h = hash.(i) in
    let s = ref (slot slots h) and found = ref (-1) in
    while !found < 0 && slots.(!s) <> 0 do
      let j = slots.(!s) - 1 in
      let b = rows.(j) in
      if hash.(j) = h && equal_row a.Aff.coeffs b.Aff.coeffs
         && ((not with_const) || a.Aff.const = b.Aff.const)
      then found := j
      else s := (!s + 1) land mask
    done;
    if !found < 0 then begin
      slots.(!s) <- i + 1;
      head.(i) <- i
    end
    else head.(i) <- !found
  done;
  { rows; hash; slots; head }

(* The class whose coefficients are row [i]'s negated, or -1. *)
let find_neg cl i =
  let a = cl.rows.(i) and h = - cl.hash.(i) in
  let mask = Array.length cl.slots - 1 in
  let s = ref (slot cl.slots h) and found = ref (-1) in
  while !found < 0 && cl.slots.(!s) <> 0 do
    let j = cl.slots.(!s) - 1 in
    if cl.hash.(j) = h && equal_neg cl.rows.(j).Aff.coeffs a.Aff.coeffs then found := j
    else s := (!s + 1) land mask
  done;
  !found

(* The strongest row per inequality direction (classes keyed without the
   constant): [best.(h)] for the class headed by [h] is its first row of
   smallest constant. *)
let strongest cl =
  let best = Array.copy cl.head in
  for i = 0 to Array.length best - 1 do
    let h = cl.head.(i) in
    if cl.rows.(i).Aff.const < cl.rows.(best.(h)).Aff.const then best.(h) <- i
  done;
  best

(* The rows of [l] whose index [keep] marks, in order; [l] itself when it
   keeps them all. *)
let select keep l =
  if Array.for_all Fun.id keep then l else List.filteri (fun i _ -> keep.(i)) l

(* Drop repeated equalities, keeping first occurrences in order. *)
let dedup_eqs eqs =
  match eqs with
  | [] | [ _ ] -> eqs
  | _ ->
      let cl = classes ~with_const:true (Array.of_list eqs) in
      select (Array.mapi (fun i h -> h = i) cl.head) eqs

(* Normalisation contract (poly.mli): equalities keep their first copy;
   inequalities keep, per direction, the first row of smallest constant,
   in input order.  A direction and its opposite whose kept constants
   cancel become one equality: the earlier of the two rows, normalised,
   appended after the others in reverse order of discovery.  [alive]
   marks the directions not yet decided: the later row of a promoted pair
   is dropped, not kept. *)
let simplify_exn ?(tighten = true) t =
  let eqs = dedup_eqs (List.filter_map (norm_eq ~tighten) t.eqs) in
  match List.filter_map (norm_ge ~tighten) t.ges with
  | [] -> { t with eqs; ges = [] }
  | ges ->
      let rows = Array.of_list ges in
      let m = Array.length rows in
      let cl = classes ~with_const:false rows in
      let best = strongest cl in
      let alive = Array.make m true and keep = Array.make m false in
      let promoted = ref [] in
      for i = 0 to m - 1 do
        let h = cl.head.(i) in
        if alive.(h) && best.(h) = i then begin
          alive.(h) <- false;
          let a = rows.(i) in
          (* Negating the row overflows only on its constant: [norm_ge]'s gcd
             already rejected a [min_int] coefficient. *)
          if a.Aff.const = min_int then raise C.Overflow;
          let n = find_neg cl i in
          if n >= 0 && rows.(best.(n)).Aff.const = - a.Aff.const then begin
            alive.(n) <- false;
            promoted := a :: !promoted
          end
          else keep.(i) <- true
        end
      done;
      let ges = select keep ges in
      let extra_eqs = List.filter_map (norm_eq ~tighten) !promoted in
      { t with eqs = eqs @ extra_eqs; ges }

let simplify ?tighten t = try simplify_exn ?tighten t with Infeasible -> empty t.space

let is_obviously_empty t =
  List.exists (fun a -> a.Aff.const < 0 && Aff.is_constant a) t.ges
  || List.exists (fun a -> a.Aff.const <> 0 && Aff.is_constant a) t.eqs

(* --- Fourier–Motzkin elimination --------------------------------------- *)

(* Lightweight redundancy elimination: drop syntactic duplicates and
   inequalities dominated by an identical-coefficient row with a smaller
   constant (for [c.x + k >= 0], smaller [k] is stronger).  Unlike
   [simplify] this performs no gcd normalisation or infeasibility analysis,
   so it is cheap enough to run after every projection step; repeated
   eliminations otherwise multiply near-identical rows. *)
let compact t =
  let ges =
    match t.ges with
    | [] | [ _ ] -> t.ges
    | ges ->
        let cl = classes ~with_const:false (Array.of_list ges) in
        let best = strongest cl in
        select (Array.mapi (fun i h -> best.(h) = i) cl.head) ges
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
  (* The first unit equality on [i], and the other equalities in order. *)
  let rec unit_eq before = function
    | [] -> None
    | a :: l when abs (coeff a) = 1 -> Some (a, List.rev_append before l)
    | a :: l -> unit_eq (a :: before) l
  in
  match unit_eq [] t.eqs with
  | Some (e, eqs) ->
      (* e = c*x + rest = 0  =>  x = -rest/c = -c*rest (|c| = 1). *)
      let c = coeff e in
      let rest = { e with Aff.coeffs = Array.copy e.Aff.coeffs } in
      rest.Aff.coeffs.(i) <- 0;
      let r = Aff.scale (-c) rest in
      let sub a = Aff.subst_at a i r in
      compact { t with eqs = List.map sub eqs; ges = List.map sub t.ges }
  | None ->
      (* One pass over the inequalities, then each equality on [i] as the
         two inequalities [a] and [-a], split by the sign at [i]. *)
      let pos = ref [] and negs = ref [] and zero = ref [] in
      let npos = ref 0 and nneg = ref 0 in
      let place a =
        let c = coeff a in
        if c > 0 then begin
          pos := a :: !pos;
          incr npos
        end
        else if c < 0 then begin
          negs := a :: !negs;
          incr nneg
        end
        else zero := a :: !zero
      in
      List.iter place t.ges;
      List.iter
        (fun a ->
          if coeff a <> 0 then begin
            place a;
            place (Aff.neg a)
          end)
        t.eqs;
      (match combo_budget with
      | Some b when !npos * !nneg > b -> raise Fm_budget_exceeded
      | _ -> ());
      let negs = List.rev !negs in
      let combos = ref [] in
      List.iter
        (fun p ->
          List.iter
            (fun n ->
              (* p: a*x + e >= 0 (a>0);  n: -b*x + f >= 0 (b>0)
                 =>  b*e + a*f >= 0 *)
              let a = coeff p and b = -coeff n in
              let g = C.gcd a b in
              combos := Aff.combine (b / g) p (a / g) n :: !combos)
            negs)
        (List.rev !pos);
      let ges = List.rev_append !zero (List.rev !combos) in
      simplify ~tighten { t with eqs = List.filter (fun a -> coeff a = 0) t.eqs; ges }

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
    let co = a.Aff.coeffs in
    let first = ref (-1) in
    for i = 0 to Array.length co - 1 do
      if co.(i) <> 0 then begin
        constrained.(i) <- true;
        if !first < 0 then first := i
        else
          let ri = find !first and rj = find i in
          if ri <> rj then parent.(ri) <- rj
      end
    done
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
  let ncomp = !ncomp in
  let dims = Array.make ncomp [] and seen = Array.make ncomp 0 in
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
  (* Slot [ncomp] collects constraints that mention no dimension. *)
  let eqs = Array.make (ncomp + 1) [] and ges = Array.make (ncomp + 1) [] in
  let place bucket (a : Aff.t) =
    let co = a.Aff.coeffs in
    let len = Array.length co in
    let first = ref 0 in
    while !first < len && co.(!first) = 0 do
      incr first
    done;
    if !first = len then
      bucket.(ncomp) <- { a with Aff.space = none; coeffs = [||] } :: bucket.(ncomp)
    else begin
      let c = comp.(find !first) in
      let coeffs = Array.make size.(c) 0 in
      for i = !first to len - 1 do
        if co.(i) <> 0 then coeffs.(pos.(i)) <- co.(i)
      done;
      bucket.(c) <- { a with Aff.space = spaces.(c); coeffs } :: bucket.(c)
    end
  in
  List.iter (place eqs) t.eqs;
  List.iter (place ges) t.ges;
  let part space c = { space; eqs = List.rev eqs.(c); ges = List.rev ges.(c) } in
  let comps = List.init ncomp (fun c -> part spaces.(c) c) in
  if eqs.(ncomp) = [] && ges.(ncomp) = [] then comps else part none ncomp :: comps

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
   order; an equality on a dimension puts it first.  Dimensions are picked
   and eliminated by index: no name is looked up on the way.  [Gave_up] is
   the budget's conservative "not provably empty". *)
type verdict = Empty | Nonempty | Gave_up

let component_verdict c =
  let n = Space.dim c.space in
  let live = Array.make n true in
  let pos = Array.make n 0 and neg = Array.make n 0 and on_eq = Array.make n false in
  (* One pass over the rows counts every dimension's occurrences. *)
  let pick c =
    Array.fill pos 0 n 0;
    Array.fill neg 0 n 0;
    Array.fill on_eq 0 n false;
    List.iter
      (fun (a : Aff.t) ->
        let co = a.Aff.coeffs in
        for i = 0 to n - 1 do
          if co.(i) <> 0 then on_eq.(i) <- true
        done)
      c.eqs;
    List.iter
      (fun (a : Aff.t) ->
        let co = a.Aff.coeffs in
        for i = 0 to n - 1 do
          if co.(i) > 0 then pos.(i) <- pos.(i) + 1
          else if co.(i) < 0 then neg.(i) <- neg.(i) + 1
        done)
      c.ges;
    let best = ref (-1) and best_cost = ref 0 in
    for i = 0 to n - 1 do
      if live.(i) then begin
        let cost = if on_eq.(i) then -1 else pos.(i) * neg.(i) in
        if !best < 0 || cost < !best_cost then begin
          best := i;
          best_cost := cost
        end
      end
    done;
    !best
  in
  let rec go c left =
    if is_obviously_empty c then Empty
    else if left = 0 then Nonempty
    else begin
      let d = pick c in
      live.(d) <- false;
      go (eliminate_one ~combo_budget:fm_inequality_budget ~tighten:false c d) (left - 1)
    end
  in
  try go (simplify ~tighten:false c) n with Fm_budget_exceeded -> Gave_up

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
type memo = { lock : Mutex.t; verdicts : verdict Tbl.t }

let memo () = { lock = Mutex.create (); verdicts = Tbl.create 256 }
let memo_size m = Mutex.protect m.lock (fun () -> Tbl.length m.verdicts)

let memo_giveups m =
  Mutex.protect m.lock (fun () ->
      Tbl.fold (fun _ v n -> if v = Gave_up then n + 1 else n) m.verdicts 0)

(* Normalisation acts row by row and never changes a row's support, so it
   commutes with the split: each component is simplified on its own, and a
   memo hit skips that work as well as the elimination. *)
let is_rationally_empty ?memo t =
  let decide c =
    match memo with
    | None -> component_verdict c = Empty
    | Some m -> (
        match Mutex.protect m.lock (fun () -> Tbl.find_opt m.verdicts c) with
        | Some v -> v = Empty
        | None ->
            let v = component_verdict c in
            Mutex.protect m.lock (fun () -> Tbl.replace m.verdicts c v);
            v = Empty)
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
