(* The reference implementation is deliberately dumb: direct constraint
   evaluation plus dense enumeration over an explicit box.  It shares only
   the Aff/Space data types with the production kernel, so a bug in the
   Fourier-Motzkin/bound-descent code cannot hide in the oracle. *)

type box = (string * int * int) list

let box_space box = Space.of_names (List.map (fun (n, _, _) -> n) box)

let box_poly box =
  let space = box_space box in
  List.fold_left
    (fun p (n, lo, hi) ->
      Poly.add_ge
        (Poly.add_ge p (Aff.of_assoc space ~const:(-lo) [ (n, 1) ]))
        (Aff.of_assoc space ~const:hi [ (n, -1) ]))
    (Poly.universe space) box

let range_list lo hi = List.init (max 0 (hi - lo + 1)) (fun k -> lo + k)

let grid box =
  List.fold_right
    (fun (n, lo, hi) acc ->
      List.concat_map
        (fun v -> List.map (fun rest -> (n, v) :: rest) acc)
        (range_list lo hi))
    box [ [] ]

let eval_aff (a : Aff.t) asg =
  let acc = ref a.Aff.const in
  Array.iteri
    (fun i c ->
      if c <> 0 then acc := !acc + (c * List.assoc (Space.name a.Aff.space i) asg))
    a.Aff.coeffs;
  !acc

let sat p asg =
  List.for_all (fun a -> eval_aff a asg = 0) (Poly.eqs p)
  && List.for_all (fun a -> eval_aff a asg >= 0) (Poly.ges p)

let sat_union u asg = List.exists (fun d -> sat d asg) (Union.disjuncts u)

let require_boxed who box space =
  List.iter
    (fun n ->
      if not (List.exists (fun (m, _, _) -> m = n) box) then
        invalid_arg (who ^ ": dimension " ^ n ^ " not boxed"))
    (Space.names space)

let points box p =
  require_boxed "Poly_oracle.points" box (Poly.space p);
  List.filter (sat p) (grid box)

let union_points box u =
  require_boxed "Poly_oracle.union_points" box (Union.space u);
  List.filter (sat_union u) (grid box)

let canon pts = List.sort compare (List.map (List.sort compare) pts)

let show_pt pt =
  "("
  ^ String.concat ", " (List.map (fun (n, v) -> n ^ "=" ^ string_of_int v) pt)
  ^ ")"

let show_poly p = Format.asprintf "%a" Poly.pp p
let show_union u = Format.asprintf "%a" Union.pp u
let first checks = List.find_map (fun f -> f ()) checks

module Check = struct
  let pointset_preserved ~what box p q =
    List.find_map
      (fun g ->
        match (sat p g, sat q g) with
        | true, false ->
            Some
              (Printf.sprintf "%s lost point %s of %s" what (show_pt g)
                 (show_poly p))
        | false, true ->
            Some
              (Printf.sprintf "%s gained point %s over %s" what (show_pt g)
                 (show_poly p))
        | _ -> None)
      (grid box)

  let simplify box p =
    first
      [
        (fun () -> pointset_preserved ~what:"simplify" box p (Poly.simplify p));
        (fun () ->
          pointset_preserved ~what:"simplify ~tighten:false" box p
            (Poly.simplify ~tighten:false p));
        (fun () -> pointset_preserved ~what:"compact" box p (Poly.compact p));
      ]

  let eliminate_sound box p dims =
    let el = Poly.eliminate p dims in
    List.find_map
      (fun g ->
        if sat el g then None
        else
          Some
            (Printf.sprintf "eliminate [%s] of %s dropped its point %s"
               (String.concat "; " dims) (show_poly p) (show_pt g)))
      (points box p)

  let eliminate_exact box p d =
    let el = Poly.eliminate p [ d ] in
    let _, dlo, dhi = List.find (fun (n, _, _) -> n = d) box in
    let rest = List.filter (fun (n, _, _) -> n <> d) box in
    List.find_map
      (fun g ->
        let fm = sat el ((d, dlo) :: g) in
        let oracle =
          List.exists (fun v -> sat p ((d, v) :: g)) (range_list dlo dhi)
        in
        if fm = oracle then None
        else
          Some
            (Printf.sprintf
               "eliminate %s of unit-coefficient %s at %s: FM says %b, shadow \
                says %b"
               d (show_poly p) (show_pt g) fm oracle))
      (grid rest)

  let subtract box p q =
    let pieces = Poly.subtract p q in
    List.find_map
      (fun g ->
        let hits = List.length (List.filter (fun r -> sat r g) pieces) in
        let expect = if sat p g && not (sat q g) then 1 else 0 in
        if hits = expect then None
        else
          Some
            (Printf.sprintf
               "subtract at %s: %d of %d pieces contain it, expected %d (p = \
                %s, q = %s)"
               (show_pt g) hits (List.length pieces) expect (show_poly p)
               (show_poly q)))
      (grid box)

  let search box p =
    let ref_pts = canon (points box p) in
    first
      [
        (fun () ->
          List.find_map
            (fun g ->
              if Poly.mem p (fun n -> List.assoc n g) = sat p g then None
              else
                Some
                  (Printf.sprintf "mem disagrees with the oracle at %s for %s"
                     (show_pt g) (show_poly p)))
            (grid box));
        (fun () ->
          let enum = canon (Poly.enumerate p) in
          if enum = ref_pts then None
          else
            Some
              (Printf.sprintf
                 "enumerate found %d points, oracle %d, for %s"
                 (List.length enum) (List.length ref_pts) (show_poly p)));
        (fun () ->
          match (Poly.sample p, ref_pts) with
          | Some pt, _ when not (sat p pt) ->
              Some
                (Printf.sprintf "sample returned non-member %s of %s"
                   (show_pt pt) (show_poly p))
          | Some _, [] ->
              Some
                (Printf.sprintf "sample found a point in empty %s"
                   (show_poly p))
          | None, _ :: _ ->
              Some
                (Printf.sprintf "sample missed non-empty %s" (show_poly p))
          | _ -> None);
        (fun () ->
          if Poly.is_integrally_empty p = (ref_pts = []) then None
          else
            Some
              (Printf.sprintf
                 "is_integrally_empty says %b but the oracle found %d points \
                  in %s"
                 (Poly.is_integrally_empty p) (List.length ref_pts)
                 (show_poly p)));
        (fun () ->
          if ref_pts <> [] && Poly.is_rationally_empty p then
            Some
              (Printf.sprintf
                 "is_rationally_empty contradicts integer point %s of %s"
                 (show_pt (List.hd ref_pts)) (show_poly p))
          else None);
      ]

  (* The memo is an optimisation of the production kernel itself, so its
     reference is the memo-less call: through one shared memo, every system
     queried as given, with its constraints shuffled and nudged, must get
     exactly the memo-less verdict of that same query. *)
  let emptiness_memo ?(memo = Poly.memo ()) st polys =
    let shuffle l =
      let a = Array.of_list l in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      Array.to_list a
    in
    let shuffled p =
      Poly.of_constraints (Poly.space p) ~eqs:(shuffle (Poly.eqs p)) ~ges:(shuffle (Poly.ges p))
    in
    (* A near-duplicate: one inequality's constant tightened, so a key that
       dropped any number would hand it the original's verdict. *)
    let nudged p =
      match Poly.ges p with
      | [] -> p
      | ges ->
          let k = Random.State.int st (List.length ges) and d = 1 + Random.State.int st 6 in
          Poly.of_constraints (Poly.space p) ~eqs:(Poly.eqs p)
            ~ges:(List.mapi (fun i a -> if i = k then Aff.add_const a (-d) else a) ges)
    in
    let queries =
      List.concat_map (fun p -> [ p; shuffled p; nudged p ]) (polys @ List.rev polys)
    in
    List.find_map
      (fun q ->
        let want = Poly.is_rationally_empty q and got = Poly.is_rationally_empty ~memo q in
        if want = got then None
        else
          Some
            (Printf.sprintf "memoised is_rationally_empty says %b, memo-less %b, for %s" got want
               (show_poly q)))
      queries

  let union_ops box a b =
    let pointwise what u pred () =
      List.find_map
        (fun g ->
          let got = sat_union u g in
          let want = pred g in
          if got = want then None
          else
            Some
              (Printf.sprintf "%s at %s: got %b, want %b (a = %s, b = %s)" what
                 (show_pt g) got want (show_union a) (show_union b)))
        (grid box)
    in
    let s = Union.subtract a b in
    first
      [
        pointwise "Union.union" (Union.union a b) (fun g ->
            sat_union a g || sat_union b g);
        pointwise "Union.intersect" (Union.intersect a b) (fun g ->
            sat_union a g && sat_union b g);
        pointwise "Union.subtract" s (fun g ->
            sat_union a g && not (sat_union b g));
        (fun () ->
          List.find_map
            (fun g ->
              if Union.mem a (fun n -> List.assoc n g) = sat_union a g then
                None
              else
                Some
                  (Printf.sprintf "Union.mem disagrees at %s for %s"
                     (show_pt g) (show_union a)))
            (grid box));
        (fun () ->
          let en = List.map (List.sort compare) (Union.enumerate s) in
          let dedup = List.sort_uniq compare en in
          if List.length dedup <> List.length en then
            Some
              (Printf.sprintf "Union.enumerate returned duplicates for %s"
                 (show_union s))
          else if List.sort compare en <> canon (union_points box s) then
            Some
              (Printf.sprintf
                 "Union.enumerate found %d points, oracle %d, for %s"
                 (List.length en)
                 (List.length (union_points box s))
                 (show_union s))
          else None);
        (fun () ->
          if Union.is_empty a = (union_points box a = []) then None
          else
            Some
              (Printf.sprintf
                 "Union.is_empty says %b but the oracle found %d points in %s"
                 (Union.is_empty a)
                 (List.length (union_points box a))
                 (show_union a)));
      ]

  let farkas box p =
    let us = Space.of_names [ "a"; "b"; "c" ] in
    let coeff = function
      | "i" -> Aff.dim us "a"
      | "j" -> Aff.dim us "b"
      | n -> invalid_arg ("Poly_oracle.Check.farkas: unexpected dim " ^ n)
    in
    let const = Aff.dim us "c" in
    let pts = points box p in
    let nonneg = Farkas.nonneg_on ~unknowns:us ~over:p ~coeff ~const in
    let zero = Farkas.zero_on ~unknowns:us ~over:p ~coeff ~const in
    let viol = ref None in
    for a = -2 to 2 do
      for b = -2 to 2 do
        for c = -2 to 2 do
          if !viol = None then begin
            let look = function "a" -> a | "b" -> b | _ -> c in
            let target g = (a * List.assoc "i" g) + (b * List.assoc "j" g) + c in
            if Poly.mem nonneg look then (
              match List.find_opt (fun g -> target g < 0) pts with
              | Some g ->
                  viol :=
                    Some
                      (Printf.sprintf
                         "nonneg_on admits (a=%d, b=%d, c=%d) but the target \
                          is %d at %s of %s"
                         a b c (target g) (show_pt g) (show_poly p))
              | None -> ());
            if !viol = None && Poly.mem zero look then
              match List.find_opt (fun g -> target g <> 0) pts with
              | Some g ->
                  viol :=
                    Some
                      (Printf.sprintf
                         "zero_on admits (a=%d, b=%d, c=%d) but the target is \
                          %d at %s of %s"
                         a b c (target g) (show_pt g) (show_poly p))
              | None -> ()
          end
        done
      done
    done;
    !viol

  let count_exact box p =
    match Count.count p ~over:(List.map (fun (n, _, _) -> n) box) with
    | None -> None
    | Some c -> (
        match Polynomial.variables c with
        | _ :: _ ->
            Some
              (Printf.sprintf
                 "count over every dimension returned non-constant %s for %s"
                 (Polynomial.to_string c) (show_poly p))
        | [] ->
            let oracle = List.length (points box p) in
            let predicted =
              try Some (Polynomial.eval_int_exn c (fun _ -> 0))
              with Invalid_argument _ -> None
            in
            if predicted = Some oracle then None
            else
              Some
                (Printf.sprintf "count predicted %s, oracle %d, for %s"
                   (Polynomial.to_string c) oracle (show_poly p)))

  let count_parametric box p ~over ~param ~values =
    match Count.count p ~over with
    | None -> None
    | Some c -> (
        match
          List.filter (fun v -> v <> param) (Polynomial.variables c)
        with
        | v :: _ ->
            Some
              (Printf.sprintf
                 "parametric count mentions counted dimension %s in %s for %s"
                 v (Polynomial.to_string c) (show_poly p))
        | [] ->
            List.find_map
              (fun v ->
                let concrete =
                  List.length (points box (Poly.fix_dims p [ (param, v) ]))
                in
                if concrete = 0 then None
                  (* outside the polynomial's validity region *)
                else
                  let predicted =
                    try Some (Polynomial.eval_int_exn c (fun _ -> v))
                    with Invalid_argument _ -> None
                  in
                  if predicted = Some concrete then None
                  else
                    Some
                      (Printf.sprintf
                         "count %s at %s = %d predicts %s, oracle %d, for %s"
                         (Polynomial.to_string c) param v
                         (match predicted with
                         | Some k -> string_of_int k
                         | None -> "a non-integer")
                         concrete (show_poly p)))
              values)

  let rename box p =
    let names = Space.names (Poly.space p) in
    match names with
    | [] | [ _ ] -> None
    | n0 :: _ ->
        let rot = List.tl names @ [ n0 ] in
        let mapping = List.combine names rot in
        let rn n = List.assoc n mapping in
        let p' = Poly.rename p mapping in
        let box' = List.map (fun (n, lo, hi) -> (rn n, lo, hi)) box in
        let expect =
          canon (List.map (List.map (fun (n, v) -> (rn n, v))) (points box p))
        in
        if canon (points box' p') <> expect then
          Some
            (Printf.sprintf "rename by rotation changed the point set of %s"
               (show_poly p))
        else
          let last = List.nth names (List.length names - 1) in
          let collides f =
            match f () with
            | exception Invalid_argument _ -> None
            | _ ->
                Some
                  (Printf.sprintf
                     "rename %s -> %s onto unmapped %s did not raise for %s"
                     n0 last last (show_poly p))
          in
          first
            [
              (fun () -> collides (fun () -> Poly.rename p [ (n0, last) ]));
              (fun () ->
                collides (fun () ->
                    Union.rename (Union.of_poly p) [ (n0, last) ]));
            ]
end

module Gen = struct
  type state = Random.State.t

  let make seed = Random.State.make [| 0x52494f54; seed |]
  let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)

  let box st names ~side =
    List.map
      (fun n ->
        let lo = int_in st (-2) 1 in
        (n, lo, lo + int_in st 1 (side - 1)))
      names

  let aff st space ~units ~const_lo ~const_hi =
    let c = if units then 1 else 2 in
    Aff.of_assoc space
      ~const:(int_in st const_lo const_hi)
      (List.filter_map
         (fun n ->
           match int_in st (-c) c with 0 -> None | k -> Some (n, k))
         (Space.names space))

  let poly ?(units = false) st box ~nges ~neqs =
    let space = box_space box in
    let p = ref (box_poly box) in
    for _ = 1 to nges do
      p := Poly.add_ge !p (aff st space ~units ~const_lo:(-2) ~const_hi:6)
    done;
    for _ = 1 to neqs do
      p := Poly.add_eq !p (aff st space ~units ~const_lo:(-3) ~const_hi:3)
    done;
    !p

  let union_ st box =
    let space = box_space box in
    let n = int_in st 1 2 in
    Union.of_polys space
      (List.init n (fun _ ->
           poly st box ~nges:(int_in st 0 2) ~neqs:(int_in st 0 1)))
end

type campaign = {
  cases : int;
  per_class : (string * int) list;
  discrepancies : (string * string) list;
}

(* A parametric box-decomposable polyhedron over (i, j, n): each counted
   dimension ranges between one lower and one upper bound, each either a
   constant or [n + const].  The enclosing oracle box below safely contains
   every concrete instance for n in 0..4. *)
let gen_parametric st =
  let space = Space.of_names [ "i"; "j"; "n" ] in
  let p = ref (Poly.universe space) in
  List.iter
    (fun d ->
      let lower =
        if Gen.int_in st 0 1 = 0 then
          Aff.of_assoc space ~const:(-Gen.int_in st (-1) 2) [ (d, 1) ]
        else
          Aff.of_assoc space
            ~const:(-Gen.int_in st (-2) 1)
            [ (d, 1); ("n", -1) ]
      in
      let upper =
        if Gen.int_in st 0 1 = 0 then
          Aff.of_assoc space ~const:(Gen.int_in st 1 4) [ (d, -1) ]
        else
          Aff.of_assoc space ~const:(Gen.int_in st (-1) 2) [ (d, -1); ("n", 1) ]
      in
      p := Poly.add_ge (Poly.add_ge !p lower) upper)
    [ "i"; "j" ];
  !p

let campaign ~seed ~count =
  let names3 = [ "i"; "j"; "k" ] and names2 = [ "i"; "j" ] in
  let disc = ref [] and ndisc = ref 0 and total = ref 0 in
  let record cls = function
    | None -> ()
    | Some msg ->
        incr ndisc;
        if !ndisc <= 50 then disc := (cls, msg) :: !disc
  in
  let gen3 st =
    let b = Gen.box st names3 ~side:4 in
    (b, Gen.poly st b ~nges:(Gen.int_in st 0 3) ~neqs:(Gen.int_in st 0 1))
  in
  let gen2 st =
    let b = Gen.box st names2 ~side:4 in
    (b, Gen.poly st b ~nges:(Gen.int_in st 0 2) ~neqs:(Gen.int_in st 0 1))
  in
  let classes =
    [
      ( "simplify",
        fun st ->
          let b, p = gen3 st in
          Check.simplify b p );
      ( "eliminate-sound",
        fun st ->
          let b, p = gen3 st in
          let subset =
            List.filter (fun _ -> Gen.int_in st 0 1 = 1) names3
          in
          let dims =
            if subset = [] then [ List.nth names3 (Gen.int_in st 0 2) ]
            else subset
          in
          Check.eliminate_sound b p dims );
      ( "eliminate-exact",
        fun st ->
          let b = Gen.box st names3 ~side:4 in
          let p =
            Gen.poly ~units:true st b ~nges:(Gen.int_in st 0 3)
              ~neqs:(Gen.int_in st 0 1)
          in
          Check.eliminate_exact b p "k" );
      ( "subtract",
        fun st ->
          let b = Gen.box st names3 ~side:3 in
          let p = Gen.poly st b ~nges:(Gen.int_in st 0 2) ~neqs:0 in
          let q =
            Gen.poly st b ~nges:(Gen.int_in st 0 2) ~neqs:(Gen.int_in st 0 1)
          in
          Check.subtract b p q );
      ( "search",
        fun st ->
          let b, p = gen3 st in
          Check.search b p );
      ( "emptiness-memo",
        fun st -> Check.emptiness_memo st (List.init (Gen.int_in st 1 4) (fun _ -> snd (gen3 st))) );
      ( "union",
        fun st ->
          let b = Gen.box st names2 ~side:4 in
          Check.union_ops b (Gen.union_ st b) (Gen.union_ st b) );
      ( "farkas",
        fun st ->
          let b, p = gen2 st in
          Check.farkas b p );
      ( "count",
        fun st ->
          if Gen.int_in st 0 1 = 0 then
            let b, p = gen2 st in
            Check.count_exact b p
          else
            Check.count_parametric
              [ ("i", -8, 10); ("j", -8, 10) ]
              (gen_parametric st) ~over:names2 ~param:"n"
              ~values:[ 0; 1; 2; 3; 4 ] );
      ( "rename",
        fun st ->
          let b, p = gen3 st in
          Check.rename b p );
    ]
  in
  let per_class =
    List.map
      (fun (cls, f) ->
        let st = Gen.make (seed + Hashtbl.hash cls) in
        for _ = 1 to count do
          incr total;
          record cls (f st)
        done;
        (cls, count))
      classes
  in
  { cases = !total; per_class; discrepancies = List.rev !disc }
