(* Differential fuzzing of the polyhedral kernel against Poly_oracle, the
   deliberately-dumb dense-enumeration reference.  Cases are represented as
   lists of small integer tuples so QCheck's built-in shrinkers minimize any
   counterexample; the Alcotest wrapper runs each property with a fixed
   Random.State so `dune runtest` is deterministic, and registers them
   `Quick so the quick alias gets the same coverage. *)

open Riot_poly
module Oracle = Poly_oracle

let box3 = [ ("i", -2, 2); ("j", -2, 2); ("k", -2, 2) ]
let box2 = [ ("i", -2, 2); ("j", -2, 2) ]
let space3 = Oracle.box_space box3
let space2 = Oracle.box_space box2

let poly3 (ges, eqs) =
  let aff (ci, cj, ck, c) =
    Aff.of_assoc space3 ~const:c [ ("i", ci); ("j", cj); ("k", ck) ]
  in
  let p =
    List.fold_left (fun p q -> Poly.add_ge p (aff q)) (Oracle.box_poly box3) ges
  in
  List.fold_left (fun p q -> Poly.add_eq p (aff q)) p eqs

let poly2 (ges, eqs) =
  let aff (ci, cj, c) = Aff.of_assoc space2 ~const:c [ ("i", ci); ("j", cj) ] in
  let p =
    List.fold_left (fun p q -> Poly.add_ge p (aff q)) (Oracle.box_poly box2) ges
  in
  List.fold_left (fun p q -> Poly.add_eq p (aff q)) p eqs

(* Raw-tuple arbitraries: coefficients in -2..2, inequality constants in
   -3..6 (so boxes are cut, not always emptied), equality constants in
   -3..3.  QCheck derives shrinkers for the tuples and lists. *)
let arb_ge3 =
  QCheck.quad (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)
    (QCheck.int_range (-2) 2) (QCheck.int_range (-3) 6)

let arb_eq3 =
  QCheck.quad (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)
    (QCheck.int_range (-2) 2) (QCheck.int_range (-3) 3)

(* Unit coefficient on k: the class where FM elimination of k must be
   integrally exact. *)
let arb_ge3_unit_k =
  QCheck.quad (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)
    (QCheck.int_range (-1) 1) (QCheck.int_range (-3) 6)

let arb_eq3_unit_k =
  QCheck.quad (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)
    (QCheck.int_range (-1) 1) (QCheck.int_range (-3) 3)

let arb_ge2 =
  QCheck.triple (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)
    (QCheck.int_range (-3) 6)

let arb_eq2 =
  QCheck.triple (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)
    (QCheck.int_range (-3) 3)

let sized lo hi arb = QCheck.list_of_size (QCheck.Gen.int_range lo hi) arb
let arb_case3 ?(ges = arb_ge3) ?(eqs = arb_eq3) () =
  QCheck.pair (sized 0 3 ges) (sized 0 2 eqs)

let arb_case2 = QCheck.pair (sized 0 3 arb_ge2) (sized 0 2 arb_eq2)

let check = function None -> true | Some msg -> QCheck.Test.fail_report msg

(* Each property runs with its own fixed seed: deterministic under both
   `dune runtest` and the quick alias, independent of execution order. *)
let qtest name ?(count = 500) arb prop =
  let seed = 0x9104 + Hashtbl.hash name in
  Alcotest.test_case name `Quick (fun () ->
      QCheck.Test.check_exn
        ~rand:(Random.State.make [| seed |])
        (QCheck.Test.make ~count ~name arb prop))

let simplify_preserves_points =
  qtest "simplify/compact preserve integer points" (arb_case3 ())
    (fun case -> check (Oracle.Check.simplify box3 (poly3 case)))

let eliminate_sound =
  qtest "eliminate never drops an integer point"
    (QCheck.pair (arb_case3 ()) (QCheck.int_range 1 7))
    (fun (case, mask) ->
      let dims =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) [ "i"; "j"; "k" ]
      in
      check (Oracle.Check.eliminate_sound box3 (poly3 case) dims))

let eliminate_exact_unit =
  qtest "eliminate of a unit-coefficient dim equals the integer shadow"
    (arb_case3 ~ges:arb_ge3_unit_k ~eqs:arb_eq3_unit_k ())
    (fun case -> check (Oracle.Check.eliminate_exact box3 (poly3 case) "k"))

let subtract_partitions =
  qtest "subtract pieces are disjoint and cover exactly p minus q"
    (QCheck.pair (arb_case3 ()) (arb_case3 ()))
    (fun (cp, cq) -> check (Oracle.Check.subtract box3 (poly3 cp) (poly3 cq)))

let search_agrees =
  qtest "mem/sample/enumerate/emptiness agree with brute force"
    (arb_case3 ()) (fun case -> check (Oracle.Check.search box3 (poly3 case)))

let emptiness_memo =
  qtest "memoised emptiness equals memo-less emptiness"
    (QCheck.pair (sized 1 4 (arb_case3 ())) QCheck.int)
    (fun (cases, seed) ->
      check
        (Oracle.Check.emptiness_memo (Random.State.make [| seed |]) (List.map poly3 cases)))

(* A search shares one memo across all its domains and candidate sets: here
   one memo serves every case of the property, queried from two domains at
   once (the second walks the cases in reverse), and each query must still
   get its memo-less verdict. *)
let emptiness_memo_shared =
  let memo = Poly.memo () in
  qtest "one memo across cases and two domains equals memo-less emptiness"
    ~count:200
    (QCheck.pair (sized 1 4 (arb_case3 ())) QCheck.int)
    (fun (cases, seed) ->
      let polys = List.map poly3 cases in
      let other =
        Domain.spawn (fun () ->
            Oracle.Check.emptiness_memo ~memo
              (Random.State.make [| seed; 1 |])
              (List.rev polys))
      in
      let mine = Oracle.Check.emptiness_memo ~memo (Random.State.make [| seed |]) polys in
      let theirs = Domain.join other in
      check (match mine with Some _ -> mine | None -> theirs))

let union_algebra =
  qtest "union/intersect/subtract/enumerate match oracle set algebra"
    (QCheck.pair (sized 1 2 arb_case2) (sized 1 2 arb_case2))
    (fun (das, dbs) ->
      let u ds = Union.of_polys space2 (List.map poly2 ds) in
      check (Oracle.Check.union_ops box2 (u das) (u dbs)))

let farkas_sound =
  qtest "Farkas certificates imply the certified (in)equality" ~count:500
    arb_case2
    (fun case -> check (Oracle.Check.farkas box2 (poly2 case)))

let count_matches =
  qtest "count over all dims equals the oracle point count" arb_case2
    (fun case -> check (Oracle.Check.count_exact box2 (poly2 case)))

(* Parametric counting: for each counted dim an lower/upper bound that is
   either a constant or n + constant, encoded as (symbolic, const) pairs. *)
let count_parametric =
  let arb_bound lo hi =
    QCheck.pair QCheck.bool (QCheck.int_range lo hi)
  in
  let arb_dim_bounds = QCheck.pair (arb_bound (-1) 2) (arb_bound 1 4) in
  qtest "parametric count matches concrete enumeration"
    (QCheck.pair arb_dim_bounds arb_dim_bounds)
    (fun (bi, bj) ->
      let space = Space.of_names [ "i"; "j"; "n" ] in
      let bounded p d ((sym_lo, clo), (sym_hi, chi)) =
        let lower =
          if sym_lo then
            Aff.of_assoc space ~const:(-clo) [ (d, 1); ("n", -1) ]
          else Aff.of_assoc space ~const:(-clo) [ (d, 1) ]
        in
        let upper =
          if sym_hi then Aff.of_assoc space ~const:chi [ (d, -1); ("n", 1) ]
          else Aff.of_assoc space ~const:chi [ (d, -1) ]
        in
        Poly.add_ge (Poly.add_ge p lower) upper
      in
      let p = bounded (bounded (Poly.universe space) "i" bi) "j" bj in
      check
        (Oracle.Check.count_parametric
           [ ("i", -8, 10); ("j", -8, 10) ]
           p ~over:[ "i"; "j" ] ~param:"n"
           ~values:[ 0; 1; 2; 3; 4 ]))

let rename_permutes =
  qtest "rename permutes points and rejects collisions" (arb_case3 ())
    (fun case -> check (Oracle.Check.rename box3 (poly3 case)))

let suite =
  ( "poly_oracle",
    [
      simplify_preserves_points;
      eliminate_sound;
      eliminate_exact_unit;
      subtract_partitions;
      search_agrees;
      emptiness_memo;
      emptiness_memo_shared;
      union_algebra;
      farkas_sound;
      count_matches;
      count_parametric;
      rename_permutes;
    ] )
