module Space = Riot_poly.Space
module Aff = Riot_poly.Aff
module Poly = Riot_poly.Poly
module Union = Riot_poly.Union
module Farkas = Riot_poly.Farkas

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sp names = Space.of_names names

(* Convenient constraint builder: [aff sp [(dim, coeff); ...] c]. *)
let aff space ?(c = 0) terms = Aff.of_assoc space ~const:c terms

(* A box [0 <= d < n] for every (d, n). *)
let box space bounds =
  List.fold_left
    (fun p (d, n) ->
      let x = Aff.dim space d in
      Poly.add_ge (Poly.add_ge p x) (aff space ~c:(n - 1) [ (d, -1) ]))
    (Poly.universe space) bounds

let lookup assignment n = List.assoc n assignment

(* --- Space ------------------------------------------------------------- *)

let test_space () =
  let s = sp [ "i"; "j"; "n" ] in
  check_int "dim" 3 (Space.dim s);
  check_int "index" 1 (Space.index s "j");
  check_bool "mem" true (Space.mem s "n");
  check_bool "not mem" false (Space.mem s "k");
  check_bool "dup rejected" true
    (try ignore (sp [ "i"; "i" ]); false with Invalid_argument _ -> true);
  let u = Space.union s (sp [ "n"; "k" ]) in
  check_int "union" 4 (Space.dim u);
  check_int "remove" 2 (Space.dim (Space.remove s [ "j" ]))

(* --- Aff --------------------------------------------------------------- *)

let test_aff () =
  let s = sp [ "i"; "j" ] in
  let e = aff s ~c:3 [ ("i", 2); ("j", -1) ] in
  check_int "eval" 8 (Aff.eval e (lookup [ ("i", 3); ("j", 1) ]));
  check_int "coeff" 2 (Aff.coeff e "i");
  check_int "coeff absent" 0 (Aff.coeff e "k");
  let e2 = Aff.add e (Aff.dim s "j") in
  check_int "add eval" 9 (Aff.eval e2 (lookup [ ("i", 3); ("j", 1) ]));
  let e3 = Aff.subst e "i" (aff s ~c:1 [ ("j", 1) ]) in
  (* 2*(j+1) - j + 3 = j + 5 *)
  check_int "subst eval" 9 (Aff.eval e3 (lookup [ ("i", 99); ("j", 4) ]));
  let e4 = Aff.fix_dims e [ ("i", 5) ] in
  check_int "fix" 12 (Aff.eval e4 (lookup [ ("i", 0); ("j", 1) ]));
  check_int "content gcd" 2 (Aff.content_gcd (aff s [ ("i", 4); ("j", -6) ]))

(* --- Poly: emptiness and sampling -------------------------------------- *)

let test_empty_basic () =
  let s = sp [ "x" ] in
  let p = box s [ ("x", 10) ] in
  check_bool "box nonempty" false (Poly.is_integrally_empty p);
  let p2 = Poly.add_ge p (aff s ~c:(-20) [ ("x", 1) ]) in
  check_bool "contradiction empty" true (Poly.is_integrally_empty p2);
  check_bool "rationally empty too" true (Poly.is_rationally_empty p2)

let test_integer_vs_rational () =
  (* 2x = 1 has rational but no integer solutions. *)
  let s = sp [ "x" ] in
  let p = Poly.add_eq (Poly.universe s) (aff s ~c:(-1) [ ("x", 2) ]) in
  check_bool "rationally nonempty" false (Poly.is_rationally_empty p);
  check_bool "integrally empty" true (Poly.is_integrally_empty p);
  (* 0 <= 3x <= 2, x >= 1: rational points exist in [1/3 .. 2/3]? no: x>=1
     contradicts 3x<=2 rationally as well. Use a genuinely fractional gap:
     3 <= 2x <= 3 -> x = 3/2. *)
  let p2 =
    Poly.add_ge
      (Poly.add_ge (Poly.universe s) (aff s ~c:(-3) [ ("x", 2) ]))
      (aff s ~c:3 [ ("x", -2) ])
  in
  check_bool "x=3/2 rationally nonempty" false (Poly.is_rationally_empty p2);
  check_bool "x=3/2 integrally empty" true (Poly.is_integrally_empty p2)

let test_sample_and_mem () =
  let s = sp [ "i"; "j" ] in
  let p = Poly.add_ge (box s [ ("i", 5); ("j", 5) ]) (aff s ~c:(-6) [ ("i", 1); ("j", 1) ]) in
  (match Poly.sample p with
  | None -> Alcotest.fail "expected sample"
  | Some pt -> check_bool "sample satisfies" true (Poly.mem p (lookup pt)));
  check_bool "mem positive" true (Poly.mem p (lookup [ ("i", 3); ("j", 3) ]));
  check_bool "mem negative" false (Poly.mem p (lookup [ ("i", 1); ("j", 1) ]))

let test_enumerate () =
  let s = sp [ "i"; "j" ] in
  let p = box s [ ("i", 3); ("j", 2) ] in
  check_int "count box" 6 (List.length (Poly.enumerate p));
  let tri = Poly.add_ge p (aff s [ ("i", 1); ("j", -1) ]) in
  (* j <= i: (0,0) (1,0) (1,1) (2,0) (2,1) *)
  check_int "count triangle" 5 (List.length (Poly.enumerate tri));
  let line = Poly.add_eq p (aff s ~c:(-1) [ ("i", 1); ("j", -1) ]) in
  (* i = j+1: (1,0) (2,1) *)
  check_int "count line" 2 (List.length (Poly.enumerate line));
  check_bool "unbounded raises" true
    (try ignore (Poly.enumerate (Poly.universe s)); false with Failure _ -> true)

let test_eliminate () =
  let s = sp [ "i"; "j" ] in
  (* 0 <= i < 4, i = 2j: projection onto j gives j in {0,1}. Rational FM keeps
     0 <= 2j <= 3 i.e. j in [0, 3/2]; tightening yields j in [0,1]. *)
  let p = Poly.add_eq (box s [ ("i", 4) ]) (aff s [ ("i", 1); ("j", -2) ]) in
  let q = Poly.drop_dims p [ "i" ] in
  let pts = Poly.enumerate q in
  check_int "projection count" 2 (List.length pts);
  check_bool "projection points" true
    (List.for_all (fun pt -> List.mem ("j", 0) pt || List.mem ("j", 1) pt) pts)

let test_fix_dims () =
  let s = sp [ "i"; "n" ] in
  let p = Poly.add_ge (Poly.add_ge (Poly.universe s) (Aff.dim s "i"))
            (aff s ~c:(-1) [ ("n", 1); ("i", -1) ]) in
  (* 0 <= i <= n-1 *)
  let q = Poly.fix_dims p [ ("n", 4) ] in
  check_int "fixed count" 4 (List.length (Poly.enumerate q));
  check_int "space shrank" 1 (Space.dim (Poly.space q))

let test_subtract () =
  let s = sp [ "x" ] in
  let p = box s [ ("x", 10) ] in
  let q = box s [ ("x", 4) ] in
  let pieces = Poly.subtract p q in
  let pts = List.concat_map Poly.enumerate pieces in
  check_int "difference count" 6 (List.length pts);
  check_bool "difference values" true
    (List.for_all (fun pt -> List.assoc "x" pt >= 4) pts);
  (* Subtracting a superset leaves nothing. *)
  let none = List.concat_map Poly.enumerate (Poly.subtract q p) in
  check_int "empty difference" 0 (List.length none)

let test_union_ops () =
  let s = sp [ "x" ] in
  let a = box s [ ("x", 3) ] in
  let b =
    Poly.add_ge (box s [ ("x", 8) ]) (aff s ~c:(-5) [ ("x", 1) ])
    (* 5 <= x < 8 *)
  in
  let u = Union.union (Union.of_poly a) (Union.of_poly b) in
  check_int "union count" 6 (List.length (Union.enumerate u));
  check_bool "union mem" true (Union.mem u (lookup [ ("x", 6) ]));
  check_bool "union not mem" false (Union.mem u (lookup [ ("x", 4) ]));
  let d = Union.subtract u (Union.of_poly (box s [ ("x", 6) ])) in
  let pts = Union.enumerate d in
  check_int "union subtract" 2 (List.length pts);
  (* Overlapping disjuncts enumerate without duplicates. *)
  let o = Union.union (Union.of_poly a) (Union.of_poly a) in
  check_int "dedup" 3 (List.length (Union.enumerate o))

(* --- Farkas ------------------------------------------------------------ *)

(* Verify Farkas output semantically: for any integer point [u] of the
   result, the target must be >= 0 on every point of [p]. And the result
   must not be vacuous when a known-good [u] exists. *)
let test_farkas_simple () =
  (* P = { (i, j) | 0 <= i, j < 4, j <= i }.
     Target: a*i + b*j + c  with unknowns (a, b, c).
     u = (1, -1, 0) gives i - j >= 0 on P: must be admitted.
     u = (0, 1, -3) gives j - 3, negative at j=0: must be rejected. *)
  let vs = sp [ "i"; "j" ] in
  let us = sp [ "a"; "b"; "c" ] in
  let p = Poly.add_ge (box vs [ ("i", 4); ("j", 4) ]) (aff vs [ ("i", 1); ("j", -1) ]) in
  let coeff = function
    | "i" -> Aff.dim us "a"
    | "j" -> Aff.dim us "b"
    | _ -> Aff.zero us
  in
  let result = Farkas.nonneg_on ~unknowns:us ~over:p ~coeff ~const:(Aff.dim us "c") in
  check_bool "admits i - j" true
    (Poly.mem result (lookup [ ("a", 1); ("b", -1); ("c", 0) ]));
  check_bool "admits constant 5" true
    (Poly.mem result (lookup [ ("a", 0); ("b", 0); ("c", 5) ]));
  check_bool "rejects j - 3" false
    (Poly.mem result (lookup [ ("a", 0); ("b", 1); ("c", -3) ]));
  check_bool "rejects -i" false
    (Poly.mem result (lookup [ ("a", -1); ("b", 0); ("c", 0) ]))

let test_farkas_soundness_exhaustive () =
  (* Exhaustively check agreement between the Farkas result and the direct
     definition on a small grid of unknowns. *)
  let vs = sp [ "i"; "j" ] in
  let us = sp [ "a"; "b"; "c" ] in
  let p =
    Poly.add_ge (box vs [ ("i", 3); ("j", 3) ]) (aff vs ~c:(-1) [ ("i", 1); ("j", 1) ])
    (* i + j >= 1 *)
  in
  let pts = Poly.enumerate p in
  let coeff = function
    | "i" -> Aff.dim us "a"
    | "j" -> Aff.dim us "b"
    | _ -> Aff.zero us
  in
  let result = Farkas.nonneg_on ~unknowns:us ~over:p ~coeff ~const:(Aff.dim us "c") in
  for a = -2 to 2 do
    for b = -2 to 2 do
      for c = -2 to 2 do
        let direct =
          List.for_all (fun pt -> (a * List.assoc "i" pt) + (b * List.assoc "j" pt) + c >= 0) pts
        in
        let farkas = Poly.mem result (lookup [ ("a", a); ("b", b); ("c", c) ]) in
        if direct <> farkas then
          Alcotest.failf "farkas mismatch at a=%d b=%d c=%d: direct=%b farkas=%b" a b c
            direct farkas
      done
    done
  done

let test_farkas_parametric () =
  (* P = { (i, n) | 0 <= i <= n - 1, n >= 1 }. Target a*i + b*n + c >= 0.
     (a=-1, b=1, c=-1): n - 1 - i >= 0 on P: admitted.
     (a=1, b=-1, c=0): i - n <= -1 < 0: rejected. *)
  let vs = sp [ "i"; "n" ] in
  let us = sp [ "a"; "b"; "c" ] in
  let p =
    Poly.add_ge
      (Poly.add_ge
         (Poly.add_ge (Poly.universe vs) (Aff.dim vs "i"))
         (aff vs ~c:(-1) [ ("n", 1); ("i", -1) ]))
      (aff vs ~c:(-1) [ ("n", 1) ])
  in
  let coeff = function
    | "i" -> Aff.dim us "a"
    | "n" -> Aff.dim us "b"
    | _ -> Aff.zero us
  in
  let result = Farkas.nonneg_on ~unknowns:us ~over:p ~coeff ~const:(Aff.dim us "c") in
  check_bool "admits n-1-i" true
    (Poly.mem result (lookup [ ("a", -1); ("b", 1); ("c", -1) ]));
  check_bool "rejects i-n" false
    (Poly.mem result (lookup [ ("a", 1); ("b", -1); ("c", 0) ]));
  check_bool "rejects -n+2 (fails for large n)" false
    (Poly.mem result (lookup [ ("a", 0); ("b", -1); ("c", 2) ]))

let test_farkas_zero_on () =
  (* On P = { (i, j) | i = j, 0 <= i < 4 }, a*i + b*j + c = 0 for all points
     iff a + b = 0 and c = 0. *)
  let vs = sp [ "i"; "j" ] in
  let us = sp [ "a"; "b"; "c" ] in
  let p = Poly.add_eq (box vs [ ("i", 4); ("j", 4) ]) (aff vs [ ("i", 1); ("j", -1) ]) in
  let coeff = function
    | "i" -> Aff.dim us "a"
    | "j" -> Aff.dim us "b"
    | _ -> Aff.zero us
  in
  let result = Farkas.zero_on ~unknowns:us ~over:p ~coeff ~const:(Aff.dim us "c") in
  check_bool "admits (1,-1,0)" true
    (Poly.mem result (lookup [ ("a", 1); ("b", -1); ("c", 0) ]));
  check_bool "admits (0,0,0)" true
    (Poly.mem result (lookup [ ("a", 0); ("b", 0); ("c", 0) ]));
  check_bool "rejects (1,0,0)" false
    (Poly.mem result (lookup [ ("a", 1); ("b", 0); ("c", 0) ]));
  check_bool "rejects (1,-1,1)" false
    (Poly.mem result (lookup [ ("a", 1); ("b", -1); ("c", 1) ]))

(* --- Polynomial and parametric counting --------------------------------- *)

module Pl = Riot_poly.Polynomial
module Count = Riot_poly.Count

let test_polynomial_algebra () =
  let open Pl in
  let n = var "n" and m = var "m" in
  let p = add (mul n m) (sub n (of_int 3)) in
  let at nv mv = Riot_base.Q.to_int_exn (eval p (function "n" -> nv | _ -> mv)) in
  check_int "eval" (20 + 4 - 3) (at 4 5);
  check_int "eval2" (6 + 2 - 3) (at 2 3);
  check_int "degree" 2 (degree p);
  Alcotest.(check (list string)) "vars" [ "m"; "n" ] (variables p);
  check_bool "mul commutes" true (equal (mul n m) (mul m n));
  check_bool "sub cancels" true (is_zero (sub p p));
  check_bool "distributes" true
    (equal (mul n (add m one)) (add (mul n m) n))

let test_count_box () =
  (* 0 <= i < n, 0 <= j < m  ->  n*m points. *)
  let s = sp [ "i"; "j"; "n"; "m" ] in
  let p =
    Poly.add_ge
      (Poly.add_ge
         (Poly.add_ge
            (Poly.add_ge (Poly.universe s) (Aff.dim s "i"))
            (aff s ~c:(-1) [ ("n", 1); ("i", -1) ]))
         (Aff.dim s "j"))
      (aff s ~c:(-1) [ ("m", 1); ("j", -1) ])
  in
  match Count.count p ~over:[ "i"; "j" ] with
  | None -> Alcotest.fail "expected a box count"
  | Some c ->
      check_bool "n*m" true (Pl.equal c Pl.(mul (var "n") (var "m")));
      (* Pinned dimension contributes factor one (same range so the count
         stays a polynomial: min(n,m) would not be). *)
      let p2 =
        Poly.add_eq
          (Poly.add_ge
             (Poly.add_ge
                (Poly.add_ge
                   (Poly.add_ge (Poly.universe s) (Aff.dim s "i"))
                   (aff s ~c:(-1) [ ("n", 1); ("i", -1) ]))
                (Aff.dim s "j"))
             (aff s ~c:(-1) [ ("n", 1); ("j", -1) ]))
          (aff s [ ("j", 1); ("i", -1) ])
      in
      (match Count.count p2 ~over:[ "i"; "j" ] with
      | Some c2 -> check_bool "diagonal pinned" true (Pl.equal c2 (Pl.var "n"))
      | None -> Alcotest.fail "pinned count");
      (* Triangular domains are out of scope. *)
      let tri = Poly.add_ge p (aff s [ ("i", 1); ("j", -1) ]) in
      check_bool "triangular refused" true (Count.count tri ~over:[ "i"; "j" ] = None)

let test_count_matches_enumeration () =
  let s = sp [ "i"; "j"; "n" ] in
  let p =
    Poly.add_ge
      (Poly.add_ge
         (Poly.add_ge
            (Poly.add_ge (Poly.universe s) (Aff.dim s "i"))
            (aff s ~c:(-1) [ ("n", 1); ("i", -1) ]))
         (aff s ~c:2 [ ("j", 1) ]))
      (aff s ~c:1 [ ("n", 1); ("j", -1) ])
    (* -2 <= j <= n+1 *)
  in
  match Count.count p ~over:[ "i"; "j" ] with
  | None -> Alcotest.fail "expected count"
  | Some c ->
      List.iter
        (fun nv ->
          let concrete = List.length (Poly.enumerate (Poly.fix_dims p [ ("n", nv) ])) in
          check_int
            (Printf.sprintf "count at n=%d" nv)
            concrete
            (Pl.eval_int_exn c (fun _ -> nv)))
        [ 1; 2; 5 ]

(* --- Property tests ----------------------------------------------------- *)

let poly_gen =
  (* Random polyhedra inside a 0..5 box over (i, j, k) with a few extra
     random constraints. *)
  let open QCheck in
  let space = sp [ "i"; "j"; "k" ] in
  let cstr =
    map
      (fun (ci, cj, ck, c) -> aff space ~c [ ("i", ci); ("j", cj); ("k", ck) ])
      (quad (int_range (-2) 2) (int_range (-2) 2) (int_range (-2) 2) (int_range (-3) 6))
  in
  map
    (fun (ges, eqs) ->
      let p = box space [ ("i", 6); ("j", 6); ("k", 6) ] in
      let p = List.fold_left Poly.add_ge p ges in
      List.fold_left Poly.add_eq p eqs)
    (pair (list_of_size (Gen.int_range 0 3) cstr) (list_of_size (Gen.int_range 0 1) cstr))

let qcheck_poly =
  let open QCheck in
  [ Test.make ~name:"emptiness agrees with enumeration" ~count:150 poly_gen
      (fun p -> Poly.is_integrally_empty p = (Poly.enumerate p = []));
    Test.make ~name:"sample satisfies constraints" ~count:150 poly_gen (fun p ->
        match Poly.sample p with
        | None -> true
        | Some pt -> Poly.mem p (lookup pt));
    Test.make ~name:"enumeration points all satisfy" ~count:100 poly_gen (fun p ->
        List.for_all (fun pt -> Poly.mem p (lookup pt)) (Poly.enumerate p));
    Test.make ~name:"FM projection is sound (no integer point lost)" ~count:100
      poly_gen (fun p ->
        let projected = Poly.drop_dims p [ "k" ] in
        List.for_all
          (fun pt ->
            Poly.mem projected (lookup (List.remove_assoc "k" pt)))
          (Poly.enumerate p));
    Test.make ~name:"simplify preserves integer points" ~count:100 poly_gen
      (fun p ->
        let s = Poly.simplify p in
        let key pt = List.sort compare pt in
        List.sort compare (List.map key (Poly.enumerate p))
        = List.sort compare (List.map key (Poly.enumerate s)));
    Test.make ~name:"subtract partitions correctly" ~count:100 (QCheck.pair poly_gen poly_gen)
      (fun (p, q) ->
        let diff = Poly.subtract p q in
        let in_diff pt = List.exists (fun d -> Poly.mem d (lookup pt)) diff in
        List.for_all
          (fun pt -> in_diff pt = not (Poly.mem q (lookup pt)))
          (Poly.enumerate p));
    Test.make ~name:"subtract pieces are subsets of p" ~count:100
      (QCheck.pair poly_gen poly_gen) (fun (p, q) ->
        List.for_all
          (fun d -> List.for_all (fun pt -> Poly.mem p (lookup pt)) (Poly.enumerate d))
          (Poly.subtract p q)) ]

let qcheck_counting =
  let open QCheck in
  let poly_ring =
    let gen =
      Gen.(
        let term = map2 (fun v c -> Pl.scale (Riot_base.Q.of_int c)
                            (match v with 0 -> Pl.one | 1 -> Pl.var "x" | 2 -> Pl.var "y"
                                        | _ -> Pl.mul (Pl.var "x") (Pl.var "y")))
            (int_range 0 3) (int_range (-4) 4)
        in
        map (List.fold_left Pl.add Pl.zero) (list_size (return 4) term))
    in
    make gen
  in
  [ Test.make ~name:"polynomial ring laws" ~count:100 (QCheck.triple poly_ring poly_ring poly_ring)
      (fun (a, b, c) ->
        Pl.equal (Pl.mul a (Pl.add b c)) (Pl.add (Pl.mul a b) (Pl.mul a c))
        && Pl.equal (Pl.mul a b) (Pl.mul b a)
        && Pl.is_zero (Pl.sub (Pl.add a b) (Pl.add b a)));
    Test.make ~name:"box count matches enumeration" ~count:100
      (QCheck.quad (int_range 1 4) (int_range 1 4) (int_range 0 3) (int_range 0 3))
      (fun (n, m, lo1, lo2) ->
        (* lo <= i < lo + n, lo2 <= j < lo2 + m, shifted by a parameter. *)
        let s = sp [ "i"; "j"; "p" ] in
        let box =
          Poly.add_ge
            (Poly.add_ge
               (Poly.add_ge
                  (Poly.add_ge (Poly.universe s)
                     (aff s ~c:(-lo1) [ ("i", 1); ("p", -1) ]))
                  (aff s ~c:(lo1 + n - 1) [ ("i", -1); ("p", 1) ]))
               (aff s ~c:(-lo2) [ ("j", 1) ]))
            (aff s ~c:(lo2 + m - 1) [ ("j", -1) ])
        in
        match Count.count box ~over:[ "i"; "j" ] with
        | None -> false
        | Some c ->
            List.for_all
              (fun pv ->
                let concrete =
                  List.length (Poly.enumerate (Poly.fix_dims box [ ("p", pv) ]))
                in
                Pl.eval_int_exn c (fun _ -> pv) = concrete)
              [ 0; 1; 5 ]) ]

(* --- Regressions pinned from the differential-oracle fuzzer ------------ *)

(* A colliding rename must be rejected at both entry points; a genuine
   permutation still permutes the point set. *)
let test_rename_collision () =
  let s = sp [ "i"; "j" ] in
  let p = box s [ ("i", 2); ("j", 3) ] in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "poly collision" true
    (raises (fun () -> Poly.rename p [ ("i", "j") ]));
  check_bool "union collision" true
    (raises (fun () -> Union.rename (Union.of_poly p) [ ("i", "j") ]));
  let q = Poly.rename p [ ("i", "j"); ("j", "i") ] in
  check_int "swapped points" 6 (List.length (Poly.enumerate q));
  check_bool "swapped mem" true (Poly.mem q (lookup [ ("j", 1); ("i", 2) ]));
  check_bool "swapped non-mem" false
    (Poly.mem q (lookup [ ("j", 1); ("i", 3) ]))

(* With ~tighten:false the equality normaliser skipped sign canonicalisation
   on rows whose gcd does not divide the constant, so [2i - 1 = 0] and its
   negation survived deduplication as two distinct constraints. *)
let test_norm_eq_sign_dedup () =
  let s = sp [ "i" ] in
  let e = aff s ~c:(-1) [ ("i", 2) ] in
  let p = Poly.add_eq (Poly.add_eq (Poly.universe s) e) (Aff.neg e) in
  check_int "deduped equalities" 1
    (List.length (Poly.eqs (Poly.simplify ~tighten:false p)))

(* Wide spaces: every row below is zero in its first 12 of 40 coefficients,
   so the constraint tables must tell rows apart by their tails. *)
let test_wide_simplify_compact () =
  let d k = Printf.sprintf "c%d" k in
  let s = sp (List.init 40 d) in
  let tail = List.init 28 (fun k -> k + 12) in
  (* Per tail dim: a weak bound, its duplicate and the strongest one. *)
  let ges =
    List.concat_map
      (fun k -> [ aff s ~c:5 [ (d k, 1) ]; aff s ~c:5 [ (d k, 1) ]; aff s ~c:2 [ (d k, 1) ] ])
      tail
  in
  (* An opposite pair: c38 - c39 >= 0 and c39 - c38 >= 0. *)
  let pair = [ aff s [ (d 38, 1); (d 39, -1) ]; aff s [ (d 39, 1); (d 38, -1) ] ] in
  let e = aff s ~c:1 [ (d 30, 1); (d 31, 2) ] in
  let p = Poly.of_constraints s ~eqs:[ e; e ] ~ges:(ges @ pair) in
  let c = Poly.compact p in
  check_int "compact: one equality" 1 (List.length (Poly.eqs c));
  check_int "compact: one inequality per direction" (28 + 2) (List.length (Poly.ges c));
  check_bool "compact: strongest kept" true
    (List.for_all (fun (a : Aff.t) -> a.Aff.const = 2 || List.memq a pair) (Poly.ges c));
  let q = Poly.simplify p in
  check_int "simplify: one inequality per tail dim" 28 (List.length (Poly.ges q));
  check_bool "simplify: strongest kept" true
    (List.for_all (fun (a : Aff.t) -> a.Aff.const = 2) (Poly.ges q));
  check_int "simplify: opposite pair promoted to an equality" 2 (List.length (Poly.eqs q));
  check_bool "simplify: promoted equality is c38 = c39" true
    (List.exists
       (fun (a : Aff.t) -> Aff.equal a (aff s [ (d 38, 1); (d 39, -1) ]))
       (Poly.eqs q))

(* Components are remapped by position; unconstrained dimensions belong to
   none and constant rows come first. *)
let test_split_components () =
  let s = sp [ "a"; "b"; "c"; "d"; "e" ] in
  let p =
    Poly.of_constraints s ~eqs:[]
      ~ges:[ aff s ~c:1 [ ("a", 1); ("c", -2) ]; aff s ~c:(-1) [ ("d", 3) ]; aff s ~c:4 [] ]
  in
  match Poly.split_components p with
  | [ k; ac; dd ] ->
      check_int "constants over the empty space" 0 (Space.dim (Poly.space k));
      Alcotest.(check (list string)) "a-c component" [ "c"; "a" ] (Space.names (Poly.space ac));
      Alcotest.(check (list string)) "d component" [ "d" ] (Space.names (Poly.space dd));
      (match Poly.ges ac with
      | [ r ] ->
          check_int "a" 1 (Aff.coeff r "a");
          check_int "c" (-2) (Aff.coeff r "c");
          check_int "const" 1 r.Aff.const
      | _ -> Alcotest.fail "one row in the a-c component");
      check_bool "not empty" false (Poly.is_rationally_empty p)
  | l -> Alcotest.failf "expected 3 components, got %d" (List.length l)

(* enumerate silently truncated a one-side-bounded dimension to a 129-value
   window instead of failing per its spec. *)
let test_enumerate_one_sided_raises () =
  let s = sp [ "x" ] in
  let p = Poly.add_ge (Poly.universe s) (Aff.dim s "x") in
  check_bool "raises" true
    (match Poly.enumerate p with exception Failure _ -> true | _ -> false)

(* The window cap in sample/is_integrally_empty is observable through
   ~on_truncate, so "no point found in the window" can be told apart from a
   proof of emptiness. *)
let test_truncation_hook () =
  let s = sp [ "x" ] in
  let p = Poly.add_ge (Poly.universe s) (aff s ~c:(-5) [ ("x", 1) ]) in
  let fired = ref [] in
  (match Poly.sample ~on_truncate:(fun d -> fired := d :: !fired) p with
  | Some [ ("x", v) ] -> check_bool "sampled in half-line" true (v >= 5)
  | _ -> Alcotest.fail "expected a sample");
  check_bool "hook fired" true (List.mem "x" !fired);
  (* A sparse diophantine half-line: the first integer point (x = 200,
     y = 199) lies outside the default window, so the search gives up — and
     must say so through the hook rather than claim emptiness outright. *)
  let s2 = sp [ "x"; "y" ] in
  let p2 =
    Poly.add_ge
      (Poly.add_eq (Poly.universe s2)
         (aff s2 ~c:(-1) [ ("x", 200); ("y", -201) ]))
      (Aff.dim s2 "y")
  in
  check_bool "solution exists" true
    (Poly.mem p2 (lookup [ ("x", 200); ("y", 199) ]));
  let gave_up = ref false in
  let verdict =
    Poly.is_integrally_empty ~on_truncate:(fun _ -> gave_up := true) p2
  in
  check_bool "empty verdict only under a truncation flag" true
    ((not verdict) || !gave_up)

(* A rationally-empty-but-not-obviously-empty polyhedron ([i >= 3, i <= 1])
   was counted as the range product -1. *)
let test_count_rationally_empty () =
  let s = sp [ "i" ] in
  let p =
    Poly.add_ge
      (Poly.add_ge (Poly.universe s) (aff s ~c:(-3) [ ("i", 1) ]))
      (aff s ~c:1 [ ("i", -1) ])
  in
  match Count.count p ~over:[ "i" ] with
  | Some c -> check_bool "zero" true (Pl.is_zero c)
  | None -> Alcotest.fail "expected a count"

(* --- Frozen kernel: the differential oracle ------------------------------ *)

(* The hash-table implementation of simplify, compact, split_components and
   rational emptiness as it stood before the kernel was rewritten with
   index loops and open addressing, copied verbatim over a record of its
   own (Poly.t is abstract).  The rewrite promises the same values: the
   same rows kept, in the same order, the same promotions, the same greedy
   elimination order and budget give-up, the same checked arithmetic. *)
module Frozen = struct
  module C = Riot_base.Checked

  type t = { space : Space.t; eqs : Aff.t list; ges : Aff.t list }

  let of_poly p = { space = Poly.space p; eqs = Poly.eqs p; ges = Poly.ges p }

  (* The two Aff helpers the kernel rewrite also touched, as they were. *)
  module Aff = struct
    include Aff

    let is_constant a = Array.for_all (( = ) 0) a.coeffs

    let subst_at e i r =
      let c = e.coeffs.(i) in
      if c = 0 then e
      else
        let e' = { e with coeffs = Array.copy e.coeffs } in
        e'.coeffs.(i) <- 0;
        add e' (scale c r)
  end

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

  (* Components answered by the budget give-up (the one line added to the
     copy), for comparison with [Poly.memo_giveups]. *)
  let giveups = ref 0

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
    with Fm_budget_exceeded ->
      incr giveups;
      false

  let is_rationally_empty t = List.exists component_empty (split_components t)
end

(* Every row with its space, coefficients and constant, in order: the
   rewritten kernel must return exactly the frozen one's values. *)
let show_row (a : Aff.t) =
  Printf.sprintf "[%s|%s|%d]"
    (String.concat "," (Space.names a.Aff.space))
    (String.concat "," (Array.to_list (Array.map string_of_int a.Aff.coeffs)))
    a.Aff.const

let show_system space eqs ges =
  Printf.sprintf "(%s) eqs %s; ges %s"
    (String.concat "," (Space.names space))
    (String.concat " " (List.map show_row eqs))
    (String.concat " " (List.map show_row ges))

let show_poly p = show_system (Poly.space p) (Poly.eqs p) (Poly.ges p)
let show_frozen (f : Frozen.t) = show_system f.Frozen.space f.Frozen.eqs f.Frozen.ges
let outcome f x = match f x with v -> v | exception e -> "raised " ^ Printexc.to_string e

(* A random system seeded with what normalisation must get right: repeated
   rows (the same row or an equal copy), same-direction rows with other
   constants, opposite rows whose constants cancel or do not, rows with a
   common factor, and constant rows, shuffled among the rows they derive
   from. *)
let random_system st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let n = int 1 6 in
  let s = sp (List.init n (Printf.sprintf "x%d")) in
  let row () =
    if Random.State.int st 8 = 0 then Aff.const s (int (-2) 2)
    else
      { Aff.space = s;
        coeffs = Array.init n (fun _ -> if Random.State.bool st then 0 else int (-3) 3);
        const = int (-6) 6 }
  in
  let derive (a : Aff.t) =
    match Random.State.int st 6 with
    | 0 -> a
    | 1 -> { a with Aff.coeffs = Array.copy a.Aff.coeffs }
    | 2 -> { a with Aff.const = int (-6) 6 }
    | 3 -> Aff.neg a
    | 4 -> Aff.add_const (Aff.neg a) (int (-2) 2)
    | _ -> Aff.scale (int 2 4) a
  in
  let rows k =
    let base = List.init k (fun _ -> row ()) in
    base @ List.filter_map (fun a -> if Random.State.bool st then Some (derive a) else None) base
    |> List.map (fun a -> (Random.State.bits st, a))
    |> List.stable_sort (fun (x, _) (y, _) -> compare x y)
    |> List.map snd
  in
  Poly.of_constraints s ~eqs:(rows (int 0 3)) ~ges:(rows (int 0 9))

(* Inequalities enough that Fourier-Motzkin passes its 4000-inequality
   budget, at the first elimination or a later one. *)
let wide_system st =
  let n = 2 + Random.State.int st 3 in
  let s = sp (List.init n (Printf.sprintf "x%d")) in
  let coeff () = (if Random.State.bool st then 1 else -1) * (1 + Random.State.int st 30) in
  let ges =
    List.init
      (30 + Random.State.int st 170)
      (fun _ ->
        { Aff.space = s; coeffs = Array.init n (fun _ -> coeff ()); const = Random.State.int st 50 })
  in
  Poly.of_constraints s ~eqs:[] ~ges

(* The kernel's answers on one system against the frozen copy's: the
   first that differs, if any. *)
let kernel_mismatch ~eliminate p =
  let f = Frozen.of_poly p in
  let checks =
    [ ( "simplify",
        outcome (fun () -> show_poly (Poly.simplify p)) (),
        outcome (fun () -> show_frozen (Frozen.simplify f)) () );
      ( "simplify ~tighten:false",
        outcome (fun () -> show_poly (Poly.simplify ~tighten:false p)) (),
        outcome (fun () -> show_frozen (Frozen.simplify ~tighten:false f)) () );
      ( "compact",
        outcome (fun () -> show_poly (Poly.compact p)) (),
        outcome (fun () -> show_frozen (Frozen.compact f)) () );
      ( "split_components",
        outcome (fun () -> String.concat " | " (List.map show_poly (Poly.split_components p))) (),
        outcome
          (fun () -> String.concat " | " (List.map show_frozen (Frozen.split_components f)))
          () );
      ( "is_rationally_empty",
        outcome
          (fun () ->
            let memo = Poly.memo () in
            let v = Poly.is_rationally_empty ~memo p in
            Printf.sprintf "%b (memo-less %b), %d give-ups" v (Poly.is_rationally_empty p)
              (Poly.memo_giveups memo))
          (),
        outcome
          (fun () ->
            Frozen.giveups := 0;
            let v = Frozen.is_rationally_empty f in
            let giveups = !Frozen.giveups in
            Printf.sprintf "%b (memo-less %b), %d give-ups" v v giveups)
          () ) ]
    @
    if not eliminate then []
    else
      let names = List.filteri (fun i _ -> i mod 2 = 0) (Space.names (Poly.space p)) in
      [ ( "eliminate",
          outcome (fun () -> show_poly (Poly.eliminate p names)) (),
          outcome (fun () -> show_frozen (Frozen.eliminate f names)) () ) ]
  in
  List.find_map
    (fun (what, got, want) ->
      if got = want then None
      else Some (Printf.sprintf "%s on %s:\n  kernel %s\n  frozen %s" what (show_poly p) got want))
    checks

let frozen_property ~name ~count ~eliminate gen =
  QCheck.Test.make ~name ~count
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      match kernel_mismatch ~eliminate (gen (Random.State.make [| seed |])) with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let qcheck_frozen =
  [ frozen_property ~name:"kernel = frozen copy on seeded systems" ~count:2000 ~eliminate:true
      random_system;
    frozen_property ~name:"kernel = frozen copy past the FM budget" ~count:30 ~eliminate:false
      wide_system ]

(* Seeded systems on which the greedy elimination order decides a budget
   give-up: a tie broken the other way changes the give-up count. *)
let test_frozen_pinned () =
  List.iter
    (fun seed ->
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d" seed) None
        (kernel_mismatch ~eliminate:true (random_system (Random.State.make [| seed |]))))
    [ 56988; 80152; 313483; 610141; 676501; 694601 ]

(* 200 rows over three dimensions, about half of them positive and half
   negative on each: the first elimination alone would combine some 10^4
   pairs, past the budget. *)
let test_frozen_giveup () =
  let s = sp [ "x"; "y"; "z" ] in
  let row i =
    { Aff.space = s;
      coeffs =
        Array.init 3 (fun d ->
            (if (i lsr d) land 1 = 0 then 1 else -1) * (1 + (i * (d + 3) mod 29)));
      const = 10 }
  in
  let p = Poly.of_constraints s ~eqs:[] ~ges:(List.init 200 row) in
  let memo = Poly.memo () in
  check_bool "not provably empty" false (Poly.is_rationally_empty ~memo p);
  check_int "by the budget give-up" 1 (Poly.memo_giveups memo);
  Alcotest.(check (option string)) "same values as the frozen copy" None
    (kernel_mismatch ~eliminate:false p)

(* 3x + 2^60 >= 0 and -5x + 2^60 >= 0: eliminating x multiplies 2^60 by 5,
   which no int holds.  Both kernels raise rather than wrap. *)
let test_frozen_overflow () =
  let s = sp [ "x" ] in
  let big = 1 lsl 60 in
  let p =
    Poly.of_constraints s ~eqs:[]
      ~ges:[ aff s ~c:big [ ("x", 3) ]; aff s ~c:big [ ("x", -5) ] ]
  in
  let raises f = match f () with _ -> false | exception Riot_base.Checked.Overflow -> true in
  check_bool "kernel raises" true (raises (fun () -> Poly.is_rationally_empty p));
  check_bool "kernel raises through a memo" true
    (raises (fun () -> Poly.is_rationally_empty ~memo:(Poly.memo ()) p));
  check_bool "frozen copy raises" true
    (raises (fun () -> Frozen.is_rationally_empty (Frozen.of_poly p)));
  (* x + min_int >= 0 has no negation: simplify raises as it looks for the
     opposite direction. *)
  let q = Poly.of_constraints s ~eqs:[] ~ges:[ aff s ~c:min_int [ ("x", 1) ] ] in
  check_bool "kernel simplify raises on a min_int constant" true
    (raises (fun () -> Poly.simplify q));
  check_bool "frozen simplify raises too" true
    (raises (fun () -> Frozen.simplify (Frozen.of_poly q)))

let suite =
  ( "poly",
    [ Alcotest.test_case "space" `Quick test_space;
      Alcotest.test_case "aff" `Quick test_aff;
      Alcotest.test_case "empty basic" `Quick test_empty_basic;
      Alcotest.test_case "integer vs rational emptiness" `Quick test_integer_vs_rational;
      Alcotest.test_case "sample and mem" `Quick test_sample_and_mem;
      Alcotest.test_case "enumerate" `Quick test_enumerate;
      Alcotest.test_case "eliminate" `Quick test_eliminate;
      Alcotest.test_case "fix dims" `Quick test_fix_dims;
      Alcotest.test_case "subtract" `Quick test_subtract;
      Alcotest.test_case "union ops" `Quick test_union_ops;
      Alcotest.test_case "farkas simple" `Quick test_farkas_simple;
      Alcotest.test_case "farkas exhaustive agreement" `Quick test_farkas_soundness_exhaustive;
      Alcotest.test_case "farkas parametric" `Quick test_farkas_parametric;
      Alcotest.test_case "farkas zero_on" `Quick test_farkas_zero_on;
      Alcotest.test_case "polynomial algebra" `Quick test_polynomial_algebra;
      Alcotest.test_case "count box" `Quick test_count_box;
      Alcotest.test_case "count matches enumeration" `Quick test_count_matches_enumeration;
      Alcotest.test_case "rename collision" `Quick test_rename_collision;
      Alcotest.test_case "norm_eq sign dedup" `Quick test_norm_eq_sign_dedup;
      Alcotest.test_case "wide simplify and compact" `Quick test_wide_simplify_compact;
      Alcotest.test_case "split components" `Quick test_split_components;
      Alcotest.test_case "enumerate one-sided raises" `Quick test_enumerate_one_sided_raises;
      Alcotest.test_case "truncation hook" `Quick test_truncation_hook;
      Alcotest.test_case "count rationally empty" `Quick test_count_rationally_empty;
      Alcotest.test_case "frozen copy: pinned seeds" `Quick test_frozen_pinned;
      Alcotest.test_case "frozen copy: budget give-up" `Quick test_frozen_giveup;
      Alcotest.test_case "frozen copy: FM overflow raises" `Quick test_frozen_overflow ]
    @ List.map QCheck_alcotest.to_alcotest (qcheck_poly @ qcheck_counting @ qcheck_frozen) )
