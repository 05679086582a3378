module C = Riot_base.Checked
module Q = Riot_base.Q

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_checked_basic () =
  check_int "add" 7 (C.add 3 4);
  check_int "sub" (-1) (C.sub 3 4);
  check_int "mul" 12 (C.mul 3 4);
  check_int "neg" (-3) (C.neg 3);
  check_int "abs" 3 (C.abs (-3));
  check_int "gcd" 6 (C.gcd 12 (-18));
  check_int "gcd00" 0 (C.gcd 0 0);
  check_int "gcd0" 5 (C.gcd 0 5);
  check_int "lcm" 36 (C.lcm 12 18);
  check_int "fdiv pos" 2 (C.fdiv 7 3);
  check_int "fdiv neg" (-3) (C.fdiv (-7) 3);
  check_int "fdiv negdiv" (-3) (C.fdiv 7 (-3));
  check_int "cdiv pos" 3 (C.cdiv 7 3);
  check_int "cdiv neg" (-2) (C.cdiv (-7) 3);
  check_int "fdiv exact" (-2) (C.fdiv (-6) 3);
  check_int "cdiv exact" (-2) (C.cdiv (-6) 3)

let test_checked_overflow () =
  let raises f = try ignore (f ()); false with C.Overflow -> true in
  check_bool "add overflow" true (raises (fun () -> C.add max_int 1));
  check_bool "add underflow" true (raises (fun () -> C.add min_int (-1)));
  check_bool "sub overflow" true (raises (fun () -> C.sub min_int 1));
  check_bool "sub min_int rhs ok" true (C.sub 0 (min_int + 1) = max_int);
  check_bool "mul overflow" true (raises (fun () -> C.mul max_int 2));
  check_bool "mul min -1" true (raises (fun () -> C.mul min_int (-1)));
  check_bool "neg min_int" true (raises (fun () -> C.neg min_int));
  check_bool "no false positive" true (C.mul 2147483647 2147483647 > 0)

let test_q_basic () =
  let q = Q.make 6 (-4) in
  check_int "num normalised" (-3) (Q.num q);
  check_int "den normalised" 2 (Q.den q);
  check_bool "add" true (Q.equal (Q.add (Q.make 1 2) (Q.make 1 3)) (Q.make 5 6));
  check_bool "sub" true (Q.equal (Q.sub (Q.make 1 2) (Q.make 1 3)) (Q.make 1 6));
  check_bool "mul" true (Q.equal (Q.mul (Q.make 2 3) (Q.make 3 4)) (Q.make 1 2));
  check_bool "div" true (Q.equal (Q.div (Q.make 2 3) (Q.make 4 3)) (Q.make 1 2));
  check_bool "inv neg" true (Q.equal (Q.inv (Q.make (-2) 3)) (Q.make (-3) 2));
  check_int "floor" (-2) (Q.floor (Q.make (-3) 2));
  check_int "ceil" (-1) (Q.ceil (Q.make (-3) 2));
  check_int "floor pos" 1 (Q.floor (Q.make 3 2));
  check_int "ceil pos" 2 (Q.ceil (Q.make 3 2));
  check_int "compare" (-1) (Q.compare (Q.make 1 3) (Q.make 1 2));
  check_int "sign" (-1) (Q.sign (Q.make (-1) 7));
  check_bool "zero" true (Q.is_zero (Q.make 0 5))

let test_q_exceptions () =
  let dz f = try ignore (f ()); false with Division_by_zero -> true in
  check_bool "make 0 den" true (dz (fun () -> Q.make 1 0));
  check_bool "inv zero" true (dz (fun () -> Q.inv Q.zero));
  check_bool "div zero" true (dz (fun () -> Q.div Q.one Q.zero));
  check_bool "to_int_exn" true
    (try ignore (Q.to_int_exn (Q.make 1 2)); false with Invalid_argument _ -> true)

let qcheck_q =
  let rat =
    QCheck.map
      (fun (n, d) -> Q.make n (if d = 0 then 1 else d))
      QCheck.(pair (int_range (-1000) 1000) (int_range (-50) 50))
  in
  [ QCheck.Test.make ~name:"q add commutative" ~count:200 (QCheck.pair rat rat)
      (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a));
    QCheck.Test.make ~name:"q mul associative" ~count:200 (QCheck.triple rat rat rat)
      (fun (a, b, c) -> Q.equal (Q.mul a (Q.mul b c)) (Q.mul (Q.mul a b) c));
    QCheck.Test.make ~name:"q add-neg cancels" ~count:200 rat
      (fun a -> Q.is_zero (Q.add a (Q.neg a)));
    QCheck.Test.make ~name:"q distributive" ~count:200 (QCheck.triple rat rat rat)
      (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    QCheck.Test.make ~name:"q floor <= x <= ceil" ~count:200 rat
      (fun a ->
        Q.compare (Q.of_int (Q.floor a)) a <= 0
        && Q.compare a (Q.of_int (Q.ceil a)) <= 0
        && Q.ceil a - Q.floor a <= 1);
    QCheck.Test.make ~name:"q normalised invariant" ~count:200 rat
      (fun a -> Q.den a > 0 && C.gcd (Q.num a) (Q.den a) <= 1);
    QCheck.Test.make ~name:"checked fdiv/cdiv vs float" ~count:500
      QCheck.(pair (int_range (-10000) 10000) (int_range (-100) 100))
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        C.fdiv a b = int_of_float (Float.floor (float_of_int a /. float_of_int b))
        && C.cdiv a b = int_of_float (Float.ceil (float_of_int a /. float_of_int b)))
  ]

(* Cover.min_cover against the per-position brute force, over random
   intervals that are empty, clipped at either end or nested. *)
let test_min_cover () =
  let st = Random.State.make [| 2012 |] in
  for _ = 1 to 300 do
    let n = Random.State.int st 40 in
    let ivs =
      List.init (Random.State.int st 12) (fun _ ->
          let lo = Random.State.int st (n + 6) - 3 in
          ( lo,
            lo + Random.State.int st 15 - 3,
            Random.State.int st 20 ))
    in
    let brute p =
      List.fold_left
        (fun m (lo, hi, w) -> if lo <= p && p <= hi then min m w else m)
        max_int ivs
    in
    Alcotest.(check (array int))
      (Printf.sprintf "n=%d, %d intervals" n (List.length ivs))
      (Array.init n brute)
      (Riot_base.Cover.min_cover ~n ivs)
  done

let suite =
  ( "base",
    [ Alcotest.test_case "checked basic" `Quick test_checked_basic;
      Alcotest.test_case "checked overflow" `Quick test_checked_overflow;
      Alcotest.test_case "q basic" `Quick test_q_basic;
      Alcotest.test_case "q exceptions" `Quick test_q_exceptions ]
    @ List.map QCheck_alcotest.to_alcotest qcheck_q
    @ [ Alcotest.test_case "cover min vs brute force" `Quick test_min_cover ] )
