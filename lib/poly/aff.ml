module C = Riot_base.Checked
module Q = Riot_base.Q

type t = { space : Space.t; coeffs : int array; const : int }

let zero space = { space; coeffs = Array.make (Space.dim space) 0; const = 0 }
let const space c = { space; coeffs = Array.make (Space.dim space) 0; const = c }

let dim space n =
  let e = zero space in
  let coeffs = Array.copy e.coeffs in
  coeffs.(Space.index space n) <- 1;
  { e with coeffs }

let of_assoc space ?(const = 0) l =
  let coeffs = Array.make (Space.dim space) 0 in
  List.iter (fun (n, c) -> coeffs.(Space.index space n) <- C.add coeffs.(Space.index space n) c) l;
  { space; coeffs; const }

let coeff t n = match Space.index_opt t.space n with
  | Some i -> t.coeffs.(i)
  | None -> 0

let check_space a b =
  if not (Space.equal a.space b.space) then invalid_arg "Aff: space mismatch"

let add a b =
  check_space a b;
  { a with coeffs = Array.map2 C.add a.coeffs b.coeffs; const = C.add a.const b.const }

let neg a = { a with coeffs = Array.map C.neg a.coeffs; const = C.neg a.const }
let sub a b = add a (neg b)
let scale k a = { a with coeffs = Array.map (C.mul k) a.coeffs; const = C.mul k a.const }
let add_const a c = { a with const = C.add a.const c }
(* A plain loop: [Array.for_all (( = ) 0)] allocates a closure per call,
   and emptiness checks call this on every row of every step. *)
let is_constant a =
  let c = a.coeffs in
  let i = ref 0 in
  while !i < Array.length c && c.(!i) = 0 do
    incr i
  done;
  !i = Array.length c
let is_zero a = is_constant a && a.const = 0
let equal a b = Space.equal a.space b.space && a.coeffs = b.coeffs && a.const = b.const

let eval a lookup =
  let acc = ref a.const in
  Array.iteri
    (fun i c -> if c <> 0 then acc := C.add !acc (C.mul c (lookup (Space.name a.space i))))
    a.coeffs;
  !acc

let eval_vec a v =
  let acc = ref a.const in
  for i = 0 to Array.length a.coeffs - 1 do
    let c = a.coeffs.(i) in
    if c <> 0 then acc := C.add !acc (C.mul c v.(i))
  done;
  !acc

let eval_q a lookup =
  let acc = ref (Q.of_int a.const) in
  Array.iteri
    (fun i c ->
      if c <> 0 then acc := Q.add !acc (Q.mul (Q.of_int c) (lookup (Space.name a.space i))))
    a.coeffs;
  !acc

let cast space a =
  let coeffs = Array.make (Space.dim space) 0 in
  Array.iteri
    (fun i c ->
      if c <> 0 then
        match Space.index_opt space (Space.name a.space i) with
        | Some j -> coeffs.(j) <- c
        | None ->
            invalid_arg
              ("Aff.cast: dimension " ^ Space.name a.space i ^ " absent from target space"))
    a.coeffs;
  { space; coeffs; const = a.const }

(* The fused loops below run the same checked operations as their
   [add]/[scale] spelling, so they raise [Overflow] exactly when it would. *)
let combine k1 a k2 b =
  check_space a b;
  let x = a.coeffs and y = b.coeffs in
  let coeffs = Array.make (Array.length x) 0 in
  for j = 0 to Array.length x - 1 do
    coeffs.(j) <- C.add (C.mul k1 x.(j)) (C.mul k2 y.(j))
  done;
  { a with coeffs; const = C.add (C.mul k1 a.const) (C.mul k2 b.const) }

let subst_at e i r =
  check_space e r;
  let c = e.coeffs.(i) in
  if c = 0 then e
  else
    let x = e.coeffs and y = r.coeffs in
    let coeffs = Array.make (Array.length x) 0 in
    for j = 0 to Array.length x - 1 do
      coeffs.(j) <- C.add (if j = i then 0 else x.(j)) (C.mul c y.(j))
    done;
    { e with coeffs; const = C.add e.const (C.mul c r.const) }

let subst e x r =
  check_space e r;
  subst_at e (Space.index e.space x) r

let fix_dims e l =
  List.fold_left
    (fun e (n, v) ->
      let i = Space.index e.space n in
      let c = e.coeffs.(i) in
      if c = 0 then e
      else
        let e' = { e with coeffs = Array.copy e.coeffs; const = C.add e.const (C.mul c v) } in
        e'.coeffs.(i) <- 0;
        e')
    e l

let content_gcd a = Array.fold_left (fun g c -> C.gcd g c) 0 a.coeffs

let pp ppf a =
  let first = ref true in
  let term ppf c n =
    if c <> 0 then begin
      if !first then begin
        if c = -1 then Format.fprintf ppf "-"
        else if c <> 1 then Format.fprintf ppf "%d*" c
      end
      else if c > 0 then
        if c = 1 then Format.fprintf ppf " + " else Format.fprintf ppf " + %d*" c
      else if c = -1 then Format.fprintf ppf " - "
      else Format.fprintf ppf " - %d*" (-c);
      Format.fprintf ppf "%s" n;
      first := false
    end
  in
  Array.iteri (fun i c -> term ppf c (Space.name a.space i)) a.coeffs;
  if !first then Format.fprintf ppf "%d" a.const
  else if a.const > 0 then Format.fprintf ppf " + %d" a.const
  else if a.const < 0 then Format.fprintf ppf " - %d" (-a.const)
