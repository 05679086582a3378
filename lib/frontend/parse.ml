module B = Riot_ir.Build
module Array_info = Riot_ir.Array_info
module Access = Riot_ir.Access
module Kernel = Riot_ir.Kernel

exception Error of string

type state = { lx : Lexer.t; mutable tok : Lexer.token }

let fail st msg =
  raise
    (Error
       (Printf.sprintf "line %d: parse error: %s (found %s)" st.lx.Lexer.line msg
          (Lexer.token_name st.tok)))

let fail_at line fmt =
  Printf.ksprintf (fun m -> raise (Error (Printf.sprintf "line %d: %s" line m))) fmt

let advance st = st.tok <- Lexer.next st.lx

let expect st tok msg =
  if st.tok = tok then advance st else fail st msg

let ident st =
  match st.tok with
  | Lexer.Ident id ->
      advance st;
      id
  | _ -> fail st "expected identifier"

(* --- Affine expressions --------------------------------------------------- *)

(* term := int | int '*' ident | ident | ident '*' int *)
let term st =
  match st.tok with
  | Lexer.Int n -> (
      advance st;
      match st.tok with
      | Lexer.Star ->
          advance st;
          let v = ident st in
          B.e [ (v, n) ]
      | _ -> B.cst n)
  | Lexer.Ident v -> (
      advance st;
      match st.tok with
      | Lexer.Star -> (
          advance st;
          match st.tok with
          | Lexer.Int n ->
              advance st;
              B.e [ (v, n) ]
          | _ -> fail st "expected integer after '*'")
      | _ -> B.var v)
  | _ -> fail st "expected affine term"

let aexp st =
  let neg = st.tok = Lexer.Minus in
  if neg then advance st;
  let first = term st in
  let first = if neg then B.(cst 0 - first) else first in
  let rec more acc =
    match st.tok with
    | Lexer.Plus ->
        advance st;
        more B.(acc + term st)
    | Lexer.Minus ->
        advance st;
        more B.(acc - term st)
    | _ -> acc
  in
  more first

(* --- Accesses -------------------------------------------------------------- *)

type pacc = { parray : string; transposed : bool; subs : B.aexp list }

let subscripts st =
  (* One or more bracket groups, each holding one or more comma-separated
     affine expressions: X[i][j] and X[i,j] both work. *)
  let subs = ref [] in
  while st.tok = Lexer.Lbracket do
    advance st;
    subs := !subs @ [ aexp st ];
    while st.tok = Lexer.Comma do
      advance st;
      subs := !subs @ [ aexp st ]
    done;
    expect st Lexer.Rbracket "expected ']'"
  done;
  if !subs = [] then fail st "expected subscripts";
  !subs

let paccess st =
  let parray = ident st in
  let transposed = st.tok = Lexer.Quote in
  if transposed then advance st;
  { parray; transposed; subs = subscripts st }

(* --- Declarations ----------------------------------------------------------- *)

type decls = {
  mutable params : string list;
  mutable arrays : Array_info.t list;
}

let declaration st decls =
  match st.tok with
  | Lexer.Kw_param ->
      advance st;
      let rec names () =
        let p = ident st in
        if List.mem p decls.params then fail_at st.lx.Lexer.line "duplicate parameter %s" p;
        decls.params <- decls.params @ [ p ];
        if st.tok = Lexer.Comma then begin
          advance st;
          names ()
        end
      in
      names ();
      expect st Lexer.Semi "expected ';' after param declaration";
      true
  | Lexer.Kw_input | Lexer.Kw_output | Lexer.Kw_intermediate ->
      let kind =
        match st.tok with
        | Lexer.Kw_input -> Array_info.Input
        | Lexer.Kw_output -> Array_info.Output
        | _ -> Array_info.Intermediate
      in
      advance st;
      let rec arrays () =
        let name = ident st in
        let subs = subscripts st in
        decls.arrays <- decls.arrays @ [ Array_info.make ~kind name ~ndims:(List.length subs) ];
        if st.tok = Lexer.Comma then begin
          advance st;
          arrays ()
        end
      in
      arrays ();
      expect st Lexer.Semi "expected ';' after array declaration";
      true
  | _ -> false

(* --- Statements and loops ----------------------------------------------------- *)

(* Variables appearing in an affine expression; Build hides the representation
   so we re-parse from the subscript structure by tracking at construction
   time instead: simplest is to keep our own term list alongside. To avoid
   duplicating Build's type we reconstruct variable sets from paccs. *)

let vars_of_aexps l = List.concat_map B.aexp_vars l

type loop = { var : string; lo : B.aexp; hi : B.aexp; line : int }

let counter = ref 0

(* Conditions from enclosing [if]s, each an aexp required >= 0; they narrow
   every access of the statements below (the paper's static-control
   conditionals). *)
let statement st decls (env : loop list) (conds : B.aexp list) =
  let line = st.lx.Lexer.line in
  let lhs = paccess st in
  let op =
    match st.tok with
    | Lexer.Assign -> `Assign
    | Lexer.Plus_assign -> `Acc
    | _ -> fail st "expected '=' or '+='"
  in
  advance st;
  (* Right-hand side. *)
  let rhs_kind, operands =
    match st.tok with
    | Lexer.Ident "inv" ->
        advance st;
        expect st Lexer.Lparen "expected '(' after inv";
        let a = paccess st in
        expect st Lexer.Rparen "expected ')'";
        (`Inv, [ a ])
    | Lexer.Ident "rss" ->
        advance st;
        expect st Lexer.Lparen "expected '(' after rss";
        let a = paccess st in
        expect st Lexer.Rparen "expected ')'";
        (`Rss, [ a ])
    | _ -> (
        let a = paccess st in
        match st.tok with
        | Lexer.Plus ->
            advance st;
            let b = paccess st in
            (`Add, [ a; b ])
        | Lexer.Minus ->
            advance st;
            let b = paccess st in
            (`Sub, [ a; b ])
        | Lexer.Star ->
            advance st;
            let b = paccess st in
            (`Mul, [ a; b ])
        | _ -> (`Copy, [ a ]))
  in
  expect st Lexer.Semi "expected ';' after statement";
  let kernel =
    match (op, rhs_kind, operands) with
    | `Assign, `Add, _ -> Kernel.Assign_add
    | `Assign, `Sub, _ -> Kernel.Assign_sub
    | `Assign, `Copy, _ -> Kernel.Copy
    | `Assign, `Inv, _ -> Kernel.Invert
    | `Acc, `Mul, [ a; b ] -> Kernel.Gemm_acc { ta = a.transposed; tb = b.transposed }
    | `Acc, `Rss, _ -> Kernel.Rss_acc
    | `Acc, _, _ -> fail st "'+=' requires a product or rss() right-hand side"
    | `Assign, (`Mul | `Rss), _ -> fail st "products and rss() accumulate: use '+='"
    | _ -> fail st "unsupported statement shape"
  in
  (* What Build would reject, positioned at the statement or loop. *)
  let scope = decls.params @ List.map (fun l -> l.var) env in
  let check_vars line what es =
    List.iter
      (fun v -> if not (List.mem v scope) then fail_at line "unknown variable %s in %s" v what)
      (vars_of_aexps es)
  in
  List.iter (fun l -> check_vars l.line "a loop bound" [ l.lo; l.hi ]) env;
  check_vars line "a condition" conds;
  List.iter
    (fun (a : pacc) ->
      match List.find_opt (fun (d : Array_info.t) -> d.name = a.parray) decls.arrays with
      | None -> fail_at line "undeclared array %s" a.parray
      | Some d when List.length a.subs <> d.ndims ->
          fail_at line "access to %s has %d subscripts, array has %d dims" a.parray
            (List.length a.subs) d.ndims
      | Some _ -> check_vars line ("a subscript of " ^ a.parray) a.subs)
    (lhs :: operands);
  incr counter;
  let name = Printf.sprintf "s%d" !counter in
  (* Accumulating statements read their own target except at the first
     reduction iteration; the reduction variables are the enclosing loop
     variables absent from the left-hand side's subscripts. *)
  let self_read =
    if (Kernel.info kernel).Kernel.accumulating then begin
      let lhs_vars = vars_of_aexps lhs.subs in
      let reduction = List.filter (fun l -> not (List.mem l.var lhs_vars)) env in
      if reduction = [] then []
      else
        let cond =
          List.fold_left
            (fun acc l -> B.(acc + var l.var - l.lo))
            (B.cst (-1)) reduction
        in
        [ B.read_if [ cond ] lhs.parray lhs.subs ]
    end
    else []
  in
  let widen (typ, arr, subs, cs) = (typ, arr, subs, cs @ conds) in
  let accs =
    List.map widen
      ((Access.Write, lhs.parray, lhs.subs, [])
      :: self_read
      @ List.map (fun (a : pacc) -> B.read a.parray a.subs) operands)
  in
  B.stmt name ~kernel ~accs

let rec item st decls (env : loop list) (conds : B.aexp list) =
  match st.tok with
  | Lexer.Kw_if ->
      advance st;
      expect st Lexer.Lparen "expected '(' after if";
      let lhs = aexp st in
      expect st Lexer.Ge_op "expected '>=' in if condition";
      let rhs = aexp st in
      expect st Lexer.Rparen "expected ')'";
      let body = body st decls env B.(lhs - rhs :: conds) in
      (match body with
      | [ one ] -> one
      | _ -> fail st "an if body must hold exactly one statement or loop (wrap in one loop)")
  | Lexer.Kw_for ->
      let line = st.lx.Lexer.line in
      advance st;
      expect st Lexer.Lparen "expected '(' after for";
      let v = ident st in
      if List.exists (fun l -> l.var = v) env then fail_at line "shadowed loop variable %s" v;
      expect st Lexer.Assign "expected '=' in for initialiser";
      let lo = aexp st in
      expect st Lexer.Semi "expected ';' in for";
      let v2 = ident st in
      if v2 <> v then fail st "for condition must test the loop variable";
      let hi =
        match st.tok with
        | Lexer.Lt ->
            advance st;
            aexp st
        | Lexer.Le ->
            advance st;
            B.(aexp st + cst 1)
        | _ -> fail st "expected '<' or '<=' in for condition"
      in
      expect st Lexer.Semi "expected second ';' in for";
      let v3 = ident st in
      if v3 <> v then fail st "for increment must use the loop variable";
      expect st Lexer.Plus_plus "expected '++'";
      expect st Lexer.Rparen "expected ')'";
      let body = body st decls ({ var = v; lo; hi; line } :: env) conds in
      B.for_ v ~lo ~hi body
  | _ -> statement st decls env conds

and body st decls env conds =
  if st.tok = Lexer.Lbrace then begin
    advance st;
    let items = ref [] in
    while st.tok <> Lexer.Rbrace do
      items := !items @ [ item st decls env conds ]
    done;
    advance st;
    !items
  end
  else [ item st decls env conds ]

let program ~name src =
  counter := 0;
  let st = { lx = Lexer.make src; tok = Lexer.Eof } in
  try
    st.tok <- Lexer.next st.lx;
    let decls = { params = []; arrays = [] } in
    while declaration st decls do
      ()
    done;
    let items = ref [] in
    while st.tok <> Lexer.Eof do
      items := !items @ [ item st decls [] [] ]
    done;
    B.program ~name ~params:decls.params ~arrays:decls.arrays !items
  with
  | Lexer.Error msg -> raise (Error msg)
  | Invalid_argument msg -> raise (Error msg)
