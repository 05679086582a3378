(* Hand-written lexer for the mini-Clan grammar. *)

type token =
  | Ident of string
  | Int of int
  | Kw_param
  | Kw_input
  | Kw_output
  | Kw_intermediate
  | Kw_for
  | Kw_if
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Comma
  | Semi
  | Plus
  | Minus
  | Star
  | Assign       (* = *)
  | Plus_assign  (* += *)
  | Lt
  | Le
  | Ge_op        (* >= *)
  | Plus_plus    (* ++ *)
  | Quote        (* ' *)
  | Eof

type t = { src : string; mutable pos : int; mutable line : int }

exception Error of string

let make src = { src; pos = 0; line = 1 }

let error t msg =
  raise (Error (Printf.sprintf "line %d: %s" t.line msg))

let peek_char t = if t.pos < String.length t.src then Some t.src.[t.pos] else None

let advance t =
  (match peek_char t with Some '\n' -> t.line <- t.line + 1 | _ -> ());
  t.pos <- t.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws t =
  match peek_char t with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance t;
      skip_ws t
  | Some '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
      while peek_char t <> None && peek_char t <> Some '\n' do
        advance t
      done;
      skip_ws t
  | Some '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '*' ->
      advance t;
      advance t;
      let rec close () =
        match peek_char t with
        | None -> error t "unterminated comment"
        | Some '*' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
            advance t;
            advance t
        | Some _ ->
            advance t;
            close ()
      in
      close ();
      skip_ws t
  | _ -> ()

let next t =
  skip_ws t;
  match peek_char t with
  | None -> Eof
  | Some c when is_ident_start c ->
      let start = t.pos in
      while (match peek_char t with Some c -> is_ident c | None -> false) do
        advance t
      done;
      (match String.sub t.src start (t.pos - start) with
      | "param" -> Kw_param
      | "input" -> Kw_input
      | "output" -> Kw_output
      | "intermediate" -> Kw_intermediate
      | "for" -> Kw_for
      | "if" -> Kw_if
      | id -> Ident id)
  | Some c when is_digit c ->
      let start = t.pos in
      while (match peek_char t with Some c -> is_digit c | None -> false) do
        advance t
      done;
      (match int_of_string_opt (String.sub t.src start (t.pos - start)) with
      | Some n -> Int n
      | None -> error t "integer literal out of range")
  | Some '(' -> advance t; Lparen
  | Some ')' -> advance t; Rparen
  | Some '[' -> advance t; Lbracket
  | Some ']' -> advance t; Rbracket
  | Some '{' -> advance t; Lbrace
  | Some '}' -> advance t; Rbrace
  | Some ',' -> advance t; Comma
  | Some ';' -> advance t; Semi
  | Some '\'' -> advance t; Quote
  | Some '*' -> advance t; Star
  | Some '<' ->
      advance t;
      if peek_char t = Some '=' then (advance t; Le) else Lt
  | Some '>' ->
      advance t;
      if peek_char t = Some '=' then (advance t; Ge_op)
      else error t "expected '>=' (only affine >= conditions are supported)"
  | Some '=' -> advance t; Assign
  | Some '+' ->
      advance t;
      (match peek_char t with
      | Some '+' -> advance t; Plus_plus
      | Some '=' -> advance t; Plus_assign
      | _ -> Plus)
  | Some '-' -> advance t; Minus
  | Some c -> error t (Printf.sprintf "unexpected character %c" c)

let token_name = function
  | Ident s -> Printf.sprintf "identifier %s" s
  | Int n -> Printf.sprintf "integer %d" n
  | Kw_param -> "param"
  | Kw_input -> "input"
  | Kw_output -> "output"
  | Kw_intermediate -> "intermediate"
  | Kw_for -> "for"
  | Kw_if -> "if"
  | Lparen -> "("
  | Rparen -> ")"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Comma -> ","
  | Semi -> ";"
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Assign -> "="
  | Plus_assign -> "+="
  | Lt -> "<"
  | Le -> "<="
  | Ge_op -> ">="
  | Plus_plus -> "++"
  | Quote -> "'"
  | Eof -> "end of input"
