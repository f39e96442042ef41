open Ast
open Token

exception Error of string * Ast.pos

type st = { toks : Token.t array; mutable i : int }

let peek st = st.toks.(st.i)
let peek_kind st = (peek st).kind

let peek2_kind st =
  if st.i + 1 < Array.length st.toks then st.toks.(st.i + 1).kind else EOF

let peek3_kind st =
  if st.i + 2 < Array.length st.toks then st.toks.(st.i + 2).kind else EOF

let advance st =
  let t = peek st in
  if t.kind != EOF then st.i <- st.i + 1;
  t

let err st msg = raise (Error (msg, (peek st).pos))

(* [kind] is always a constant constructor here, so physical equality
   decides it without a call into the polymorphic compare. *)
let expect st kind =
  let t = peek st in
  if t.kind == kind then advance st
  else
    err st
      (Printf.sprintf "expected %s but found %s" (describe kind)
         (describe t.kind))

let accept st kind =
  if peek_kind st == kind then begin
    ignore (advance st);
    true
  end
  else false

let expect_ident st =
  match peek_kind st with
  | IDENT name ->
      ignore (advance st);
      name
  | k -> err st (Printf.sprintf "expected identifier but found %s" (describe k))

(* ---- types ---- *)

let rec parse_array_suffix st ty =
  if peek_kind st == LBRACKET && peek2_kind st == RBRACKET then begin
    ignore (advance st);
    ignore (advance st);
    parse_array_suffix st (Tarray ty)
  end
  else ty

let parse_base_ty st =
  match peek_kind st with
  | KW_INT ->
      ignore (advance st);
      Tint
  | KW_BOOLEAN ->
      ignore (advance st);
      Tbool
  | IDENT name ->
      ignore (advance st);
      Tclass name
  | k -> err st (Printf.sprintf "expected a type but found %s" (describe k))

let parse_ty st = parse_array_suffix st (parse_base_ty st)

(* A declaration starts with a type followed by an identifier.  The
   tricky case is [IDENT ...]: it is a declaration iff followed by an
   identifier, or by "[]" (array type). *)
let starts_decl st =
  match peek_kind st with
  | KW_INT | KW_BOOLEAN -> true
  | IDENT _ -> (
      match peek2_kind st with
      | IDENT _ -> true
      | LBRACKET -> peek3_kind st == RBRACKET
      | _ -> false)
  | _ -> false

(* ---- expressions ---- *)

(* Binary operators by precedence climbing: one loop instead of a
   function per level.  All levels are left-associative; from loosest
   to tightest: || && (== !=) (< <= > >=) (+ -) ( * / %). *)
let binop_prec = function
  | OROR -> 1
  | ANDAND -> 2
  | EQ | NE -> 3
  | LT | LE | GT | GE -> 4
  | PLUS | MINUS -> 5
  | STAR | SLASH | PERCENT -> 6
  | _ -> 0

let binop_of = function
  | OROR -> Ast.Or
  | ANDAND -> Ast.And
  | EQ -> Ast.Eq
  | NE -> Ast.Ne
  | LT -> Ast.Lt
  | LE -> Ast.Le
  | GT -> Ast.Gt
  | GE -> Ast.Ge
  | PLUS -> Ast.Add
  | MINUS -> Ast.Sub
  | STAR -> Ast.Mul
  | SLASH -> Ast.Div
  | PERCENT -> Ast.Mod
  | k -> invalid_arg ("binop_of " ^ describe k)

let rec parse_expr st = parse_binary st 1

and parse_binary st min_prec =
  let rec loop lhs =
    let t = peek st in
    let prec = binop_prec t.kind in
    if prec >= min_prec then begin
      ignore (advance st);
      let rhs = parse_binary st (prec + 1) in
      loop { e = Binop (binop_of t.kind, lhs, rhs); epos = t.pos }
    end
    else lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek_kind st with
  | MINUS ->
      let t = advance st in
      { e = Unop (Neg, parse_unary st); epos = t.pos }
  | BANG ->
      let t = advance st in
      { e = Unop (Not, parse_unary st); epos = t.pos }
  | _ -> parse_postfix st

and parse_postfix st =
  let prim = parse_primary st in
  parse_postfix_chain st prim

and parse_postfix_chain st recv =
  match peek_kind st with
  | DOT -> (
      ignore (advance st);
      let name = expect_ident st in
      match peek_kind st with
      | LPAREN ->
          let args = parse_args st in
          parse_postfix_chain st
            { e = Call (Some recv, name, args); epos = recv.epos }
      | _ -> parse_postfix_chain st { e = Field (recv, name); epos = recv.epos })
  | LBRACKET ->
      ignore (advance st);
      let idx = parse_expr st in
      ignore (expect st RBRACKET);
      parse_postfix_chain st { e = Index (recv, idx); epos = recv.epos }
  | _ -> recv

and parse_args st =
  ignore (expect st LPAREN);
  if accept st RPAREN then []
  else
    let rec go acc =
      let e = parse_expr st in
      if accept st COMMA then go (e :: acc)
      else begin
        ignore (expect st RPAREN);
        List.rev (e :: acc)
      end
    in
    go []

and parse_primary st =
  let t = peek st in
  match t.kind with
  | INT n ->
      ignore (advance st);
      { e = Int n; epos = t.pos }
  | KW_TRUE ->
      ignore (advance st);
      { e = Bool true; epos = t.pos }
  | KW_FALSE ->
      ignore (advance st);
      { e = Bool false; epos = t.pos }
  | KW_NULL ->
      ignore (advance st);
      { e = Null; epos = t.pos }
  | KW_THIS ->
      ignore (advance st);
      { e = This; epos = t.pos }
  | LPAREN ->
      ignore (advance st);
      let e = parse_expr st in
      ignore (expect st RPAREN);
      e
  | KW_NEW -> parse_new st
  | IDENT name -> (
      ignore (advance st);
      match peek_kind st with
      | LPAREN ->
          let args = parse_args st in
          { e = Call (None, name, args); epos = t.pos }
      | _ -> { e = Ident name; epos = t.pos })
  | k -> err st (Printf.sprintf "expected an expression but found %s" (describe k))

and parse_new st =
  let t = expect st KW_NEW in
  match peek_kind st with
  | IDENT name when peek2_kind st == LPAREN ->
      ignore (advance st);
      let args = parse_args st in
      { e = New (name, args); epos = t.pos }
  | _ ->
      let base = parse_base_ty st in
      let rec dims acc =
        if peek_kind st == LBRACKET then begin
          ignore (advance st);
          let d = parse_expr st in
          ignore (expect st RBRACKET);
          dims (d :: acc)
        end
        else List.rev acc
      in
      let ds = dims [] in
      if ds = [] then err st "array creation requires at least one dimension";
      { e = NewArray (base, ds); epos = t.pos }

(* ---- statements ---- *)

let lvalue_of_expr st (e : expr) =
  match e.e with
  | Ident x -> LIdent x
  | Field (r, f) -> LField (r, f)
  | Index (a, i) -> LIndex (a, i)
  | _ -> err st "invalid assignment target"

let rec parse_block st =
  ignore (expect st LBRACE);
  let rec go acc =
    if accept st RBRACE then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

and parse_stmt st =
  let t = peek st in
  match t.kind with
  | KW_IF ->
      ignore (advance st);
      ignore (expect st LPAREN);
      let cond = parse_expr st in
      ignore (expect st RPAREN);
      let thn = parse_block st in
      let els =
        if accept st KW_ELSE then
          if peek_kind st == KW_IF then [ parse_stmt st ] else parse_block st
        else []
      in
      { s = If (cond, thn, els); spos = t.pos }
  | KW_WHILE ->
      ignore (advance st);
      ignore (expect st LPAREN);
      let cond = parse_expr st in
      ignore (expect st RPAREN);
      let body = parse_block st in
      { s = While (cond, body); spos = t.pos }
  | KW_FOR ->
      ignore (advance st);
      ignore (expect st LPAREN);
      let init =
        if peek_kind st == SEMI then begin
          ignore (advance st);
          None
        end
        else
          let s = parse_simple_stmt st in
          ignore (expect st SEMI);
          Some s
      in
      let cond =
        if peek_kind st == SEMI then None else Some (parse_expr st)
      in
      ignore (expect st SEMI);
      let update =
        if peek_kind st == RPAREN then None else Some (parse_simple_stmt st)
      in
      ignore (expect st RPAREN);
      let body = parse_block st in
      { s = For (init, cond, update, body); spos = t.pos }
  | KW_RETURN ->
      ignore (advance st);
      let e = if peek_kind st == SEMI then None else Some (parse_expr st) in
      ignore (expect st SEMI);
      { s = Return e; spos = t.pos }
  | KW_BREAK ->
      ignore (advance st);
      ignore (expect st SEMI);
      { s = Break; spos = t.pos }
  | KW_CONTINUE ->
      ignore (advance st);
      ignore (expect st SEMI);
      { s = Continue; spos = t.pos }
  | KW_SYNCHRONIZED ->
      ignore (advance st);
      ignore (expect st LPAREN);
      let e = parse_expr st in
      ignore (expect st RPAREN);
      let body = parse_block st in
      { s = Sync (e, body); spos = t.pos }
  | KW_PRINT ->
      ignore (advance st);
      ignore (expect st LPAREN);
      let tag, e =
        match peek_kind st with
        | STRING s ->
            ignore (advance st);
            if accept st COMMA then (s, Some (parse_expr st)) else (s, None)
        | _ -> ("", Some (parse_expr st))
      in
      ignore (expect st RPAREN);
      ignore (expect st SEMI);
      { s = Print (tag, e); spos = t.pos }
  | _ ->
      let s = parse_simple_stmt st in
      ignore (expect st SEMI);
      s

(* Declaration, assignment or call — the statement forms allowed in
   [for] headers (no trailing semicolon here). *)
and parse_simple_stmt st =
  let t = peek st in
  if starts_decl st then begin
    let ty = parse_ty st in
    let name = expect_ident st in
    let init = if accept st ASSIGN then Some (parse_expr st) else None in
    { s = Decl (ty, name, init); spos = t.pos }
  end
  else
    let e = parse_expr st in
    if accept st ASSIGN then
      let rhs = parse_expr st in
      { s = Assign (lvalue_of_expr st e, rhs); spos = t.pos }
    else
      match e.e with
      | Call _ -> { s = Expr e; spos = t.pos }
      | _ -> err st "expected a statement"

(* ---- declarations ---- *)

let rec parse_member st cname =
  let pos = (peek st).pos in
  let is_static = accept st KW_STATIC in
  let is_sync = accept st KW_SYNCHRONIZED in
  let is_static = is_static || accept st KW_STATIC in
  (* Constructor: ClassName ( ... ) *)
  match peek_kind st with
  | IDENT name when name = cname && peek2_kind st == LPAREN ->
      if is_static then err st "constructors cannot be static";
      ignore (advance st);
      let params = parse_params st in
      let body = parse_block st in
      `Ctor
        {
          m_name = name;
          m_static = false;
          m_sync = is_sync;
          m_ret = Tvoid;
          m_params = params;
          m_body = body;
          m_pos = pos;
        }
  | KW_VOID ->
      ignore (advance st);
      let name = expect_ident st in
      let params = parse_params st in
      let body = parse_block st in
      `Method
        {
          m_name = name;
          m_static = is_static;
          m_sync = is_sync;
          m_ret = Tvoid;
          m_params = params;
          m_body = body;
          m_pos = pos;
        }
  | _ ->
      let ty = parse_ty st in
      let name = expect_ident st in
      if peek_kind st == LPAREN then
        let params = parse_params st in
        let body = parse_block st in
        `Method
          {
            m_name = name;
            m_static = is_static;
            m_sync = is_sync;
            m_ret = ty;
            m_params = params;
            m_body = body;
            m_pos = pos;
          }
      else begin
        if is_sync then err st "fields cannot be synchronized";
        ignore (expect st SEMI);
        `Field { f_name = name; f_static = is_static; f_ty = ty; f_pos = pos }
      end

and parse_params st =
  ignore (expect st LPAREN);
  if accept st RPAREN then []
  else
    let rec go acc =
      let ty = parse_ty st in
      let name = expect_ident st in
      if accept st COMMA then go ((ty, name) :: acc)
      else begin
        ignore (expect st RPAREN);
        List.rev ((ty, name) :: acc)
      end
    in
    go []

let parse_class st =
  let t = expect st KW_CLASS in
  let name = expect_ident st in
  let super = if accept st KW_EXTENDS then Some (expect_ident st) else None in
  ignore (expect st LBRACE);
  let fields = ref [] and methods = ref [] and ctors = ref [] in
  while not (accept st RBRACE) do
    match parse_member st name with
    | `Field f -> fields := f :: !fields
    | `Method m -> methods := m :: !methods
    | `Ctor c -> ctors := c :: !ctors
  done;
  {
    c_name = name;
    c_super = super;
    c_fields = List.rev !fields;
    c_methods = List.rev !methods;
    c_ctors = List.rev !ctors;
    c_pos = t.pos;
  }

let parse_program source =
  let st = { toks = Array.of_list (Lexer.tokenize source); i = 0 } in
  let rec go acc =
    if peek_kind st == EOF then List.rev acc else go (parse_class st :: acc)
  in
  go []

let parse_expr_string source =
  let st = { toks = Array.of_list (Lexer.tokenize source); i = 0 } in
  let e = parse_expr st in
  ignore (expect st EOF);
  e
