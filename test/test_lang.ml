(* Frontend tests: lexer, recursive-descent parser and typechecker —
   acceptance, shape, and rejection with meaningful errors. *)

module Lexer = Drd_lang.Lexer
module Token = Drd_lang.Token
module Parser = Drd_lang.Parser
module Typecheck = Drd_lang.Typecheck
module Ast = Drd_lang.Ast
module Tast = Drd_lang.Tast

(* ---- lexer ---- *)

let kinds src = List.map (fun (t : Token.t) -> t.Token.kind) (Lexer.tokenize src)

let test_lexer_tokens () =
  Alcotest.(check bool) "keywords and idents" true
    (kinds "class Foo extends Bar"
    = [ Token.KW_CLASS; Token.IDENT "Foo"; Token.KW_EXTENDS; Token.IDENT "Bar"; Token.EOF ]);
  Alcotest.(check bool) "operators" true
    (kinds "<= >= == != && || ! < >"
    = Token.[ LE; GE; EQ; NE; ANDAND; OROR; BANG; LT; GT; EOF ]);
  Alcotest.(check bool) "numbers" true
    (kinds "0 42 1103515245" = Token.[ INT 0; INT 42; INT 1103515245; EOF ]);
  Alcotest.(check bool) "strings" true
    (kinds {|"hello world"|} = Token.[ STRING "hello world"; EOF ])

(* An integer literal is an OCaml int: the largest one still lexes, one
   past it is a lexer error at the literal's position (not an escaping
   [Failure "int_of_string"]). *)
let test_lexer_int_range () =
  Alcotest.(check bool) "max_int lexes" true
    (kinds "4611686018427387903" = Token.[ INT max_int; EOF ]);
  Alcotest.check_raises "one past max_int"
    (Lexer.Error ("integer literal out of range", { Ast.line = 2; col = 9 }))
    (fun () -> ignore (Lexer.tokenize "int x;\nint y = 4611686018427387904;"));
  Alcotest.check_raises "far past max_int"
    (Lexer.Error ("integer literal out of range", { Ast.line = 1; col = 9 }))
    (fun () -> ignore (Lexer.tokenize "int x = 99999999999999999999999;"))

let test_lexer_comments_positions () =
  let toks = Lexer.tokenize "x // line comment\n  /* block\n comment */ y" in
  (match toks with
  | [ { Token.kind = Token.IDENT "x"; pos = p1 };
      { Token.kind = Token.IDENT "y"; pos = p2 };
      { Token.kind = Token.EOF; _ } ] ->
      Alcotest.(check int) "x line" 1 p1.Ast.line;
      Alcotest.(check int) "y line" 3 p2.Ast.line
  | _ -> Alcotest.fail "unexpected tokens");
  Alcotest.check_raises "unterminated comment"
    (Lexer.Error ("unterminated comment", { Ast.line = 1; col = 1 }))
    (fun () -> ignore (Lexer.tokenize "/* never closed"));
  (match Lexer.tokenize "#" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check bool) "bad char" true
        (Astring_contains.contains msg "unexpected character")
  | _ -> Alcotest.fail "expected lexer error")

(* ---- parser ---- *)

let parse_expr = Parser.parse_expr_string

let rec expr_to_string (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int n -> string_of_int n
  | Ast.Bool b -> string_of_bool b
  | Ast.Null -> "null"
  | Ast.This -> "this"
  | Ast.Ident x -> x
  | Ast.Field (r, f) -> Printf.sprintf "(%s.%s)" (expr_to_string r) f
  | Ast.Index (a, i) ->
      Printf.sprintf "%s[%s]" (expr_to_string a) (expr_to_string i)
  | Ast.Call (None, m, args) ->
      Printf.sprintf "%s(%s)" m (String.concat "," (List.map expr_to_string args))
  | Ast.Call (Some r, m, args) ->
      Printf.sprintf "(%s.%s)(%s)" (expr_to_string r) m
        (String.concat "," (List.map expr_to_string args))
  | Ast.New (c, args) ->
      Printf.sprintf "new %s(%s)" c (String.concat "," (List.map expr_to_string args))
  | Ast.NewArray (ty, dims) ->
      Printf.sprintf "new %s%s"
        (Fmt.to_to_string Ast.pp_ty ty)
        (String.concat "" (List.map (fun d -> "[" ^ expr_to_string d ^ "]") dims))
  | Ast.Binop (op, l, r) ->
      let s =
        match op with
        | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
        | Ast.Mod -> "%" | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">"
        | Ast.Ge -> ">=" | Ast.Eq -> "==" | Ast.Ne -> "!=" | Ast.And -> "&&"
        | Ast.Or -> "||"
      in
      Printf.sprintf "(%s%s%s)" (expr_to_string l) s (expr_to_string r)
  | Ast.Unop (Ast.Neg, e) -> Printf.sprintf "(-%s)" (expr_to_string e)
  | Ast.Unop (Ast.Not, e) -> Printf.sprintf "(!%s)" (expr_to_string e)

let check_parse msg src expected =
  Alcotest.(check string) msg expected (expr_to_string (parse_expr src))

let test_parser_precedence () =
  check_parse "mul before add" "1 + 2 * 3" "(1+(2*3))";
  check_parse "left assoc sub" "10 - 3 - 2" "((10-3)-2)";
  check_parse "left assoc div" "100 / 5 / 2" "((100/5)/2)";
  check_parse "cmp before and" "a < b && c > d" "((a<b)&&(c>d))";
  check_parse "and before or" "a && b || c && d" "((a&&b)||(c&&d))";
  check_parse "eq after rel" "a < b == c < d" "((a<b)==(c<d))";
  check_parse "unary tight" "-a * b" "((-a)*b)";
  check_parse "not" "!a && b" "((!a)&&b)";
  check_parse "parens" "(1 + 2) * 3" "((1+2)*3)"

let test_parser_postfix () =
  check_parse "field chain" "a.b.c" "((a.b).c)";
  check_parse "index chain" "m[i][j]" "m[i][j]";
  check_parse "call on field" "a.b.f(1, 2)" "((a.b).f)(1,2)";
  check_parse "mixed" "a[i].f(x).g" "((a[i].f)(x).g)";
  check_parse "new with args" "new Foo(1, x)" "new Foo(1,x)";
  check_parse "new array 2d" "new int[3][4]" "new int[3][4]";
  check_parse "length" "a.length" "(a.length)"

let test_parser_statements () =
  let prog =
    Parser.parse_program
      {|
      class C {
        int f;
        static boolean flag;
        C(int x) { f = x; }
        synchronized int get() { return f; }
        void stuff(int n) {
          int[] a = new int[n];
          for (int i = 0; i < n; i = i + 1) {
            if (i % 2 == 0) { continue; }
            if (i > 50) { break; }
            a[i] = i;
          }
          while (n > 0) { n = n - 1; }
          synchronized (this) { f = f + 1; }
          print("done", n);
        }
      }
    |}
  in
  match prog with
  | [ c ] ->
      Alcotest.(check string) "class name" "C" c.Ast.c_name;
      Alcotest.(check int) "fields" 2 (List.length c.Ast.c_fields);
      Alcotest.(check int) "methods" 2 (List.length c.Ast.c_methods);
      Alcotest.(check int) "ctors" 1 (List.length c.Ast.c_ctors);
      let get = List.find (fun m -> m.Ast.m_name = "get") c.Ast.c_methods in
      Alcotest.(check bool) "synchronized" true get.Ast.m_sync;
      let flag = List.find (fun f -> f.Ast.f_name = "flag") c.Ast.c_fields in
      Alcotest.(check bool) "static field" true flag.Ast.f_static
  | _ -> Alcotest.fail "expected one class"

let expect_parse_error msg src =
  match Parser.parse_program src with
  | exception Parser.Error _ -> ()
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected a parse error")

let test_parser_errors () =
  expect_parse_error "missing brace" "class C { void m() { }";
  expect_parse_error "missing semicolon" "class C { void m() { int x = 1 } }";
  expect_parse_error "bad assignment target" "class C { void m() { 1 = 2; } }";
  expect_parse_error "expression statement" "class C { void m() { x + 1; } }";
  expect_parse_error "stray token" "class C { void m() { } } }";
  expect_parse_error "array without size" "class C { void m() { int[] a = new int[]; } }"

(* ---- typechecker ---- *)

let check_ok src = ignore (Typecheck.check (Parser.parse_program src))

let expect_type_error msg pat src =
  match Typecheck.check (Parser.parse_program src) with
  | exception Typecheck.Error (m, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" msg m pat)
        true
        (Astring_contains.contains m pat)
  | _ -> Alcotest.fail (msg ^ ": expected a type error")

let test_typecheck_accepts () =
  check_ok
    {|
    class A { int f; A next; int get() { return f; } }
    class B extends A { int get() { return f * 2; } }
    class Main {
      static void main() {
        A a = new B();
        a.next = a;
        boolean b = a == a.next && a.get() > 0 || a.next == null;
        if (b) { print("ok", 1); }
      }
    }
  |}

let test_typecheck_rejections () =
  expect_type_error "unknown variable" "unknown variable"
    "class Main { static void main() { x = 1; } }";
  expect_type_error "unknown class" "unknown class"
    "class Main { static void main() { Foo f = null; } }";
  expect_type_error "unknown method" "unknown method"
    "class Main { static void main() { frob(); } }";
  expect_type_error "unknown field" "unknown field"
    "class A { } class Main { static void main() { A a = new A(); print(\"\", a.f); } }";
  expect_type_error "arity" "expects 1 argument"
    "class A { void m(int x) { } } class Main { static void main() { A a = new A(); a.m(); } }";
  expect_type_error "arg type" "argument of type"
    "class A { void m(int x) { } } class Main { static void main() { A a = new A(); a.m(true); } }";
  expect_type_error "assign mismatch" "cannot assign"
    "class Main { static void main() { int x; x = true; } }";
  expect_type_error "init mismatch" "cannot initialize"
    "class Main { static void main() { boolean b = 3; } }";
  expect_type_error "condition not bool" "condition must be boolean"
    "class Main { static void main() { if (1) { } } }";
  expect_type_error "this in static" "this used in a static method"
    "class Main { static void main() { print(\"\", this == null); } }";
  expect_type_error "return type" "returning"
    "class A { int m() { return true; } } class Main { static void main() { } }";
  expect_type_error "void value" "void method returns a value"
    "class A { void m() { return 3; } } class Main { static void main() { } }";
  expect_type_error "missing main" "no static void main"
    "class A { void m() { } }";
  expect_type_error "duplicate class" "duplicate class"
    "class A { } class A { } class Main { static void main() { } }";
  expect_type_error "duplicate method" "duplicate method"
    "class A { void m() { } void m() { } } class Main { static void main() { } }";
  expect_type_error "duplicate field" "duplicate field"
    "class A { int f; int f; } class Main { static void main() { } }";
  expect_type_error "field shadowing" "shadows"
    "class A { int f; } class B extends A { int f; } class Main { static void main() { } }";
  expect_type_error "override signature" "different signature"
    "class A { int m() { return 1; } } class B extends A { boolean m() { return true; } } class Main { static void main() { } }";
  expect_type_error "cyclic inheritance" "extends itself"
    "class A extends A { } class Main { static void main() { } }";
  expect_type_error "sync on int" "synchronized requires an object"
    "class Main { static void main() { synchronized (3) { } } }";
  expect_type_error "break outside loop" "break outside"
    "class Main { static void main() { break; } }";
  expect_type_error "array index type" "array index must be int"
    "class Main { static void main() { int[] a = new int[3]; a[true] = 1; } }";
  expect_type_error "index non-array" "indexing a non-array"
    "class Main { static void main() { int x = 0; print(\"\", x[0]); } }";
  expect_type_error "incomparable" "incomparable types"
    "class Main { static void main() { boolean b = 1 == true; } }";
  expect_type_error "start on non-thread" "unknown method"
    "class A { } class Main { static void main() { A a = new A(); a.start(); } }";
  expect_type_error "multiple ctors" "multiple constructors"
    "class A { A() { } A(int x) { } } class Main { static void main() { } }";
  expect_type_error "double declaration" "already declared"
    "class Main { static void main() { int x = 1; int x = 2; } }"

let test_typecheck_resolution () =
  let tprog =
    Typecheck.check
      (Parser.parse_program
         {|
         class A { int f; void set(int v) { f = v; } }
         class B extends A { int g; }
         class Main { static void main() { B b = new B(); b.set(1); } }
       |})
  in
  let b = Option.get (Tast.find_class tprog "B") in
  Alcotest.(check int) "B has inherited + own fields" 2
    (Array.length b.Tast.cls_fields);
  Alcotest.(check bool) "f index 0" true
    (b.Tast.cls_fields.(0).Tast.fld_name = "f"
    && b.Tast.cls_fields.(0).Tast.fld_index = 0);
  Alcotest.(check bool) "g index 1" true
    (b.Tast.cls_fields.(1).Tast.fld_name = "g"
    && b.Tast.cls_fields.(1).Tast.fld_index = 1);
  Alcotest.(check bool) "B is not a thread" false b.Tast.cls_is_thread;
  (* dispatch of set on B resolves to A's implementation *)
  match Tast.dispatch tprog "B" "set" with
  | Some m -> Alcotest.(check string) "impl class" "A" m.Tast.tm_class
  | None -> Alcotest.fail "no dispatch"

let test_thread_subtyping () =
  let tprog =
    Typecheck.check
      (Parser.parse_program
         {|
         class W extends Thread { void run() { } }
         class V extends W { }
         class Main { static void main() { V v = new V(); v.start(); v.join(); } }
       |})
  in
  let v = Option.get (Tast.find_class tprog "V") in
  Alcotest.(check bool) "V is a thread" true v.Tast.cls_is_thread;
  match Tast.dispatch tprog "V" "run" with
  | Some m -> Alcotest.(check string) "run impl" "W" m.Tast.tm_class
  | None -> Alcotest.fail "no run dispatch"

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer comments/positions" `Quick test_lexer_comments_positions;
    Alcotest.test_case "lexer integer range" `Quick test_lexer_int_range;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser postfix" `Quick test_parser_postfix;
    Alcotest.test_case "parser statements" `Quick test_parser_statements;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "typecheck accepts" `Quick test_typecheck_accepts;
    Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejections;
    Alcotest.test_case "resolution and layout" `Quick test_typecheck_resolution;
    Alcotest.test_case "thread subtyping" `Quick test_thread_subtyping;
  ]
