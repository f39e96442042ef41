(* Additional VM semantics coverage: recursion, scoping, reference
   semantics, scheduler variation, and interpreter edge cases. *)

module Pipeline = Drd_harness.Pipeline
module Config = Drd_harness.Config

let check_ints msg expected outcome =
  Alcotest.(check (list (pair string int)))
    msg expected
    (Pipe.ints outcome.Pipeline.prints)

let test_recursion () =
  let out =
    Pipe.run
      {|
      class Math2 {
        static int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        static int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
        static int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
      }
      class Main {
        static void main() {
          print("fib", Math2.fib(15));
          print("even", Math2.even(100));
          print("odd", Math2.odd(99));
        }
      }
    |}
  in
  check_ints "recursion" [ ("fib", 610); ("even", 1); ("odd", 1) ] out

let test_shadowing_and_scopes () =
  let out =
    Pipe.run
      {|
      class Main {
        static void main() {
          int x = 1;
          if (x == 1) {
            int y = 10;
            x = x + y;
          }
          for (int i = 0; i < 2; i = i + 1) {
            int y = 100;       // fresh scope: fine
            x = x + y;
          }
          print("x", x);
        }
      }
    |}
  in
  ignore out;
  check_ints "scopes" [ ("x", 211) ] out

let test_reference_semantics () =
  let out =
    Pipe.run
      {|
      class Box { int v; }
      class Main {
        static void bump(Box b) { b.v = b.v + 1; }
        static void main() {
          Box a = new Box();
          Box b = a;             // alias
          bump(a); bump(b);
          print("v", a.v);       // 2
          Box[] arr = new Box[2];
          arr[0] = a; arr[1] = new Box();
          arr[1].v = 7;
          print("sum", arr[0].v + arr[1].v);  // 9
          print("eq", 0 + (1 - 1));
          if (a == b) { print("alias", 1); } else { print("alias", 0); }
          if (a == arr[1]) { print("neq", 1); } else { print("neq", 0); }
          if (a != null) { print("nn", 1); }
        }
      }
    |}
  in
  check_ints "refs"
    [ ("v", 2); ("sum", 9); ("eq", 0); ("alias", 1); ("neq", 0); ("nn", 1) ]
    out

let test_negative_arithmetic () =
  let out =
    Pipe.run
      {|
      class Main {
        static void main() {
          int a = 0 - 7;
          print("div", a / 2);     // OCaml/Java truncate toward zero: -3
          print("mod", a % 3);     // -1
          print("neg", -a);
          boolean t = a < 0 && !(a > 0);
          if (t) { print("sign", 1); }
        }
      }
    |}
  in
  check_ints "negatives" [ ("div", -3); ("mod", -1); ("neg", 7); ("sign", 1) ] out

let test_quantum_invariance () =
  (* Synchronized programs compute the same result whatever the slice
     length. *)
  List.iter
    (fun quantum ->
      let out = Pipe.run ~quantum (Test_vm.counter_src ~sync:true) in
      check_ints (Printf.sprintf "quantum %d" quantum) [ ("n", 100) ] out)
    [ 1; 2; 5; 50; 500 ]

let test_many_threads () =
  let out =
    Pipe.run
      {|
      class Acc { int total; synchronized void add(int v) { total = total + v; } }
      class W extends Thread {
        Acc a; int v;
        W(Acc a0, int v0) { a = a0; v = v0; }
        void run() { a.add(v); }
      }
      class Main {
        static void main() {
          Acc acc = new Acc();
          W[] ws = new W[10];
          for (int i = 0; i < 10; i = i + 1) { ws[i] = new W(acc, i + 1); }
          for (int i = 0; i < 10; i = i + 1) { ws[i].start(); }
          for (int i = 0; i < 10; i = i + 1) { ws[i].join(); }
          print("total", acc.total);
        }
      }
    |}
  in
  check_ints "ten workers" [ ("total", 55) ] out;
  Alcotest.(check int) "eleven threads" 11 out.Pipeline.threads;
  Alcotest.(check (list string)) "no races" [] out.Pipeline.races

let test_join_unstarted_thread () =
  let out =
    Pipe.run
      {| class W extends Thread { void run() { } }
         class Main { static void main() { W w = new W(); w.join(); print("ok", 1); } } |}
  in
  check_ints "join before start returns" [ ("ok", 1) ] out

let test_yield_is_legal_anywhere () =
  let out =
    Pipe.run
      {|
      class Main {
        static void main() {
          int s = 0;
          for (int i = 0; i < 5; i = i + 1) {
            Thread.yield();
            s = s + i;
          }
          print("s", s);
        }
      }
    |}
  in
  check_ints "yield" [ ("s", 10) ] out

let test_print_bool () =
  let out =
    Pipe.run
      {| class Main { static void main() { print("b", 1 < 2); print("c", false); } } |}
  in
  match out.Pipeline.prints with
  | [ ("b", Some (Drd_vm.Value.Vbool true)); ("c", Some (Drd_vm.Value.Vbool false)) ] -> ()
  | _ -> Alcotest.fail "boolean prints"

let test_instrumented_semantics_equal () =
  (* Instrumentation must never change observable behaviour: compare the
     prints of Base vs fully optimized runs on mixed workloads. *)
  let srcs =
    [ Test_vm.counter_src ~sync:true; Test_vm.figure2 ~same_pq:false ]
  in
  List.iter
    (fun src ->
      let _, base =
        Pipeline.run_source
          { (Pipe.config ()) with Config.detector = Config.NoDetect }
          src
      in
      let opt = Pipe.run ~static:true ~peel:true ~weaker:true src in
      Alcotest.(check (list (pair string int)))
        "same output"
        (Pipe.ints base.Pipeline.prints)
        (Pipe.ints opt.Pipeline.prints))
    srcs

let suite =
  [
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "scoping" `Quick test_shadowing_and_scopes;
    Alcotest.test_case "reference semantics" `Quick test_reference_semantics;
    Alcotest.test_case "negative arithmetic" `Quick test_negative_arithmetic;
    Alcotest.test_case "quantum invariance" `Quick test_quantum_invariance;
    Alcotest.test_case "many threads" `Quick test_many_threads;
    Alcotest.test_case "join unstarted" `Quick test_join_unstarted_thread;
    Alcotest.test_case "yield" `Quick test_yield_is_legal_anywhere;
    Alcotest.test_case "print booleans" `Quick test_print_bool;
    Alcotest.test_case "optimized semantics equal" `Quick test_instrumented_semantics_equal;
  ]
