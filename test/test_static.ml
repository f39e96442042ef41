(* Tests for the static datarace analysis (paper Section 5): points-to,
   single-instance must points-to, MustSync/MustThread, the
   thread-specific extension, and the resulting static race set —
   including the safety property that filtering instrumentation by the
   race set never changes which races are reported. *)

module Ir = Drd_ir.Ir
module Pointsto = Drd_static.Pointsto
module Must = Drd_static.Must
module Icg = Drd_static.Icg
module Thread_spec = Drd_static.Thread_spec
module Race_set = Drd_static.Race_set
module Insert = Drd_instr.Insert
module Pipeline = Drd_harness.Pipeline

let analyze source =
  let prog = Pipe.compile source in
  (prog, Race_set.compute prog)

(* Traces after static filtering vs. unfiltered. *)
let trace_counts source =
  let prog = Pipe.compile source in
  let rs = Race_set.compute prog in
  Insert.instrument ~keep:(Race_set.may_race rs) prog;
  let filtered = Insert.count_traces prog in
  let prog2 = Pipe.compile source in
  Insert.instrument prog2;
  (filtered, Insert.count_traces prog2)

let test_pointsto_basics () =
  let prog, rs = analyze
      {|
      class A { A next; }
      class Main {
        static A head;
        static A mk() { return new A(); }
        static void main() {
          A a = new A();
          A b = a;
          b.next = mk();
          head = a.next;
          print("ok", 1);
        }
      }
    |}
  in
  ignore prog;
  let pt = Race_set.pointsto rs in
  (* b aliases a; head points to what mk returns. *)
  let p v = Pointsto.pts pt v in
  let a = p (Pointsto.Vreg ("Main.main", 0)) in
  ignore a;
  (* Registers are not stable across lowering; instead check global
     facts: two abstract A objects exist and the static slot sees the
     mk() one. *)
  Alcotest.(check bool) "some objects" true (Pointsto.n_objs pt >= 2);
  let statics = p (Pointsto.Vstatic 0) in
  Alcotest.(check bool) "head points to one object" true
    (Pointsto.Iset.cardinal statics >= 1)

let test_callgraph_virtual_dispatch () =
  let _, rs = analyze
      {|
      class A { int go() { return 1; } }
      class B extends A { int go() { return 2; } }
      class Main {
        static void main() {
          A x = new B();
          print("r", x.go());
        }
      }
    |}
  in
  let pt = Race_set.pointsto rs in
  (* B.go must be reachable, A.go must not (receiver can only be B). *)
  Alcotest.(check bool) "B.go reachable" true (Pointsto.is_reachable pt "B.go");
  Alcotest.(check bool) "A.go not reachable" false
    (Pointsto.is_reachable pt "A.go")

let test_unreachable_methods_excluded () =
  let _, rs = analyze
      {|
      class A { int f; void dead() { f = 1; } }
      class Main {
        static void main() { A a = new A(); a.f = 2; print("x", a.f); }
      }
    |}
  in
  let pt = Race_set.pointsto rs in
  Alcotest.(check bool) "dead not reachable" false
    (Pointsto.is_reachable pt "A.dead");
  Alcotest.(check bool) "main reachable" true
    (Pointsto.is_reachable pt "Main.main")

let test_single_threaded_race_set_empty () =
  (* A purely sequential program: MustSameThread holds everywhere, so the
     static race set is empty and no instrumentation remains. *)
  let filtered, unfiltered =
    trace_counts
      {|
      class A { int f; }
      class Main {
        static void main() {
          A a = new A();
          for (int i = 0; i < 10; i = i + 1) { a.f = a.f + 1; }
          print("f", a.f);
        }
      }
    |}
  in
  Alcotest.(check bool) "unfiltered has traces" true (unfiltered > 0);
  Alcotest.(check int) "race set empty for sequential program" 0 filtered

let counter_src ~sync =
  Printf.sprintf
    {|
    class Counter {
      int n;
      %s void inc() { n = n + 1; }
    }
    class Worker extends Thread {
      Counter c; int iters;
      Worker(Counter c0, int k) { c = c0; iters = k; }
      void run() { for (int i = 0; i < iters; i = i + 1) { c.inc(); } }
    }
    class Main {
      static void main() {
        Counter c = new Counter();
        Worker w1 = new Worker(c, 50);
        Worker w2 = new Worker(c, 50);
        w1.start(); w2.start();
        w1.join(); w2.join();
        print("n", c.n);
      }
    }
  |}
    (if sync then "synchronized" else "")

let test_must_sync_protects_counter () =
  let _, rs = analyze (counter_src ~sync:true) in
  let s = Race_set.stats rs in
  (* The n accesses inside inc() are protected by the must-held lock on
     the single-instance Counter object, and the thread-specific fields
     (c, iters) are excluded.  What remains is exactly the pair
     {unsynchronized n read in main, synchronized n write in inc}: the
     static analysis conservatively ignores the ordering condition
     (paper footnote 5), so the post-join read stays — it is the
     dynamic join pseudo-locks that silence it. *)
  Alcotest.(check int)
    (Fmt.str "only the post-join pair remains (%d in set)"
       s.Race_set.in_race_set)
    2 s.Race_set.in_race_set

let test_unsync_counter_in_race_set () =
  let _, rs = analyze (counter_src ~sync:false) in
  let s = Race_set.stats rs in
  (* Both the read and the write of n in inc() may race. *)
  Alcotest.(check bool)
    (Fmt.str "n accesses in race set (%d)" s.Race_set.in_race_set)
    true
    (s.Race_set.in_race_set >= 2)

let test_thread_specific_fields () =
  let _, rs = analyze (counter_src ~sync:true) in
  let ts = Race_set.thread_spec rs in
  Alcotest.(check bool) "Worker ctor thread-specific" true
    (Thread_spec.is_specific_method ts "Worker.<init>");
  Alcotest.(check bool) "Worker.run thread-specific" true
    (Thread_spec.is_specific_method ts "Worker.run");
  Alcotest.(check bool) "Worker safe" false
    (Thread_spec.is_unsafe_class ts "Worker")

let test_unsafe_thread_escaping_this () =
  let _, rs = analyze
      {|
      class Registry { static Leaky last; }
      class Leaky extends Thread {
        int v;
        Leaky() { Registry.last = this; v = 1; }
        void run() { v = v + 1; }
      }
      class Main {
        static void main() {
          Leaky l = new Leaky();
          l.start();
          Registry.last.v = 5;
          l.join();
          print("v", l.v);
        }
      }
    |}
  in
  let ts = Race_set.thread_spec rs in
  Alcotest.(check bool) "Leaky is unsafe" true
    (Thread_spec.is_unsafe_class ts "Leaky");
  (* v may race: it must be in the race set. *)
  let s = Race_set.stats rs in
  Alcotest.(check bool) "v accesses kept" true (s.Race_set.in_race_set > 0)

let test_must_same_thread_two_distinct_runs () =
  (* Two different thread classes touching different data: each run's
     statements are single-threaded; no races. *)
  let _, rs = analyze
      {|
      class W1 extends Thread { int a; void run() { a = 1; } }
      class W2 extends Thread { int b; void run() { b = 2; } }
      class Main {
        static void main() {
          W1 x = new W1(); W2 y = new W2();
          x.start(); y.start(); x.join(); y.join();
          print("ok", 1);
        }
      }
    |}
  in
  let s = Race_set.stats rs in
  Alcotest.(check int) "disjoint threads, empty race set" 0
    s.Race_set.in_race_set

let test_same_run_two_instances_races () =
  (* The same run method started twice: MustThread is not a singleton,
     so its conflicting accesses stay in the race set. *)
  let _, rs = analyze
      {|
      class G { static int x; }
      class W extends Thread { void run() { G.x = G.x + 1; } }
      class Main {
        static void main() {
          W a = new W(); W b = new W();
          a.start(); b.start(); a.join(); b.join();
          print("x", G.x);
        }
      }
    |}
  in
  let s = Race_set.stats rs in
  Alcotest.(check bool) "static x accesses kept" true
    (s.Race_set.in_race_set >= 2)

(* Safety: static filtering must not lose any reported race. *)
let figure2_and_friends =
  [
    Test_vm.figure2 ~same_pq:false;
    Test_vm.figure2 ~same_pq:true;
    counter_src ~sync:false;
    counter_src ~sync:true;
  ]

let test_static_filtering_preserves_reports () =
  List.iter
    (fun src ->
      List.iter
        (fun seed ->
          let base = Pipe.run ~seed src in
          let filtered = Pipe.run ~seed ~static:true src in
          Alcotest.(check (list string)) "same racy locations"
            base.Pipeline.races filtered.Pipeline.races)
        [ 11; 42 ])
    figure2_and_friends

let test_static_reduces_instrumentation () =
  let filtered, unfiltered = trace_counts (counter_src ~sync:false) in
  Alcotest.(check bool)
    (Fmt.str "fewer traces (%d < %d)" filtered unfiltered)
    true
    (filtered < unfiltered);
  Alcotest.(check bool) "but not zero" true (filtered > 0)

let test_static_peers () =
  (* Section 2.6: a dynamic report's site links back to the static
     candidate statements it may race with. *)
  let compiled, r =
    Drd_harness.Pipeline.run_source Drd_harness.Config.full
      (counter_src ~sync:false)
  in
  match r.Drd_harness.Pipeline.report with
  | Some coll when Drd_core.Report.count coll > 0 ->
      let race = List.hd (Drd_core.Report.races coll) in
      let peers =
        Drd_harness.Pipeline.static_peers_of_site compiled
          race.Drd_core.Report.current.Drd_core.Event.site
      in
      Alcotest.(check bool)
        (Fmt.str "non-empty peers (%s)" (String.concat "; " peers))
        true (peers <> []);
      Alcotest.(check bool) "peers point into Counter.inc" true
        (List.exists
           (fun p -> Astring_contains.contains p "Counter.inc")
           peers)
  | _ -> Alcotest.fail "expected a race"

let test_stats_render () =
  let _, rs = analyze (counter_src ~sync:false) in
  let s = Fmt.str "%a" Race_set.pp_stats (Race_set.stats rs) in
  Alcotest.(check bool) "renders" true
    (Astring_contains.contains s "race set")

let suite =
  [
    Alcotest.test_case "points-to basics" `Quick test_pointsto_basics;
    Alcotest.test_case "virtual dispatch CG" `Quick test_callgraph_virtual_dispatch;
    Alcotest.test_case "unreachable excluded" `Quick test_unreachable_methods_excluded;
    Alcotest.test_case "sequential race set empty" `Quick test_single_threaded_race_set_empty;
    Alcotest.test_case "MustSync protects counter" `Quick test_must_sync_protects_counter;
    Alcotest.test_case "unsync counter kept" `Quick test_unsync_counter_in_race_set;
    Alcotest.test_case "thread-specific fields" `Quick test_thread_specific_fields;
    Alcotest.test_case "unsafe thread" `Quick test_unsafe_thread_escaping_this;
    Alcotest.test_case "distinct threads quiet" `Quick test_must_same_thread_two_distinct_runs;
    Alcotest.test_case "same run twice races" `Quick test_same_run_two_instances_races;
    Alcotest.test_case "filtering preserves reports" `Quick test_static_filtering_preserves_reports;
    Alcotest.test_case "filtering reduces traces" `Quick test_static_reduces_instrumentation;
    Alcotest.test_case "static peers (2.6)" `Quick test_static_peers;
    Alcotest.test_case "stats render" `Quick test_stats_render;
  ]
