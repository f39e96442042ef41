(* Tests for wait/notify/notifyAll: the monitor-style condition
   synchronization the paper's benchmark applications (hedc's thread
   pool, elevator) rely on in their original Java form.  Covers the VM
   semantics, the detector across wait boundaries (the monitor is fully
   released), and lost-notify deadlock diagnosis. *)

module Interp = Drd_vm.Interp
module Pipeline = Drd_harness.Pipeline

let check_ints msg expected outcome =
  Alcotest.(check (list (pair string int)))
    msg expected
    (Pipe.ints outcome.Pipeline.prints)

(* A classic bounded buffer: producer/consumer fully synchronized via
   wait/notifyAll — correct results under every seed, and no races. *)
let buffer_src ~items =
  Printf.sprintf
    {|
    class Buffer {
      int[] slots; int head; int tail; int count;
      Buffer(int cap) { slots = new int[cap]; }
      synchronized void put(int v) {
        while (count == slots.length) { this.wait(); }
        slots[tail] = v;
        tail = (tail + 1) %% slots.length;
        count = count + 1;
        this.notifyAll();
      }
      synchronized int take() {
        while (count == 0) { this.wait(); }
        int v = slots[head];
        head = (head + 1) %% slots.length;
        count = count - 1;
        this.notifyAll();
        return v;
      }
    }
    class Producer extends Thread {
      Buffer b; int n;
      Producer(Buffer b0, int n0) { b = b0; n = n0; }
      void run() { for (int i = 1; i <= n; i = i + 1) { b.put(i); } }
    }
    class Consumer extends Thread {
      Buffer b; int n; int sum;
      Consumer(Buffer b0, int n0) { b = b0; n = n0; }
      void run() { for (int i = 0; i < n; i = i + 1) { sum = sum + b.take(); } }
    }
    class Main {
      static void main() {
        Buffer b = new Buffer(3);
        int n = %d;
        Producer p = new Producer(b, n);
        Consumer c = new Consumer(b, n);
        p.start(); c.start();
        p.join(); c.join();
        print("sum", c.sum);
      }
    }
  |}
    items

let test_producer_consumer () =
  List.iter
    (fun seed ->
      let out = Pipe.run ~seed (buffer_src ~items:20) in
      check_ints (Printf.sprintf "seed %d" seed) [ ("sum", 210) ] out;
      Alcotest.(check (list string))
        (Printf.sprintf "no races (seed %d)" seed)
        [] out.Pipeline.races)
    [ 1; 7; 42; 99; 1234 ]

let test_notify_one_vs_all () =
  (* Several waiters; notifyAll wakes everyone. *)
  let out =
    Pipe.run
      {|
      class Gate {
        boolean open; int through;
        synchronized void pass() {
          while (!open) { this.wait(); }
          through = through + 1;
        }
        synchronized void openUp() { open = true; this.notifyAll(); }
      }
      class Passer extends Thread {
        Gate g;
        Passer(Gate g0) { g = g0; }
        void run() { g.pass(); }
      }
      class Main {
        static void main() {
          Gate g = new Gate();
          Passer p1 = new Passer(g);
          Passer p2 = new Passer(g);
          Passer p3 = new Passer(g);
          p1.start(); p2.start(); p3.start();
          int spin = 0;
          for (int i = 0; i < 200; i = i + 1) { spin = spin + 1; }
          g.openUp();
          p1.join(); p2.join(); p3.join();
          print("through", g.through);
        }
      }
    |}
  in
  check_ints "all three pass" [ ("through", 3) ] out

let expect_error msg pattern f =
  match f () with
  | exception Interp.Runtime_error m ->
      Alcotest.(check bool)
        (msg ^ ": got " ^ m)
        true
        (Astring_contains.contains m pattern)
  | _ -> Alcotest.fail (msg ^ ": expected a runtime error")

let test_illegal_monitor_state () =
  expect_error "wait without lock" "IllegalMonitorState" (fun () ->
      Pipe.run
        {| class Main { static void main() { Object o = new Object(); o.wait(); } } |});
  expect_error "notify without lock" "IllegalMonitorState" (fun () ->
      Pipe.run
        {| class Main { static void main() { Object o = new Object(); o.notify(); } } |})

let test_lost_notify_deadlock () =
  expect_error "lost notify" "wait()" (fun () ->
      Pipe.run
        {|
        class W extends Thread {
          Object o;
          W(Object o0) { o = o0; }
          void run() { synchronized (o) { o.wait(); } }
        }
        class Main {
          static void main() {
            Object o = new Object();
            W w = new W(o);
            w.start();
            // Nobody ever notifies: w waits forever.
            w.join();
          }
        }
      |})

let test_wait_releases_reentrant_monitor () =
  (* wait() inside a doubly-entered monitor must release it fully and
     restore the count afterwards. *)
  let out =
    Pipe.run
      {|
      class Cell {
        int v; boolean ready;
        synchronized void outer() { this.inner(); v = v + 100; }
        synchronized void inner() {
          while (!ready) { this.wait(); }
          v = v + 1;
        }
        synchronized void fill() { ready = true; this.notify(); }
      }
      class Waiter extends Thread {
        Cell c;
        Waiter(Cell c0) { c = c0; }
        void run() { c.outer(); }
      }
      class Main {
        static void main() {
          Cell c = new Cell();
          Waiter w = new Waiter(c);
          w.start();
          int spin = 0;
          for (int i = 0; i < 200; i = i + 1) { spin = spin + 1; }
          c.fill();
          w.join();
          print("v", c.v);
        }
      }
    |}
  in
  check_ints "reentrant wait" [ ("v", 101) ] out

let test_wait_on_outer_monitor () =
  (* wait() on a non-innermost monitor: lock b stays held while a is
     released — the waiter keeps excluding accesses under b. *)
  let out =
    Pipe.run
      {|
      class S { int x; boolean go; }
      class Holder extends Thread {
        S s; Object a;
        Holder(S s0, Object a0) { s = s0; a = a0; }
        void run() {
          synchronized (a) {
            synchronized (s) {
              // releases a only; still holds s
              synchronized (a) { }
              s.x = 1;
            }
          }
        }
      }
      class Main {
        static void main() {
          S s = new S();
          Object a = new Object();
          Holder h = new Holder(s, a);
          h.start();
          h.join();
          print("x", s.x);
        }
      }
    |}
  in
  check_ints "nested monitors fine" [ ("x", 1) ] out

(* Detector correctness across wait: the monitor is genuinely released
   during wait, so an access made while waiting-held-locks-dropped can
   race. *)
let test_detector_sees_release_during_wait () =
  let out =
    Pipe.run
      {|
      class S {
        int data; boolean ready;
      }
      class Waiter extends Thread {
        S s;
        Waiter(S s0) { s = s0; }
        void run() {
          synchronized (s) {
            while (!s.ready) { s.wait(); }
            print("data", s.data);
          }
        }
      }
      class Rogue extends Thread {
        S s;
        Rogue(S s0) { s = s0; }
        void run() {
          int spin = 0;
          for (int i = 0; i < 150; i = i + 1) { spin = spin + 1; }
          s.data = 42;          // unsynchronized write: races with the
                                // synchronized reads
          synchronized (s) { s.ready = true; s.notifyAll(); }
        }
      }
      class Main {
        static void main() {
          S s = new S();
          s.data = 1;
          Waiter w = new Waiter(s);
          Rogue r = new Rogue(s);
          w.start(); r.start();
          w.join(); r.join();
        }
      }
    |}
  in
  Alcotest.(check bool) "data race found" true
    (List.exists
       (fun l -> Astring_contains.contains l ".data")
       out.Pipeline.races);
  Alcotest.(check bool) "ready is synchronized, quiet" true
    (not
       (List.exists
          (fun l -> Astring_contains.contains l ".ready")
          out.Pipeline.races))

let suite =
  [
    Alcotest.test_case "producer/consumer" `Quick test_producer_consumer;
    Alcotest.test_case "notifyAll wakes all" `Quick test_notify_one_vs_all;
    Alcotest.test_case "illegal monitor state" `Quick test_illegal_monitor_state;
    Alcotest.test_case "lost notify deadlock" `Quick test_lost_notify_deadlock;
    Alcotest.test_case "reentrant wait" `Quick test_wait_releases_reentrant_monitor;
    Alcotest.test_case "nested monitors" `Quick test_wait_on_outer_monitor;
    Alcotest.test_case "detector across wait" `Quick test_detector_sees_release_during_wait;
  ]
