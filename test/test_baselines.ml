(* Tests for the three baseline detectors the paper compares against
   (Sections 8.3 and 9): the Eraser lockset discipline, Praun-Gross
   object race detection, and a vector-clock happens-before detector —
   each reproducing the precision difference the paper claims. *)

module E = Drd_baselines.Eraser
module O = Drd_baselines.Objrace
module H = Drd_baselines.Happens_before
module V = Drd_baselines.Vclock
module Pipeline = Drd_harness.Pipeline
module Registry = Drd_harness.Registry
open Drd_core

(* A baseline's racy locations: its own registry row over the tests'
   configuration (seed, quantum), scalar optimization off as there. *)
let baseline_races ?seed e source =
  let row = Registry.apply e (Pipe.config ?seed ()) in
  (snd
     (Pipeline.run_source { row with Drd_harness.Config.ir_optimize = false }
        source))
    .Pipeline.races

(* Feed one access through the common Detector_intf.S entry point —
   the only access path the baselines expose now that the Event.t
   wrappers are gone. *)
let access (type a) (module D : Detector_intf.S with type t = a) (d : a)
    ?(loc = 0) ?(thread = 0) ?(locks = []) ?(kind = Event.Read) () =
  D.on_access_interned d ~loc ~thread ~locks:(Lockset_id.of_list locks) ~kind
    ~site:0

(* ---- Eraser unit tests ---- *)

let test_eraser_states () =
  let d = E.create () in
  (* Initialization by one thread is exempt. *)
  access (module E) d ~thread:1 ~kind:Event.Write ();
  access (module E) d ~thread:1 ~kind:Event.Write ();
  Alcotest.(check int) "exclusive quiet" 0 (E.race_count d);
  (* Read-shared without locks: still no error. *)
  access (module E) d ~thread:2 ~kind:Event.Read ();
  Alcotest.(check int) "read-shared quiet" 0 (E.race_count d);
  (* A write with empty candidate set: race. *)
  access (module E) d ~thread:1 ~kind:Event.Write ();
  Alcotest.(check int) "write to shared reports" 1 (E.race_count d)

let test_eraser_consistent_lock_quiet () =
  let d = E.create () in
  access (module E) d ~thread:1 ~locks:[ 7 ] ~kind:Event.Write ();
  access (module E) d ~thread:2 ~locks:[ 7 ] ~kind:Event.Write ();
  access (module E) d ~thread:1 ~locks:[ 7; 8 ] ~kind:Event.Read ();
  Alcotest.(check int) "common lock" 0 (E.race_count d)

let test_eraser_rejects_mutually_intersecting () =
  (* The mtrt idiom (Section 8.3): locksets {1,3},{2,3},{1,2} are
     mutually intersecting but share no single common lock — Eraser
     reports, our detector does not. *)
  let d = E.create () in
  access (module E) d ~thread:1 ~locks:[ 1; 3 ] ~kind:Event.Write ();
  access (module E) d ~thread:2 ~locks:[ 2; 3 ] ~kind:Event.Write ();
  (* T1 accesses again now that the location is shared, so its lockset
     {1,3} also refines the candidate set (Exclusive-state accesses are
     exempt in Eraser). *)
  access (module E) d ~thread:1 ~locks:[ 1; 3 ] ~kind:Event.Write ();
  Alcotest.(check int) "no single common lock yet no report" 0 (E.race_count d);
  access (module E) d ~thread:0 ~locks:[ 1; 2 ] ~kind:Event.Read ();
  Alcotest.(check int) "Eraser flags it" 1 (E.race_count d)

(* ---- Vector clock unit tests ---- *)

let test_vclock_laws () =
  let a = V.create ~n:4 () and b = V.create ~n:4 () in
  V.tick a 0;
  V.tick a 0;
  V.tick b 1;
  Alcotest.(check bool) "incomparable" false (V.leq a b && V.leq b a);
  V.join b a;
  Alcotest.(check bool) "join dominates" true (V.leq a b);
  Alcotest.(check bool) "epoch" true (V.epoch_leq ~thread:0 ~clock:2 b);
  Alcotest.(check bool) "epoch strict" false (V.epoch_leq ~thread:0 ~clock:3 b)

let test_hb_direct () =
  let d = H.create () in
  (* T0 writes, then start-edge to T1, T1 reads: ordered, quiet. *)
  access (module H) d ~thread:0 ~kind:Event.Write ();
  H.on_thread_start d ~parent:0 ~child:1;
  access (module H) d ~thread:1 ~kind:Event.Read ();
  Alcotest.(check int) "start edge orders" 0 (H.race_count d);
  (* Unordered concurrent write by T2. *)
  H.on_thread_start d ~parent:0 ~child:2;
  access (module H) d ~thread:2 ~kind:Event.Write ();
  Alcotest.(check int) "unordered write races" 1 (H.race_count d)

let test_hb_lock_transfer () =
  let d = H.create () in
  H.on_acquire d ~thread:0 ~lock:9;
  access (module H) d ~thread:0 ~kind:Event.Write ();
  H.on_release d ~thread:0 ~lock:9;
  H.on_acquire d ~thread:1 ~lock:9;
  access (module H) d ~thread:1 ~kind:Event.Write ();
  H.on_release d ~thread:1 ~lock:9;
  Alcotest.(check int) "lock edge orders" 0 (H.race_count d)

(* ---- End-to-end comparisons on MiniJava programs ---- *)

(* The mtrt join idiom: two workers update a statistic under a common
   lock; the parent reads it after joining both, without locks.  Our
   detector: locksets {S1,sync},{S2,sync},{S1,S2} mutually intersect —
   silent.  Eraser: no single common lock — spurious report. *)
let join_stats_src =
  {|
  class Stats { int ops; }
  class W extends Thread {
    Stats s; Object lock;
    W(Stats s0, Object l) { s = s0; lock = l; }
    void run() {
      for (int i = 0; i < 10; i = i + 1) {
        synchronized (lock) { s.ops = s.ops + 1; }
      }
    }
  }
  class Main {
    static void main() {
      Stats s = new Stats();
      Object l = new Object();
      W w1 = new W(s, l); W w2 = new W(s, l);
      w1.start(); w2.start();
      w1.join(); w2.join();
      print("ops", s.ops);
    }
  }
|}

let test_join_idiom_ours_vs_eraser () =
  let ours = Pipe.run join_stats_src in
  Alcotest.(check (list string)) "ours: silent" [] ours.Pipeline.races;
  let eraser = baseline_races Registry.eraser join_stats_src in
  Alcotest.(check bool) "Eraser: spurious report on ops" true
    (List.exists (fun l -> Astring_contains.contains l ".ops") eraser)

(* Object-granularity false positives: a perfectly synchronized counter
   still gets flagged by object race detection because the method call
   itself is treated as an unprotected write to the receiver. *)
let test_objrace_spurious_on_synchronized_counter () =
  let src = Test_vm.counter_src ~sync:true in
  let ours = Pipe.run src in
  Alcotest.(check (list string)) "ours: silent" [] ours.Pipeline.races;
  let objrace = baseline_races Registry.objrace src in
  Alcotest.(check bool) "objrace: spurious report" true
    (List.length objrace > 0)

let test_objrace_superset_of_ours () =
  (* On a racy program, object race detection reports at least the
     objects we report. *)
  let src = Test_vm.counter_src ~sync:false in
  let ours = Pipe.run src in
  let objrace = baseline_races Registry.objrace src in
  Alcotest.(check bool) "ours found the race" true
    (List.length ours.Pipeline.races > 0);
  Alcotest.(check bool) "objrace reports too" true (List.length objrace > 0)

(* The feasible-race example (Figure 2 with p == q): our lockset-based
   definition reports it under every schedule; happens-before only when
   T2 happens to win the lock first.  Sweep seeds and check both
   behaviours materialize. *)
let test_feasible_race_hb_schedule_dependent () =
  let src = Test_vm.figure2 ~same_pq:true in
  let seeds = List.init 20 (fun i -> i + 1) in
  let hb_hits = ref 0 and hb_misses = ref 0 in
  List.iter
    (fun seed ->
      let ours = Pipe.run ~seed src in
      Alcotest.(check int) "ours reports under every schedule" 1
        (List.length ours.Pipeline.races);
      let hb = baseline_races ~seed Registry.vclock src in
      let hit = List.exists (fun l -> Astring_contains.contains l ".f") hb in
      if hit then incr hb_hits else incr hb_misses)
    seeds;
  Alcotest.(check bool)
    (Fmt.str "HB misses on some schedules (hits %d, misses %d)" !hb_hits
       !hb_misses)
    true
    (!hb_misses > 0);
  Alcotest.(check bool) "HB catches on some schedules" true (!hb_hits > 0)

let test_hb_no_false_positive_on_synchronized () =
  let hb = baseline_races Registry.vclock (Test_vm.counter_src ~sync:true) in
  Alcotest.(check (list string)) "HB quiet on synchronized counter" [] hb

let test_hb_catches_plain_race () =
  let hb = baseline_races Registry.vclock (Test_vm.counter_src ~sync:false) in
  Alcotest.(check bool) "HB reports the counter race" true
    (List.exists (fun l -> Astring_contains.contains l ".n") hb)

let suite =
  [
    Alcotest.test_case "eraser states" `Quick test_eraser_states;
    Alcotest.test_case "eraser common lock" `Quick test_eraser_consistent_lock_quiet;
    Alcotest.test_case "eraser vs intersecting locksets" `Quick
      test_eraser_rejects_mutually_intersecting;
    Alcotest.test_case "vector clock laws" `Quick test_vclock_laws;
    Alcotest.test_case "hb direct" `Quick test_hb_direct;
    Alcotest.test_case "hb lock transfer" `Quick test_hb_lock_transfer;
    Alcotest.test_case "join idiom: ours vs Eraser" `Quick test_join_idiom_ours_vs_eraser;
    Alcotest.test_case "objrace spurious" `Quick test_objrace_spurious_on_synchronized_counter;
    Alcotest.test_case "objrace superset" `Quick test_objrace_superset_of_ours;
    Alcotest.test_case "feasible race vs HB" `Quick test_feasible_race_hb_schedule_dependent;
    Alcotest.test_case "hb quiet on sync" `Quick test_hb_no_false_positive_on_synchronized;
    Alcotest.test_case "hb catches race" `Quick test_hb_catches_plain_race;
  ]
