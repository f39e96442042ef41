(* An arena-shrunk detector disagreement: the fork/join handoff.

   `racedet arena` found (and shrank to this single-unit program) the
   signature precision gap between the paper's detector and the
   lockset baselines: main writes a static before starting the thread,
   the thread increments it without locks, and main reads it back
   after join().  Every access is ordered by the start/join edges, so
   the program is race-free — and the paper detector's join
   pseudo-locks (Section 2.3) plus the ownership model prove it quiet,
   as does vector-clock happens-before.  Eraser and object-race
   detection model no fork/join ordering at all, so both report a
   race on G.d2s.

   Reproduce the hunt:  dune exec bin/racedet.exe -- arena --repro DIR
   Run this program:     dune exec examples/arena_join_handoff.exe *)

module H = Drd_harness

(* Verbatim arena output (spec: index 0, units [u2:join-handoff x1]);
   the generator names cells by unit id, hence the `2` suffixes. *)
let source =
  {|
  class G {
    static int d2s; static int d2r; static int t2;
    static boolean a2; static boolean b2;
    static Object l2;
  }
  class U2A extends Thread {
    void run() {
      for (int i = 0; i < 1; i = i + 1) { G.d2s = G.d2s + 1; }
    }
  }
  class Main {
    static void main() {
      G.l2 = new Object();
      G.d2s = 1;
      U2A u2a = new U2A();
      u2a.start();
      u2a.join();
      print("u2", G.d2s);
      print("end", 0);
    }
  }
|}

let () =
  Fmt.pr "The join-handoff program, under every registered detector:@.@.";
  List.iter
    (fun (e : H.Registry.entry) ->
      let config = H.Registry.apply e H.Config.full in
      let compiled = H.Pipeline.compile config ~source in
      let r = H.Pipeline.run compiled in
      Fmt.pr "  %-8s %s@." e.H.Registry.name
        (match r.H.Pipeline.races with
        | [] -> "quiet (no race)"
        | races -> "reports " ^ String.concat ", " races))
    H.Registry.all;
  Fmt.pr
    "@.The program is race-free: start()/join() order every access.  The \
     paper's@.join pseudo-locks and ownership model prove that without \
     vector clocks;@.the Eraser and object-race disciplines cannot express \
     it.@."
