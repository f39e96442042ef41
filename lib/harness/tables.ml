(* Regeneration of the paper's tables and figures (Section 8), printed
   in the same row/column structure.  Absolute timings come from this
   machine's interpreter rather than a 450 MHz POWER3, so the
   accompanying deterministic event counts are the primary
   reproduction metric; see EXPERIMENTS.md. *)

module Ir = Drd_ir.Ir

let fpf = Format.printf

let contains_sub needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------- Table 1: benchmark characteristics ---------------- *)

let table1 () =
  fpf "Table 1: Benchmark programs and their characteristics@.";
  fpf "%-10s %14s %21s  %s@." "Example" "Lines of Code" "Num. Dynamic Threads"
    "Description";
  List.iter
    (fun (b : Programs.benchmark) ->
      let r = Pipeline.run_source Config.base b.Programs.b_source |> snd in
      fpf "%-10s %14d %21d  %s@." b.Programs.b_name
        (Programs.loc_of_source b.Programs.b_source)
        r.Pipeline.threads b.Programs.b_description)
    Programs.paper_benchmarks;
  fpf "@."

(* ---------------- Table 2: runtime performance ---------------------- *)

type t2_cell = { wall : float; overhead : float; events : int; steps : int }

let best_of ~runs compiled =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to runs do
    let r = Pipeline.run compiled in
    if r.Pipeline.wall_time < !best then best := r.Pipeline.wall_time;
    last := Some r
  done;
  (!best, Option.get !last)

let table2 ?(runs = 3) ?(perf = true) () =
  fpf "Table 2: Runtime performance (wall time, %% overhead vs Base,@.";
  fpf "         and deterministic access-event counts)@.";
  fpf "%-8s  %s@." ""
    (String.concat "  "
       (List.map
          (fun (c : Config.t) -> Printf.sprintf "%-22s" c.Config.name)
          Config.table2_configs));
  let rows = ref [] in
  List.iter
    (fun (b : Programs.benchmark) ->
      if b.Programs.b_cpu_bound then begin
        let source =
          if perf then b.Programs.b_perf_source else b.Programs.b_source
        in
        let base_time = ref 1.0 in
        let cells =
          List.map
            (fun config ->
              let compiled = Pipeline.compile config ~source in
              let wall, r = best_of ~runs compiled in
              if config.Config.name = "Base" then base_time := wall;
              {
                wall;
                overhead = (wall /. !base_time -. 1.0) *. 100.;
                events = r.Pipeline.events;
                steps = r.Pipeline.steps;
              })
            Config.table2_configs
        in
        rows := (b.Programs.b_name, cells) :: !rows;
        fpf "%-8s  %s@." b.Programs.b_name
          (String.concat "  "
             (List.map
                (fun c ->
                  Printf.sprintf "%6.3fs (%+4.0f%%) %7s"
                    c.wall c.overhead
                    (Printf.sprintf "e=%d" c.events))
                cells))
      end)
    Programs.paper_benchmarks;
  fpf "(elevator and hedc are not CPU-bound and are excluded, as in the paper)@.@.";
  List.rev !rows

(* ---------------- Table 3: reported racy objects -------------------- *)

let table3 () =
  fpf "Table 3: Number of objects with dataraces reported@.";
  fpf "%-10s %6s %14s %13s@." "Example" "Full" "FieldsMerged" "NoOwnership";
  let rows =
    List.map
      (fun (b : Programs.benchmark) ->
        let count config =
          let _, r = Pipeline.run_source config b.Programs.b_source in
          List.length r.Pipeline.racy_objects
        in
        let cells = List.map count Config.table3_configs in
        fpf "%-10s %6d %14d %13d@." b.Programs.b_name (List.nth cells 0)
          (List.nth cells 1) (List.nth cells 2);
        (b.Programs.b_name, cells))
      Programs.paper_benchmarks
  in
  fpf "@.";
  rows

(* ---------------- Figure 1: architecture (phase trace) -------------- *)

let figure1 () =
  fpf "Figure 1: Architecture of the datarace detection system@.";
  fpf "(phase trace on the tsp benchmark)@.@.";
  let b = Option.get (Programs.find "tsp") in
  let config = Config.full in
  let compiled = Pipeline.compile config ~source:b.Programs.b_source in
  (match compiled.Pipeline.static_stats with
  | Some s ->
      fpf "[1] static datarace analysis:@.    %a@."
        Drd_static.Race_set.pp_stats s
  | None -> ());
  fpf "[2] optimized instrumentation: %d trace statements inserted,@."
    compiled.Pipeline.traces_inserted;
  fpf "    %d removed by the static weaker-than relation (with loop peeling)@."
    compiled.Pipeline.traces_eliminated;
  let r = Pipeline.run compiled in
  (match r.Pipeline.detector_stats with
  | Some s ->
      fpf "[3] runtime optimizer + [4] detector:@.    %a@."
        Drd_core.Detector.pp_stats s
  | None -> ());
  fpf "races reported on: %s@.@."
    (String.concat ", " r.Pipeline.racy_objects)

(* ---------------- Figure 2: the three-thread example ---------------- *)

let figure2 () =
  fpf "Figure 2: Example program with three threads@.@.";
  let run ~same_pq =
    let _, r =
      Pipeline.run_source Config.full (Programs.figure2 ~same_pq ())
    in
    r.Pipeline.racy_objects
  in
  let plain = run ~same_pq:false in
  fpf "distinct locks p != q: races on %s@." (String.concat ", " plain);
  fpf "  (T11:a.f and T14:b.f race with T21:d.f; T01:x.f is ordered by@.";
  fpf "   start() and silenced by the ownership model)@.";
  let same = run ~same_pq:true in
  fpf "same lock p == q:     races on %s@." (String.concat ", " same);
  fpf "  (the feasible race is still reported: lockset-based detection@.";
  fpf "   does not depend on the observed lock acquisition order)@.";
  let _, hb =
    Pipeline.run_source
      (Registry.apply Registry.vclock Config.full)
      (Programs.figure2 ~same_pq:true ())
  in
  fpf "happens-before baseline on p == q: races on [%s]@.@."
    (String.concat ", " hb.Pipeline.racy_objects)

(* ---------------- Figure 3: loop peeling ---------------------------- *)

let fig3_src =
  {|
  class A { int f; }
  class Main {
    static void main() {
      A a = new A();
      int n = 100;
      for (int i = 0; i < n; i = i + 1) {
        a.f = i;        // S12/S13: PEI (null check) + write + trace
      }
      print("f", a.f);
    }
  }
|}

let figure3 () =
  fpf "Figure 3: Loop peeling optimization@.@.";
  let show name config =
    let compiled = Pipeline.compile config ~source:fig3_src in
    let r = Pipeline.run compiled in
    fpf "%s: %d trace statements, %d eliminated, %d dynamic events@." name
      compiled.Pipeline.traces_inserted compiled.Pipeline.traces_eliminated
      r.Pipeline.events;
    compiled
  in
  (* The demo program is single-threaded, so the static datarace set
     would empty it; disable static analysis to show the
     instrumentation-level transformation in isolation. *)
  let before =
    show "before (no optimization)    "
      { Config.no_dominators with Config.static_analysis = false }
  in
  let mid =
    show "weaker-than only (NoPeeling)"
      { Config.no_peeling with Config.static_analysis = false }
  in
  let after =
    show "peeling + weaker-than       "
      { Config.full with Config.static_analysis = false }
  in
  ignore (before, mid);
  fpf "@.IR of Main.main after peeling and elimination:@.";
  (match Ir.find_mir after.Pipeline.prog "Main.main" with
  | Some m -> fpf "%a@." Drd_ir.Pretty.pp_mir m
  | None -> ());
  fpf "@."

(* ---------------- Section 8.1: why sor2 exists ---------------------- *)

(* "We derived sor2 from the original sor benchmark by manually hoisting
   loop invariant array subscript expressions out of inner loops ... it
   has significant impact on the effectiveness of our optimizations." *)
let sor_vs_sor2 () =
  fpf "Section 8.1: the effect of hoisting subscripts (sor vs sor2)@.";
  fpf "%-6s %-14s %10s %10s@." "" "" "traces" "events";
  let rows = ref [] in
  List.iter
    (fun (name, source) ->
      List.iter
        (fun (config : Config.t) ->
          let compiled = Pipeline.compile config ~source in
          let r = Pipeline.run compiled in
          fpf "%-6s %-14s %10d %10d@." name config.Config.name
            compiled.Pipeline.traces_inserted r.Pipeline.events;
          rows := ((name, config.Config.name), r.Pipeline.events) :: !rows)
        [ Config.full; Config.no_dominators ])
    [ ("sor", Programs.sor ()); ("sor2", Programs.sor2 ()) ];
  fpf
    "Without hoisting the row references are reloaded per iteration, so@.";
  fpf
    "their value numbers are fresh and the peeled traces cover nothing:@.";
  fpf "sor gains almost nothing from the dominator/peeling machinery,@.";
  fpf "while sor2 collapses — exactly why the authors made sor2.@.@.";
  List.rev !rows

(* ---------------- Section 8.2: space ------------------------------- *)

let space () =
  fpf "Section 8.2: space consumed by the detector (tsp)@.";
  let b = Option.get (Programs.find "tsp") in
  let _, r = Pipeline.run_source Config.full b.Programs.b_source in
  let s = Option.get r.Pipeline.detector_stats in
  fpf "per-location tries: %d nodes for %d memory locations@."
    s.Drd_core.Detector.trie_nodes s.Drd_core.Detector.locations_tracked;
  (* The multi-location packing scheme the paper alludes to. *)
  let compiled = Pipeline.compile Config.full ~source:b.Programs.b_source in
  let log, _ = Pipeline.record_log compiled in
  let coll = Drd_core.Report.collector () in
  let det =
    Drd_core.Detector.create
      ~config:
        {
          Drd_core.Detector.default_config with
          Drd_core.Detector.history = Drd_core.Detector.Packed;
        }
      coll
  in
  Drd_core.Event_log.replay log det;
  let ps = Drd_core.Detector.stats det in
  fpf "packed trie:        %d shared nodes for the same %d locations@.@."
    ps.Drd_core.Detector.trie_nodes ps.Drd_core.Detector.locations_tracked;
  (s.Drd_core.Detector.trie_nodes, s.Drd_core.Detector.locations_tracked)

(* ---------------- Section 8.3: the mtrt join idiom ------------------ *)

let join_example () =
  fpf "Section 8.3: I/O statistics under a common lock + join (mtrt)@.";
  let b = Option.get (Programs.find "mtrt") in
  let ours = snd (Pipeline.run_source Config.full b.Programs.b_source) in
  let eraser =
    snd
      (Pipeline.run_source
         (Registry.apply Registry.eraser Config.full)
         b.Programs.b_source)
  in
  let stats_flagged objs = List.exists (contains_sub "Stats") objs in
  fpf "our detector:    Stats flagged = %b (locksets {S1,sync},{S2,sync},{S1,S2}@."
    (stats_flagged ours.Pipeline.racy_objects);
  fpf "                 are mutually intersecting: no race)@.";
  fpf "Eraser baseline: Stats flagged = %b (no single common lock)@.@."
    (stats_flagged eraser.Pipeline.racy_objects)

(* ---------------- Section 9: baselines ------------------------------ *)

let baselines () =
  fpf "Section 9: precision/overhead comparison with baselines@.";
  fpf "%-10s %6s %8s %9s %15s@." "Example" "Full" "Eraser" "ObjRace"
    "HappensBefore";
  let rows =
    List.map
      (fun (b : Programs.benchmark) ->
        let count config =
          List.length
            (snd (Pipeline.run_source config b.Programs.b_source))
              .Pipeline.racy_objects
        in
        let cells =
          List.map (fun e -> count (Registry.apply e Config.full)) Registry.all
        in
        fpf "%-10s %6d %8d %9d %15d@." b.Programs.b_name (List.nth cells 0)
          (List.nth cells 1) (List.nth cells 2) (List.nth cells 3);
        (b.Programs.b_name, cells))
      Programs.paper_benchmarks
  in
  fpf "@.";
  rows
