(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8) and runs Bechamel micro-benchmarks for the
   per-event costs that explain Table 2's structure.

   Run everything:          dune exec bench/main.exe
   Individual pieces:       dune exec bench/main.exe -- --table2 --figure3
   Quick mode (small sizes) dune exec bench/main.exe -- --quick *)

module H = Drd_harness
open Drd_core

let fpf = Format.printf

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the per-access costs of the runtime
   stages.  One suite per paper table: Table 2's columns differ exactly
   in which of these costs is paid per event. *)

let bench_event =
  Event.make ~loc:4242 ~thread:1 ~locks:Event.Lockset.empty ~kind:Event.Read
    ~site:0

let table2_micro_tests () =
  let open Bechamel in
  let cache = Cache.create () in
  ignore (Cache.lookup_or_add cache ~kind:Event.Read ~loc:4242);
  let cache_hit =
    Test.make ~name:"table2/cache-hit"
      (Staged.stage (fun () ->
           ignore (Cache.lookup_or_add cache ~kind:Event.Read ~loc:4242)))
  in
  (* A trie holding a representative mtrt-like history. *)
  let trie = Trie.create () in
  Trie.update trie
    (Event.make ~loc:0 ~thread:0 ~locks:(Event.Lockset.of_list [ 1; 7 ])
       ~kind:Event.Write ~site:0);
  Trie.update trie
    (Event.make ~loc:0 ~thread:2 ~locks:(Event.Lockset.of_list [ 2; 7 ])
       ~kind:Event.Write ~site:0);
  let probe =
    Event.make ~loc:0 ~thread:1 ~locks:(Event.Lockset.of_list [ 7 ])
      ~kind:Event.Read ~site:0
  in
  let trie_process =
    Test.make ~name:"table2/trie-process"
      (Staged.stage (fun () -> ignore (Trie.process trie probe)))
  in
  let det_cached =
    let coll = Report.collector () in
    let d = Detector.create coll in
    Detector.on_access d bench_event;
    Test.make ~name:"table2/detector-event-cached"
      (Staged.stage (fun () -> Detector.on_access d bench_event))
  in
  let det_nocache =
    let coll = Report.collector () in
    let d =
      Detector.create
        ~config:{ Detector.default_config with Detector.use_cache = false }
        coll
    in
    Detector.on_access d bench_event;
    Test.make ~name:"table2/detector-event-nocache"
      (Staged.stage (fun () -> Detector.on_access d bench_event))
  in
  [ cache_hit; trie_process; det_cached; det_nocache ]

let table3_micro_tests () =
  let open Bechamel in
  (* Table 3's variants differ in the ownership filter and location
     granularity; measure the ownership check and a full owned-path
     event. *)
  let own = Ownership.create () in
  ignore (Ownership.check own ~thread:0 ~loc:7);
  let ownership_check =
    Test.make ~name:"table3/ownership-check"
      (Staged.stage (fun () -> ignore (Ownership.check own ~thread:0 ~loc:7)))
  in
  let det_owned =
    let coll = Report.collector () in
    let d =
      Detector.create
        ~config:{ Detector.default_config with Detector.use_cache = false }
        coll
    in
    Detector.on_access d bench_event;
    Test.make ~name:"table3/detector-event-owned"
      (Staged.stage (fun () -> Detector.on_access d bench_event))
  in
  [ ownership_check; det_owned ]

let run_bechamel tests =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests) in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (est :: _) -> fpf "  %-36s %8.1f ns/event@." name est
         | _ -> fpf "  %-36s (no estimate)@." name);
  fpf "@."

let microbench () =
  fpf "Per-event costs (Bechamel; these are the quantities whose ratios@.";
  fpf "drive the overhead differences across Table 2 columns):@.";
  run_bechamel (table2_micro_tests ());
  fpf "Ownership-model costs (Table 3 variants):@.";
  run_bechamel (table3_micro_tests ())

(* ------------------------------------------------------------------ *)
(* Ablations for the design choices DESIGN.md calls out: the 256-entry
   cache size the paper fixes (Section 4.3), and the per-location vs
   packed history representation. *)

let ablation () =
  fpf "Ablation 1: cache size (paper fixes 256 direct-mapped entries)@.";
  fpf "%8s %12s %12s %14s@." "entries" "hits" "misses" "hit rate";
  let b = Option.get (H.Programs.find "tsp") in
  let compiled = H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_perf_source in
  let log, _ = H.Pipeline.record_log compiled in
  List.iter
    (fun size ->
      let collector = Report.collector () in
      let det =
        Detector.create
          ~config:{ Detector.default_config with Detector.cache_size = size }
          collector
      in
      Event_log.replay log det;
      let s = Detector.stats det in
      let lookups = s.Detector.events_in in
      fpf "%8d %12d %12d %13.1f%%@." size s.Detector.cache_hits
        (lookups - s.Detector.cache_hits)
        (100. *. float_of_int s.Detector.cache_hits /. float_of_int (max lookups 1)))
    [ 16; 64; 256; 1024; 4096 ];
  fpf "@.Ablation 2: history representation (replay wall time, tsp)@.";
  List.iter
    (fun (name, history) ->
      let collector = Report.collector () in
      let det =
        Detector.create
          ~config:
            { Detector.default_config with Detector.history; use_cache = false }
          collector
      in
      let t0 = Unix.gettimeofday () in
      Event_log.replay log det;
      let dt = Unix.gettimeofday () -. t0 in
      let s = Detector.stats det in
      fpf "  %-14s %.3fs  %6d trie nodes, %d races@." name dt
        s.Detector.trie_nodes s.Detector.races_reported)
    [ ("per-location", Detector.Per_location); ("packed", Detector.Packed) ];
  fpf "@."

(* The sections, in run order.  A run that names none runs them all;
   any argument other than these flags and [--quick] is an error. *)
let sections ~quick =
  [
    ("--figure1", H.Tables.figure1);
    ("--figure2", H.Tables.figure2);
    ("--figure3", H.Tables.figure3);
    ("--table1", H.Tables.table1);
    ( "--table2",
      fun () ->
        ignore
          (H.Tables.table2 ~runs:(if quick then 1 else 3) ~perf:(not quick) ())
    );
    ("--table3", fun () -> ignore (H.Tables.table3 ()));
    ("--sor-vs-sor2", fun () -> ignore (H.Tables.sor_vs_sor2 ()));
    ("--space", fun () -> ignore (H.Tables.space ()));
    ("--join-example", H.Tables.join_example);
    ("--baselines", fun () -> ignore (H.Tables.baselines ()));
    ("--ablation", ablation);
    ("--micro", microbench);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let sections = sections ~quick:(List.mem "--quick" args) in
  let flags = List.map fst sections in
  if List.exists (fun a -> a <> "--quick" && not (List.mem a flags)) args
  then begin
    prerr_endline
      ("usage: main.exe [--quick] [" ^ String.concat " | " flags ^ "]...");
    exit 2
  end;
  let all = not (List.exists (fun flag -> List.mem flag args) flags) in
  List.iter
    (fun (flag, run) -> if all || List.mem flag args then run ())
    sections
