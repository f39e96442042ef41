(* The schedule-exploration engine (lib/explore): a race the default
   deterministic schedule misses must be found by a PCT campaign, the
   printed reproduction recipe must actually reproduce it, and
   campaigns must be deterministic functions of their spec — including
   across worker counts. *)

module H = Drd_harness
module E = Drd_explore
module Explore = E.Explore
module Aggregate = E.Aggregate
module Strategy = E.Strategy

let needle_source = H.Programs.needle ()

let contains_sub sub s = Astring_contains.contains s sub

let pct_spec ?(workers = 1) ?(runs = 40) ?plateau () =
  Explore.spec ~strategy:(Strategy.Pct 3) ~workers
    ~budget:(Explore.budget ?plateau runs)
    ~pct_horizon:10_000 H.Config.full

let test_default_schedule_misses () =
  let _, r = H.Pipeline.run_source H.Config.full needle_source in
  Alcotest.(check (list string)) "needle quiet under the default schedule" []
    r.H.Pipeline.racy_objects

let test_pct_campaign_finds () =
  let report = Explore.run_campaign (pct_spec ()) ~source:needle_source in
  Alcotest.(check (list string)) "no crashed runs" []
    (List.map (fun f -> f.Aggregate.f_error) report.Explore.r_failures);
  Alcotest.(check bool) "at least one deduped race" true
    (report.Explore.r_races <> []);
  let on_array =
    List.exists
      (fun d -> contains_sub "array" d.Aggregate.d_key.Aggregate.k_object)
      report.Explore.r_races
  in
  Alcotest.(check bool) "the G.data array race is reported" true on_array;
  (* The campaign explored genuinely different interleavings. *)
  Alcotest.(check bool) "several distinct fingerprints" true
    (report.Explore.r_stats.Aggregate.st_distinct_fingerprints > 1)

let test_repro_recipe_reproduces () =
  (* The first-seen spec attached to a deduped race must replay to a
     run that reports the same race. *)
  let report = Explore.run_campaign (pct_spec ()) ~source:needle_source in
  match report.Explore.r_races with
  | [] -> Alcotest.fail "campaign found nothing to reproduce"
  | d :: _ ->
      let spec =
        Strategy.spec (pct_spec ()).Explore.e_strategy ~base:H.Config.full
          ~pct_horizon:10_000 d.Aggregate.d_first_index
      in
      Alcotest.(check int) "recipe seed matches"
        d.Aggregate.d_first_seed spec.Strategy.sp_seed;
      let compiled = H.Pipeline.compile H.Config.full ~source:needle_source in
      let obs = Explore.observe_run compiled spec in
      let replayed_keys =
        List.map (fun s -> s.Aggregate.s_key) obs.Aggregate.o_sightings
      in
      Alcotest.(check bool) "replay reports the same race" true
        (List.mem d.Aggregate.d_key replayed_keys)

let strip_wall (r : Explore.report) =
  (* Everything but the timing fields. *)
  let races =
    List.map
      (fun d ->
        ( d.Aggregate.d_key.Aggregate.k_object,
          d.Aggregate.d_key.Aggregate.k_site_a,
          d.Aggregate.d_key.Aggregate.k_site_b,
          d.Aggregate.d_count,
          d.Aggregate.d_first_index,
          d.Aggregate.d_first_seed,
          d.Aggregate.d_first_repro ))
      r.Explore.r_races
  in
  let s = r.Explore.r_stats in
  ( races,
    List.length r.Explore.r_failures,
    ( s.Aggregate.st_runs,
      s.Aggregate.st_distinct_races,
      s.Aggregate.st_distinct_fingerprints,
      s.Aggregate.st_events,
      s.Aggregate.st_steps,
      s.Aggregate.st_equiv_classes,
      s.Aggregate.st_pruned_runs,
      s.Aggregate.st_discovery ) )

let test_campaign_deterministic () =
  let a = Explore.run_campaign (pct_spec ()) ~source:needle_source in
  let b = Explore.run_campaign (pct_spec ()) ~source:needle_source in
  Alcotest.(check bool) "same spec, same report" true
    (strip_wall a = strip_wall b)

let test_campaign_worker_invariant () =
  (* Deduped reports, first-seen attribution and the discovery curve
     must not depend on how runs landed on workers. *)
  let one = Explore.run_campaign (pct_spec ~workers:1 ()) ~source:needle_source in
  let two = Explore.run_campaign (pct_spec ~workers:2 ()) ~source:needle_source in
  Alcotest.(check bool) "1 worker = 2 workers" true
    (strip_wall one = strip_wall two)

(* The rendered report, minus machine-dependent timing: what must be
   byte-identical whenever two campaigns are equivalent. *)
let report_bytes ~target r =
  ( Explore.report_text ~timing:false ~target r,
    Explore.report_json ~timing:false r )

let benchmark_source name =
  match H.Programs.find name with
  | Some b -> b.H.Programs.b_source
  | None -> Alcotest.failf "%s benchmark missing" name

let test_worker_matrix_bytes () =
  (* The tentpole guarantee of the persistent pool: run indices are a
     pure function of the spec, workers hand rows back in completion
     order, and the fold re-sorts — so the rendered report is
     byte-identical at every worker count.  Every benchmark × both
     strategy families × both equivalence modes × workers {1,2,4}. *)
  let strategies = [ ("sweep", Strategy.Sweep); ("pct", Strategy.Pct 3) ] in
  let equivs = [ ("raw", Explore.Raw); ("hb", Explore.Hb) ] in
  List.iter
    (fun (b : H.Programs.benchmark) ->
      let source = b.H.Programs.b_source in
      let target = "-b " ^ b.H.Programs.b_name in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun (ename, equiv) ->
              let mk workers =
                Explore.spec ~strategy ~workers
                  ~budget:(Explore.runs_budget 6) ~pct_horizon:5_000 ~equiv
                  H.Config.full
              in
              let base =
                report_bytes ~target (Explore.run_campaign (mk 1) ~source)
              in
              List.iter
                (fun w ->
                  Alcotest.(check (pair string string))
                    (Printf.sprintf "%s/%s/%s: %d workers byte-identical"
                       b.H.Programs.b_name sname ename w)
                    base
                    (report_bytes ~target
                       (Explore.run_campaign (mk w) ~source)))
                [ 2; 4 ])
            equivs)
        strategies)
    H.Programs.benchmarks

let test_batch_invariant () =
  (* The work-queue claim granularity is a perf knob, never an output
     knob: any batch size (including one larger than the budget) yields
     the same bytes.  17 runs over 3 workers makes every batch size
     produce ragged last chunks. *)
  let sp = pct_spec ~workers:3 ~runs:17 () in
  let target = "-b needle" in
  let base =
    report_bytes ~target
      (Explore.run_campaign ~batch:1 sp ~source:needle_source)
  in
  List.iter
    (fun b ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "batch %d byte-identical to batch 1" b)
        base
        (report_bytes ~target
           (Explore.run_campaign ~batch:b sp ~source:needle_source)))
    [ 2; 5; 64 ]

let test_pooled_shards_merge_identical () =
  (* Sharding × the pool: each shard drives its slice with its own
     multi-domain pool, and the wire-merged result still reproduces the
     whole campaign byte for byte. *)
  let sp = pct_spec ~workers:3 ~runs:24 () in
  let whole = Explore.run_campaign sp ~source:needle_source in
  let shards = 3 in
  let rows =
    List.concat_map
      (fun i ->
        let r =
          Explore.run_campaign ~shard:(i, shards) sp ~source:needle_source
        in
        List.map
          (fun row ->
            match Explore.row_of_json (Explore.row_to_json row) with
            | Ok row -> row
            | Error m -> Alcotest.failf "wire round-trip: %s" m)
          (Explore.rows_of_report r))
      [ 0; 1; 2 ]
  in
  let merged = Explore.merge sp rows in
  let target = "-b needle" in
  Alcotest.(check (pair string string))
    "pooled shards merge byte-identical"
    (report_bytes ~target whole)
    (report_bytes ~target merged)

let test_campaign_loop_allocation () =
  (* Allocation regression guard for the pool hot loop (the per-run
     work a worker domain repeats): observe a run through a pooled run
     context and serialize its row into a reused scratch buffer,
     exactly as Explore.run_campaign's worker body does.  With the
     resettable context the warm tsp cycle allocates around 47-49k
     minor words (recycled frames, the trie race checks, the report
     row and its sighting strings) instead of the ~150k a fresh-state
     run paid before pooling; pin a ~2x ceiling so a per-run
     allocation regression (a dropped context reuse, per-run taps or
     buffers growing into per-event ones) fails the suite.  Per-domain
     counter, so the measuring loop runs on this domain like pool
     worker 0 does. *)
  let compiled =
    H.Pipeline.compile H.Config.full ~source:(benchmark_source "tsp")
  in
  let ctx = H.Pipeline.Run_ctx.create compiled in
  let rsp =
    Strategy.spec Strategy.Sweep ~base:H.Config.full ~pct_horizon:5_000 0
  in
  let scratch = Buffer.create 1024 in
  let cycle () =
    let o = Explore.observe_run ~ctx compiled rsp in
    Buffer.clear scratch;
    E.Wire.row_to_buffer scratch (Aggregate.Run o);
    Buffer.length scratch
  in
  (* Warm: interned locksets, site tables, context state, buffer. *)
  ignore (cycle ());
  ignore (cycle ());
  let n = 8 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (cycle ())
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf
       "campaign hot loop stays under the allocation ceiling (measured \
        %.0f minor words/run)"
       per_run)
    true
    (per_run < 100_000.0)

let test_plateau_budget_stops_early () =
  (* An adaptive budget: once a long stretch of runs brings no new
     distinct race, the campaign stops instead of burning the rest of
     the run budget — and says so in the stop reason. *)
  let runs = 400 in
  let r =
    Explore.run_campaign (pct_spec ~runs ~plateau:25 ()) ~source:needle_source
  in
  Alcotest.(check bool) "found the race before plateauing" true
    (r.Explore.r_races <> []);
  Alcotest.(check bool) "stopped well short of the budget" true
    (r.Explore.r_stats.Aggregate.st_runs < runs);
  (match r.Explore.r_stats.Aggregate.st_stop with
  | Aggregate.Plateau { p_window = 25; p_at = _ } -> ()
  | s -> Alcotest.failf "stop reason: %s" (Aggregate.describe_stop s));
  (* The cutoff is part of the deterministic fold: same spec, same
     truncated report byte for byte, regardless of how far a wider pool
     overshot the stop point with in-flight batches. *)
  let target = "-b needle" in
  List.iter
    (fun w ->
      let again =
        Explore.run_campaign
          (pct_spec ~workers:w ~runs ~plateau:25 ())
          ~source:needle_source
      in
      Alcotest.(check (pair string string))
        (Printf.sprintf "plateau cutoff byte-identical at %d workers" w)
        (report_bytes ~target r)
        (report_bytes ~target again))
    [ 2; 4 ]

let test_shard_merge_identity () =
  (* The distributed path: N shards, each owning the indices congruent
     to its id, merged back through the wire format, must reproduce the
     single-process report byte for byte (text and JSON). *)
  let check_benchmark name source sp =
    let whole = Explore.run_campaign sp ~source in
    let shards = 4 in
    let rows =
      List.concat_map
        (fun i ->
          let r = Explore.run_campaign ~shard:(i, shards) sp ~source in
          (* ... through the wire: encode each row, decode it back. *)
          List.map
            (fun row ->
              match Explore.row_of_json (Explore.row_to_json row) with
              | Ok row -> row
              | Error m -> Alcotest.failf "%s: wire round-trip: %s" name m)
            (Explore.rows_of_report r))
        [ 0; 1; 2; 3 ]
    in
    let merged = Explore.merge sp rows in
    let target = "-b " ^ name in
    Alcotest.(check string)
      (name ^ ": merged text report is byte-identical")
      (Explore.report_text ~timing:false ~target whole)
      (Explore.report_text ~timing:false ~target merged);
    Alcotest.(check string)
      (name ^ ": merged JSON report is byte-identical")
      (Explore.report_json ~timing:false whole)
      (Explore.report_json ~timing:false merged)
  in
  check_benchmark "needle" needle_source (pct_spec ~runs:24 ());
  let tsp =
    match H.Programs.find "tsp" with
    | Some b -> b.H.Programs.b_source
    | None -> Alcotest.fail "tsp benchmark missing"
  in
  check_benchmark "tsp" tsp
    (Explore.spec ~strategy:Strategy.Jitter ~budget:(Explore.runs_budget 8)
       H.Config.full)

let test_shard_plateau_merge () =
  (* Plateau x sharding: the window is a campaign-wide property, so a
     shard must NOT truncate locally — a shard whose own indices go
     quiet while another shard keeps discovering would otherwise stop
     below the true cutoff and the merged fold would see gaps.  Each
     shard has to emit its complete owned slice, and the merge-time
     fold alone applies the window, reproducing the single-process
     adaptive report byte for byte. *)
  let runs = 400 and shards = 4 in
  let sp = pct_spec ~runs ~plateau:25 () in
  let whole = Explore.run_campaign sp ~source:needle_source in
  (match whole.Explore.r_stats.Aggregate.st_stop with
  | Aggregate.Plateau _ -> ()
  | s ->
      Alcotest.failf "single-process run did not plateau: %s"
        (Aggregate.describe_stop s));
  let rows =
    List.concat_map
      (fun i ->
        let r = Explore.run_campaign ~shard:(i, shards) sp ~source:needle_source in
        let rows = Explore.rows_of_report r in
        (* The full owned slice, not a locally-plateaued prefix. *)
        let owned = (runs - i + shards - 1) / shards in
        Alcotest.(check int)
          (Printf.sprintf "shard %d/%d emits its whole slice" i shards)
          owned (List.length rows);
        rows)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "shards cover the whole index range" []
    (Explore.missing_indices sp rows);
  let merged = Explore.merge sp rows in
  let target = "-b needle" in
  Alcotest.(check string) "merged text == single-process adaptive text"
    (Explore.report_text ~timing:false ~target whole)
    (Explore.report_text ~timing:false ~target merged);
  Alcotest.(check string) "merged JSON == single-process adaptive JSON"
    (Explore.report_json ~timing:false whole)
    (Explore.report_json ~timing:false merged)

let test_hb_pruning_soundness () =
  (* The core guarantee of hb pruning: skipping detector replays for
     runs whose happens-before class was already seen must not change
     the deduped race report.  Every benchmark, under both a
     deterministic sweep and PCT, compared field for field — races,
     first-seen attribution, repro recipes. *)
  let strategies =
    [ ("sweep", Strategy.Sweep); ("pct", Strategy.Pct 3) ]
  in
  List.iter
    (fun (b : H.Programs.benchmark) ->
      List.iter
        (fun (sname, strategy) ->
          let mk equiv =
            Explore.spec ~strategy ~budget:(Explore.runs_budget 8)
              ~pct_horizon:5_000 ~equiv H.Config.full
          in
          let raw =
            Explore.run_campaign (mk Explore.Raw) ~source:b.H.Programs.b_source
          in
          let hb =
            Explore.run_campaign (mk Explore.Hb) ~source:b.H.Programs.b_source
          in
          let what = Printf.sprintf "%s/%s" b.H.Programs.b_name sname in
          let strip (r : Explore.report) =
            (* Everything report-visible except the equiv bookkeeping
               (which legitimately differs between modes) and timing. *)
            let races, failures, stats = strip_wall r in
            let runs, dr, df, ev, st, _classes, _pruned, disc = stats in
            (races, failures, (runs, dr, df, ev, st, disc))
          in
          Alcotest.(check bool)
            (what ^ ": hb report identical to raw")
            true
            (strip raw = strip hb);
          let s = hb.Explore.r_stats in
          Alcotest.(check bool)
            (what ^ ": equiv classes <= distinct fingerprints")
            true
            (s.Aggregate.st_equiv_classes
            <= s.Aggregate.st_distinct_fingerprints))
        strategies)
    H.Programs.benchmarks

let test_hb_shard_merge_identity () =
  (* The distributed path under hb equivalence: shards carry the hb
     fingerprint over the wire, and the merged fold reproduces the
     single-process hb report byte for byte — including the equiv-class
     and pruned-run counts, which therefore cannot depend on which
     process's replay cache happened to see a class first. *)
  let sp = pct_spec ~runs:24 () in
  let sp = { sp with Explore.e_equiv = Explore.Hb } in
  let whole = Explore.run_campaign sp ~source:needle_source in
  Alcotest.(check bool) "the hb campaign actually pruned" true
    (whole.Explore.r_stats.Aggregate.st_pruned_runs > 0);
  let shards = 3 in
  let rows =
    List.concat_map
      (fun i ->
        let r = Explore.run_campaign ~shard:(i, shards) sp ~source:needle_source in
        List.map
          (fun row ->
            match Explore.row_of_json (Explore.row_to_json row) with
            | Ok row -> row
            | Error m -> Alcotest.failf "wire round-trip: %s" m)
          (Explore.rows_of_report r))
      [ 0; 1; 2 ]
  in
  let merged = Explore.merge sp rows in
  let target = "-b needle" in
  Alcotest.(check string) "merged hb text report is byte-identical"
    (Explore.report_text ~timing:false ~target whole)
    (Explore.report_text ~timing:false ~target merged);
  Alcotest.(check string) "merged hb JSON report is byte-identical"
    (Explore.report_json ~timing:false whole)
    (Explore.report_json ~timing:false merged)

let test_equiv_mode_incompatible () =
  (* Shards recorded under different equivalence modes must not merge:
     the spec compatibility check treats e_equiv as load-bearing. *)
  let raw = pct_spec ~runs:8 () in
  let hb = { raw with Explore.e_equiv = Explore.Hb } in
  Alcotest.(check bool) "raw vs hb specs are incompatible" false
    (Explore.compatible raw hb);
  Alcotest.(check bool) "same equiv is compatible" true
    (Explore.compatible hb { hb with Explore.e_workers = 9 })

let test_missing_indices () =
  (* Merge-time completeness: dropping rows from a complete campaign
     must surface exactly the dropped indices. *)
  let sp = pct_spec ~runs:8 () in
  let rows =
    Explore.rows_of_report (Explore.run_campaign sp ~source:needle_source)
  in
  Alcotest.(check (list int)) "complete row set has no gaps" []
    (Explore.missing_indices sp rows);
  let dropped =
    List.filter
      (fun row ->
        let i = Aggregate.row_index row in
        i <> 3 && i <> 5)
      rows
  in
  Alcotest.(check (list int)) "dropped indices are reported in order" [ 3; 5 ]
    (Explore.missing_indices sp dropped)

let test_spec_wire_identity () =
  (* The spec a shard records is the spec merge folds under. *)
  let sp = pct_spec ~runs:12 ~plateau:5 () in
  match Explore.spec_of_json (Explore.spec_to_json ~target:"-b needle" sp) with
  | Error m -> Alcotest.failf "spec round-trip: %s" m
  | Ok sp' ->
      Alcotest.(check bool) "equal_spec" true (Explore.equal_spec sp sp');
      Alcotest.(check bool) "compatible ignores workers" true
        (Explore.compatible sp { sp' with Explore.e_workers = 9 })

let test_jitter_contrast () =
  (* Quantum jitter shuffles slice lengths but keeps the round-robin
     structure, so it does NOT manufacture the mid-burst preemption the
     needle requires — evidence the PCT result above is the scheduler's
     doing, not luck. *)
  let spec =
    {
      (pct_spec ()) with
      Explore.e_strategy = Strategy.Jitter;
    }
  in
  let report = Explore.run_campaign spec ~source:needle_source in
  Alcotest.(check (list string)) "jitter finds nothing on needle" []
    (List.map
       (fun d -> d.Aggregate.d_key.Aggregate.k_object)
       report.Explore.r_races)

let test_crash_isolation () =
  (* A program that dies in some schedules must yield failure rows, not
     a campaign abort, and healthy runs still aggregate. *)
  let source =
    {|
    class T extends Thread {
      void run() { int x = 1 / 0; }
    }
    class Main {
      static void main() {
        T t = new T();
        t.start();
        t.join();
        print("ok", 1);
      }
    }
  |}
  in
  let spec =
    {
      (Explore.default_spec H.Config.full) with
      Explore.e_strategy = Strategy.Sweep;
      e_budget = Explore.runs_budget 4;
    }
  in
  let report = Explore.run_campaign spec ~source in
  Alcotest.(check int) "all runs failed" 4
    report.Explore.r_stats.Aggregate.st_failed;
  Alcotest.(check int) "failure rows recorded" 4
    (List.length report.Explore.r_failures);
  List.iter
    (fun f ->
      Alcotest.(check bool) "failure mentions the error" true
        (contains_sub "divi" f.Aggregate.f_error
        || contains_sub "zero" f.Aggregate.f_error
        || String.length f.Aggregate.f_error > 0))
    report.Explore.r_failures

let suite =
  [
    Alcotest.test_case "default schedule misses needle" `Quick
      test_default_schedule_misses;
    Alcotest.test_case "pct campaign finds needle" `Quick
      test_pct_campaign_finds;
    Alcotest.test_case "repro recipe reproduces" `Quick
      test_repro_recipe_reproduces;
    Alcotest.test_case "campaign deterministic" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "worker-count invariant" `Quick
      test_campaign_worker_invariant;
    Alcotest.test_case "worker matrix byte-identical" `Quick
      test_worker_matrix_bytes;
    Alcotest.test_case "batch size never reaches the report" `Quick
      test_batch_invariant;
    Alcotest.test_case "pooled shards merge byte-identical" `Quick
      test_pooled_shards_merge_identical;
    Alcotest.test_case "campaign hot loop allocation ceiling" `Quick
      test_campaign_loop_allocation;
    Alcotest.test_case "jitter contrast" `Quick test_jitter_contrast;
    Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
    Alcotest.test_case "plateau budget stops early" `Quick
      test_plateau_budget_stops_early;
    Alcotest.test_case "shard+merge is byte-identical" `Quick
      test_shard_merge_identity;
    Alcotest.test_case "shard+plateau merges byte-identical" `Quick
      test_shard_plateau_merge;
    Alcotest.test_case "hb pruning is sound" `Quick test_hb_pruning_soundness;
    Alcotest.test_case "hb shard+merge is byte-identical" `Quick
      test_hb_shard_merge_identity;
    Alcotest.test_case "equiv modes are merge-incompatible" `Quick
      test_equiv_mode_incompatible;
    Alcotest.test_case "missing indices detected" `Quick test_missing_indices;
    Alcotest.test_case "spec wire identity" `Quick test_spec_wire_identity;
  ]
