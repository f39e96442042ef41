(* The pooled run-context contract (Pipeline.Run_ctx): a run through a
   reused, reset-in-place context must be byte-identical to the same
   run on fresh state — for every benchmark, engine, strategy family
   and equivalence mode — and an aborted run must leak nothing into the
   next run on the same context. *)

module H = Drd_harness
module E = Drd_explore
module Explore = E.Explore
module Strategy = E.Strategy
module I = Drd_vm.Interp

let benchmark_source name =
  match H.Programs.find name with
  | Some b -> b.H.Programs.b_source
  | None -> Alcotest.failf "%s benchmark missing" name

(* Everything report-visible about one run, serialized: races and
   objects, event/step/thread counts, prints, deadlocks, detector and
   immutability statistics.  Two runs with equal summaries consumed the
   same schedule and produced the same reports. *)
let summarize (r : H.Pipeline.result) =
  let b = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "races:%s\n" (String.concat ";" r.H.Pipeline.races);
  pr "objects:%s\n" (String.concat ";" r.H.Pipeline.racy_objects);
  pr "events:%d spec:%d steps:%d threads:%d\n" r.H.Pipeline.events
    r.H.Pipeline.spec_events r.H.Pipeline.steps r.H.Pipeline.threads;
  List.iter
    (fun (tag, v) ->
      pr "print:%s=%s\n" tag
        (match v with
        | Some v -> Fmt.str "%a" Drd_vm.Value.pp v
        | None -> "()"))
    r.H.Pipeline.prints;
  List.iter
    (fun (d : Drd_core.Lock_order.report) ->
      pr "deadlock:%s/%s\n"
        (String.concat "," (List.map string_of_int d.Drd_core.Lock_order.dl_locks))
        (String.concat ","
           (List.map string_of_int d.Drd_core.Lock_order.dl_threads)))
    r.H.Pipeline.deadlocks;
  (match r.H.Pipeline.detector_stats with
  | Some s -> pr "stats:%s\n" (Fmt.str "%a" Drd_core.Detector.pp_stats s)
  | None -> pr "stats:none\n");
  (match r.H.Pipeline.immutability with
  | Some s ->
      pr "immut:%d/%d/%d\n" s.Drd_core.Immutability.thread_local
        s.Drd_core.Immutability.shared_immutable
        s.Drd_core.Immutability.shared_mutable
  | None -> pr "immut:none\n");
  Buffer.contents b

let vm_for ?(policy = I.Random_walk) seed =
  { (H.Pipeline.vm_config_of H.Config.full) with I.seed; quantum = 7; policy }

let test_pipeline_matrix () =
  (* Every benchmark × engine: a seed sweep through ONE reused context
     equals the same sweep with a fresh context per run, under both
     scheduling policies (PCT runs start from the context's pooled
     priority array).  The [`Ref] engine runs the frozen block
     interpreter but still pools the detector-side state, so it
     participates on the small benchmarks. *)
  let runs =
    List.concat_map
      (fun seed ->
        [
          ("random", I.Random_walk, seed);
          ("pct", I.Pct { depth = 3; horizon = 5_000 }, seed);
        ])
      [ 0; 1; 2 ]
  in
  List.iter
    (fun (b : H.Programs.benchmark) ->
      let compiled =
        H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source
      in
      let ctx = H.Pipeline.Run_ctx.create compiled in
      let engines =
        if b.H.Programs.b_name = "tsp" || b.H.Programs.b_name = "needle" then
          [ ("spec", `Spec); ("linked", `Linked); ("ref", `Ref) ]
        else [ ("spec", `Spec); ("linked", `Linked) ]
      in
      List.iter
        (fun (ename, engine) ->
          List.iter
            (fun (pname, policy, seed) ->
              let vm = vm_for ~policy seed in
              let fresh =
                summarize (H.Pipeline.run ~vm ~engine compiled)
              in
              let reused =
                summarize (H.Pipeline.run ~ctx ~vm ~engine compiled)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s seed %d: reused ctx byte-identical"
                   b.H.Programs.b_name ename pname seed)
                fresh reused)
            runs)
        engines)
    H.Programs.benchmarks

let report_bytes ~target r =
  ( Explore.report_text ~timing:false ~target r,
    Explore.report_json ~timing:false r )

let test_campaign_matrix () =
  (* Campaign level: the worker pool holding one context per domain for
     the whole campaign ([reuse_ctx], the default) renders the same
     report as fresh per-run state, across both strategy families, both
     equivalence modes and 1 vs 2 workers. *)
  let strategies = [ ("sweep", Strategy.Sweep); ("pct", Strategy.Pct 3) ] in
  let equivs = [ ("raw", Explore.Raw); ("hb", Explore.Hb) ] in
  List.iter
    (fun name ->
      let source = benchmark_source name in
      let target = "-b " ^ name in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun (ename, equiv) ->
              List.iter
                (fun workers ->
                  let sp =
                    Explore.spec ~strategy ~workers
                      ~budget:(Explore.runs_budget 6) ~pct_horizon:5_000
                      ~equiv H.Config.full
                  in
                  Alcotest.(check (pair string string))
                    (Printf.sprintf "%s/%s/%s/%dw: ctx reuse byte-identical"
                       name sname ename workers)
                    (report_bytes ~target
                       (Explore.run_campaign ~reuse_ctx:false sp ~source))
                    (report_bytes ~target
                       (Explore.run_campaign ~reuse_ctx:true sp ~source)))
                [ 1; 2 ])
            equivs)
        strategies)
    [ "tsp"; "needle" ]

(* A schedule-dependent crash: User dereferences G.data, which Setter
   publishes late, so some seeds die with a NullPointerException and
   others complete.  Exercises the aborted-run guarantee. *)
let crashy_source =
  {|
  class G {
    static int[] data;
  }
  class Setter extends Thread {
    void run() {
      int x = 0;
      for (int i = 0; i < 6; i = i + 1) { x = x + i; }
      G.data = new int[4];
      G.data[0] = x;
    }
  }
  class User extends Thread {
    void run() {
      int y = 0;
      for (int i = 0; i < 6; i = i + 1) { y = y + i; }
      G.data[1] = 7 + y;
    }
  }
  class Main {
    static void main() {
      Setter s = new Setter();
      User u = new User();
      s.start();
      u.start();
      s.join();
      u.join();
      print(G.data[0]);
    }
  }
  |}

let outcome ?ctx compiled seed =
  match H.Pipeline.run ?ctx ~vm:(vm_for seed) compiled with
  | r -> Ok (summarize r)
  | exception I.Runtime_error msg -> Error msg

(* Shared-context environment for the abort property, built once on
   first use: the compiled program, ONE long-lived context, and a seed
   known to abort (the scan also proves completing seeds exist, so the
   property covers both outcome kinds). *)
let crash_env =
  lazy
    (let compiled = H.Pipeline.compile H.Config.full ~source:crashy_source in
     let ctx = H.Pipeline.Run_ctx.create compiled in
     let aborting = ref None and completing = ref None in
     for seed = 0 to 199 do
       match outcome compiled seed with
       | Ok _ -> if !completing = None then completing := Some seed
       | Error _ -> if !aborting = None then aborting := Some seed
     done;
     let aborting =
       match !aborting with
       | Some s -> s
       | None -> Alcotest.fail "no seed in 0..199 aborts the crashy program"
     in
     (match !completing with
     | Some _ -> ()
     | None -> Alcotest.fail "no seed in 0..199 completes the crashy program");
     (compiled, ctx, aborting))

(* QCheck property: for any seed, running on a context that just
   aborted (and on which many earlier runs happened) gives the same
   outcome — same summary or same error — as untouched fresh state. *)
let prop_aborted_run_no_bleed =
  QCheck.Test.make ~count:100 ~name:"aborted run leaves no state behind"
    QCheck.(int_range 0 9_999)
    (fun seed ->
      let compiled, ctx, aborting = Lazy.force crash_env in
      (* Poison the shared context with an aborted run, then compare
         the next run on it against fresh state. *)
      (match outcome ~ctx compiled aborting with
      | Error _ -> ()
      | Ok _ -> QCheck.Test.fail_reportf "seed %d stopped aborting" aborting);
      let on_shared = outcome ~ctx compiled seed in
      let on_fresh = outcome compiled seed in
      if on_shared <> on_fresh then
        QCheck.Test.fail_reportf
          "seed %d diverges after an aborted run on the shared context" seed;
      true)

let test_vm_allocation_ceiling () =
  (* The VM keeps every value in a plain-int slot, so a warm run on a
     reused context allocates little beyond frames, thread records and
     the events' bookkeeping.  Pin each benchmark at about twice what it
     measured (minor words per run, default size, detector off: sor2
     7.6k, mtrt 5.6k, hedc 2.8k) so that boxed values cannot creep back
     in: boxed [Value.t] slots make the same runs allocate 55k, 38k and
     17k words. *)
  List.iter
    (fun (name, ceiling) ->
      let compiled =
        H.Pipeline.compile H.Config.full ~source:(benchmark_source name)
      in
      let ctx = H.Pipeline.Run_ctx.create compiled in
      let run () = ignore (H.Pipeline.run ~ctx ~detect:false compiled) in
      run ();
      run ();
      let n = 8 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        run ()
      done;
      let per_run = (Gc.minor_words () -. before) /. float_of_int n in
      if per_run > ceiling then
        Alcotest.failf "%s: %.0f minor words per warm run, ceiling %.0f" name
          per_run ceiling)
    [ ("sor2", 16_000.); ("mtrt", 12_000.); ("hedc", 6_000.) ]

let suite =
  [
    Alcotest.test_case "pipeline fresh vs reused matrix" `Quick
      test_pipeline_matrix;
    Alcotest.test_case "campaign fresh vs reused matrix" `Quick
      test_campaign_matrix;
    QCheck_alcotest.to_alcotest prop_aborted_run_no_bleed;
    Alcotest.test_case "warm VM runs stay under the allocation ceiling" `Quick
      test_vm_allocation_ceiling;
  ]
