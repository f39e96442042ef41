(* Tests for the benchmark ports (paper Table 1) and the Table 3
   accuracy claims: which races each configuration reports, per
   benchmark, and the functional correctness of the programs
   themselves. *)

module H = Drd_harness
module Config = H.Config
module Pipeline = H.Pipeline
module Programs = H.Programs
module Explore = Drd_explore.Explore
module Aggregate = Drd_explore.Aggregate

let run_config config source = snd (Pipeline.run_source config source)

let benchmark name =
  match Programs.find name with
  | Some b -> b
  | None -> Alcotest.failf "unknown benchmark %s" name

let objects config name =
  let b = benchmark name in
  (run_config config b.Programs.b_source).Pipeline.racy_objects

let int_print prints tag =
  match List.assoc_opt tag prints with
  | Some (Some (Drd_vm.Value.Vint n)) -> n
  | _ -> Alcotest.failf "missing print %s" tag

let test_thread_counts () =
  (* Table 1's dynamic thread counts: 3, 3, 3, 5, 8. *)
  List.iter
    (fun (name, expected) ->
      let b = benchmark name in
      let r = run_config Config.base b.Programs.b_source in
      Alcotest.(check int) (name ^ " threads") expected r.Pipeline.threads)
    [ ("mtrt", 3); ("tsp", 3); ("sor2", 3); ("elevator", 5); ("hedc", 8) ]

let test_results_independent_of_detection () =
  (* The deterministic outputs must not change when instrumentation and
     detection are enabled (same seed ⇒ same schedule structure for
     synchronized state). *)
  List.iter
    (fun name ->
      let b = benchmark name in
      let base = run_config Config.base b.Programs.b_source in
      let full = run_config Config.full b.Programs.b_source in
      match name with
      | "mtrt" ->
          Alcotest.(check int) "rays" (int_print base.Pipeline.prints "rays")
            (int_print full.Pipeline.prints "rays");
          Alcotest.(check int) "checksum"
            (int_print base.Pipeline.prints "checksum")
            (int_print full.Pipeline.prints "checksum")
      | "tsp" ->
          Alcotest.(check int) "min" (int_print base.Pipeline.prints "min")
            (int_print full.Pipeline.prints "min")
      | "sor2" ->
          Alcotest.(check int) "checksum"
            (int_print base.Pipeline.prints "checksum")
            (int_print full.Pipeline.prints "checksum")
      | "elevator" ->
          Alcotest.(check int) "served" (int_print base.Pipeline.prints "served")
            (int_print full.Pipeline.prints "served")
      | "hedc" ->
          Alcotest.(check int) "done" (int_print base.Pipeline.prints "done")
            (int_print full.Pipeline.prints "done")
      | _ -> ())
    [ "mtrt"; "tsp"; "sor2"; "elevator"; "hedc" ]

let contains_sub sub s = Astring_contains.contains s sub

let test_mtrt_races () =
  (* Exactly the two static-field bugs of the paper. *)
  let objs = objects Config.full "mtrt" in
  Alcotest.(check int) "two racy objects" 2 (List.length objs);
  Alcotest.(check bool) "threadCount" true
    (List.exists (contains_sub "threadCount") objs);
  Alcotest.(check bool) "startOfLine" true
    (List.exists (contains_sub "startOfLine") objs);
  (* Statics of different classes stay distinguished under
     FieldsMerged. *)
  Alcotest.(check int) "FieldsMerged still 2" 2
    (List.length (objects Config.fields_merged "mtrt"));
  (* The join + common-lock statistics idiom must stay quiet. *)
  Alcotest.(check bool) "stats quiet" true
    (not (List.exists (contains_sub "raysTraced") objs))

let test_mtrt_eraser_flags_join_idiom () =
  let eraser = H.Registry.apply H.Registry.eraser Config.full in
  let objs = objects eraser "mtrt" in
  Alcotest.(check bool)
    (Fmt.str "Eraser flags the post-join statistics (%s)"
       (String.concat ", " objs))
    true
    (List.exists (contains_sub "Stats") objs)

let test_tsp_races () =
  let objs = objects Config.full "tsp" in
  Alcotest.(check bool) "MinTourLen found" true
    (List.exists (contains_sub "MinTourLen") objs);
  Alcotest.(check bool) "spurious TourElement reports present" true
    (List.exists (contains_sub "TourElement") objs)

let test_sor2_races_are_barrier_protocol () =
  let objs = objects Config.full "sor2" in
  (* Only boundary row arrays; no fields, no barrier state. *)
  Alcotest.(check bool) "some boundary rows" true (List.length objs >= 1);
  List.iter
    (fun o ->
      Alcotest.(check bool) (o ^ " is an array") true (contains_sub "array" o))
    objs;
  Alcotest.(check bool) "barrier object quiet" true
    (not (List.exists (contains_sub "Barrier") objs))

let test_elevator_race_free () =
  Alcotest.(check (list string)) "elevator Full" []
    (objects Config.full "elevator");
  Alcotest.(check (list string)) "elevator FieldsMerged" []
    (objects Config.fields_merged "elevator")

let test_hedc_races () =
  let objs = objects Config.full "hedc" in
  Alcotest.(check bool) "pool size race" true
    (List.exists (contains_sub "Pool") objs);
  Alcotest.(check bool) "Task.thread_ race" true
    (List.exists (contains_sub "Task") objs);
  (* The LinkedQueue nodes and MetaSearchRequests are per-field quiet. *)
  Alcotest.(check bool) "nodes quiet per-field" true
    (not (List.exists (contains_sub "Node") objs));
  Alcotest.(check bool) "requests quiet per-field" true
    (not (List.exists (contains_sub "MetaSearchRequest") objs))

let test_hedc_fields_merged_superset () =
  let full = objects Config.full "hedc" in
  let merged = objects Config.fields_merged "hedc" in
  Alcotest.(check bool)
    (Fmt.str "FieldsMerged (%d) > Full (%d)" (List.length merged)
       (List.length full))
    true
    (List.length merged > List.length full);
  Alcotest.(check bool) "merged flags the queue nodes" true
    (List.exists (contains_sub "Node") merged)

let test_no_ownership_explodes () =
  (* Table 3, third column: dropping the ownership model floods the
     reports with initialize-then-hand-off false positives. *)
  List.iter
    (fun name ->
      let full = List.length (objects Config.full name) in
      let noown = List.length (objects Config.no_ownership name) in
      Alcotest.(check bool)
        (Fmt.str "%s: NoOwnership (%d) > Full (%d)" name noown full)
        true (noown > full))
    [ "mtrt"; "tsp"; "sor2"; "elevator"; "hedc" ]

let test_table2_configs_agree_on_races () =
  (* Performance configurations must not change what is reported
     (paper Section 7.2's experimental verification), up to the
     schedule perturbation instrumentation causes; we check the stable
     benchmarks. *)
  List.iter
    (fun name ->
      let full = objects Config.full name in
      List.iter
        (fun config ->
          let objs = objects config name in
          Alcotest.(check (list string))
            (Fmt.str "%s: %s = Full" name config.Config.name)
            full objs)
        [ Config.no_dominators; Config.no_peeling; Config.no_cache ])
    [ "mtrt"; "sor2"; "elevator" ]

let test_deterministic_runs () =
  List.iter
    (fun name ->
      let a = objects Config.full name in
      let b = objects Config.full name in
      Alcotest.(check (list string)) (name ^ " deterministic") a b)
    [ "mtrt"; "tsp"; "sor2"; "elevator"; "hedc" ]

let test_seed_sweep_stability () =
  (* The engineered races must be found across schedules. *)
  List.iter
    (fun seed ->
      let config = { Config.full with Config.seed } in
      let mtrt = objects config "mtrt" in
      Alcotest.(check int) (Fmt.str "mtrt seed %d" seed) 2 (List.length mtrt);
      let elevator = objects config "elevator" in
      Alcotest.(check (list string))
        (Fmt.str "elevator seed %d" seed)
        [] elevator;
      let tsp = objects config "tsp" in
      Alcotest.(check bool)
        (Fmt.str "tsp seed %d finds MinTourLen" seed)
        true
        (List.exists (contains_sub "MinTourLen") tsp))
    [ 1; 7; 99 ]

let test_sweep_aggregation () =
  (* The seed sweep (seeds 1, 2, 3): the deterministic mtrt races
     appear in every run; elevator reports nothing in any run. *)
  let sweep name =
    let sp =
      Explore.spec ~strategy:Drd_explore.Strategy.Sweep
        ~budget:(Explore.runs_budget 3)
        { Config.full with Config.seed = 1 }
    in
    Explore.run_campaign sp ~source:(benchmark name).Programs.b_source
  in
  let r = sweep "mtrt" in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.r_failures);
  Alcotest.(check int) "three runs" 3 (List.length r.Explore.r_obs);
  List.iter
    (fun (o : Aggregate.run_obs) ->
      let objects =
        List.map
          (fun s -> s.Aggregate.s_key.Aggregate.k_object)
          o.Aggregate.o_sightings
      in
      List.iter
        (fun obj ->
          Alcotest.(check bool)
            (Printf.sprintf "%s in run %d" obj o.Aggregate.o_index)
            true (List.mem obj objects))
        [ "RayTrace.threadCount"; "ValidityCheckOutputStream.startOfLine" ])
    r.Explore.r_obs;
  Alcotest.(check int) "elevator silent" 0
    (List.length (sweep "elevator").Explore.r_races)

let test_sor_hoisting_claim () =
  (* Section 8.1: sor2 was derived from sor by hoisting subscripts, and
     the hoisting is what makes the dominator/peeling machinery work. *)
  let events config source =
    (snd (Pipeline.run_source config source)).Pipeline.events
  in
  let sor_full = events Config.full (Programs.sor ()) in
  let sor_nodom = events Config.no_dominators (Programs.sor ()) in
  let sor2_full = events Config.full (Programs.sor2 ()) in
  let sor2_nodom = events Config.no_dominators (Programs.sor2 ()) in
  Alcotest.(check bool)
    (Fmt.str "sor gains nothing (%d vs %d)" sor_full sor_nodom)
    true
    (sor_full * 10 > sor_nodom * 9);
  Alcotest.(check bool)
    (Fmt.str "sor2 collapses (%d vs %d)" sor2_full sor2_nodom)
    true
    (sor2_full * 10 < sor2_nodom);
  (* Both compute the same checksum. *)
  let chk source =
    int_print (snd (Pipeline.run_source Config.base source)).Pipeline.prints
      "checksum"
  in
  Alcotest.(check int) "same numerics" (chk (Programs.sor ()))
    (chk (Programs.sor2 ()))

let test_loc_counts () =
  (* Table 1 sanity: every port is a real program, tens to hundreds of
     lines. *)
  List.iter
    (fun (b : Programs.benchmark) ->
      let loc = Programs.loc_of_source b.Programs.b_source in
      Alcotest.(check bool)
        (Fmt.str "%s loc %d" b.Programs.b_name loc)
        true (loc > 40))
    Programs.benchmarks

let suite =
  [
    Alcotest.test_case "thread counts (Table 1)" `Quick test_thread_counts;
    Alcotest.test_case "outputs independent of detection" `Quick
      test_results_independent_of_detection;
    Alcotest.test_case "mtrt races" `Quick test_mtrt_races;
    Alcotest.test_case "mtrt join idiom vs Eraser" `Quick
      test_mtrt_eraser_flags_join_idiom;
    Alcotest.test_case "tsp races" `Quick test_tsp_races;
    Alcotest.test_case "sor2 barrier races" `Quick test_sor2_races_are_barrier_protocol;
    Alcotest.test_case "elevator race-free" `Quick test_elevator_race_free;
    Alcotest.test_case "hedc races" `Quick test_hedc_races;
    Alcotest.test_case "hedc FieldsMerged superset" `Quick
      test_hedc_fields_merged_superset;
    Alcotest.test_case "NoOwnership explodes" `Quick test_no_ownership_explodes;
    Alcotest.test_case "perf configs agree" `Quick test_table2_configs_agree_on_races;
    Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
    Alcotest.test_case "seed sweep" `Quick test_seed_sweep_stability;
    Alcotest.test_case "schedule sweep" `Quick test_sweep_aggregation;
    Alcotest.test_case "sor hoisting claim (8.1)" `Quick test_sor_hoisting_claim;
    Alcotest.test_case "loc counts" `Quick test_loc_counts;
  ]
