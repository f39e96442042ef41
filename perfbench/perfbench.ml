(* perfbench: one workload of the layered benchmark, end to end or
   traced.  Normally started by perfbench/run.py, which builds it:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --racedet PATH

   Prints a human-readable report, then, as its last line, the result
   object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones (no spans are recorded); with
   --trace 1 they are the per-layer ones, and the spans are written to
   .perfbench_out/trace-WORKLOAD-sSEED.jsonl. *)

module W = Util.W
module E = Layers.E

let workloads = [ "explore-tsp"; "explore-sor2-hb"; "serve-mix"; "check-corpus" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --racedet PATH";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, int "seed", seconds, trace, get "racedet")

let run_workload env workload trace =
  let open Workloads in
  match (workload, trace) with
  | "explore-tsp", false -> (explore_e2e env ~workload ~bench:"tsp" ~equiv:E.Raw, None)
  | "explore-sor2-hb", false -> (explore_e2e env ~workload ~bench:"sor2" ~equiv:E.Hb, None)
  | "serve-mix", false -> (serve_e2e env, None)
  | "check-corpus", false -> (corpus_e2e env, None)
  | "explore-tsp", true ->
      let a, s = explore_traced env ~workload ~bench:"tsp" ~equiv:E.Raw in
      (s, Some a)
  | "explore-sor2-hb", true ->
      let a, s = explore_traced env ~workload ~bench:"sor2" ~equiv:E.Hb in
      (s, Some a)
  | "serve-mix", true ->
      let a, s = serve_traced env in
      (s, Some a)
  | _ ->
      let a, s = corpus_traced env in
      (s, Some a)

(* The metric names and units of one mode, from BENCHMARK.json. *)
let metric_names ~trace =
  let fail m = failwith ("BENCHMARK.json: " ^ m) in
  match W.json_of_string (Util.read_file "BENCHMARK.json") with
  | Error m -> fail m
  | Ok j -> (
      match W.member (if trace then "per_layer" else "end_to_end") j with
      | Some (W.List ms) ->
          List.map
            (fun m ->
              match (W.member "name" m, W.member "unit" m) with
              | Some (W.String n), Some (W.String u) -> (n, u)
              | _ -> fail "a metric without name or unit")
            ms
      | _ -> fail "no metric list")

let counters_json () =
  W.Obj (List.rev_map (fun (k, v) -> (k, W.Int v)) !Check.counters)

(* Exact counters must repeat across processes too: the first run at a
   seed (for these sources) leaves its counters behind, later runs
   compare against them. *)
let compare_persisted ~workload ~seed ~trace ~digest =
  let path =
    Util.out_path
      (Printf.sprintf "counters-%s-s%d-t%d-%s.json" workload seed (Bool.to_int trace)
         (String.sub digest 0 12))
  in
  let now = W.json_to_string (counters_json ()) in
  match Util.read_file path with
  | exception Sys_error _ -> Util.write_file path now
  | before when before = now -> ()
  | before -> (
      match W.json_of_string before with
      | Ok (W.Obj kv) ->
          Check.same_counters "counters of an earlier run at this seed"
            (List.filter_map (fun (k, v) -> match v with W.Int n -> Some (k, n) | _ -> None) kv)
            (List.rev !Check.counters)
      | _ -> Check.problem "unreadable counters file %s" path)

let print_attribution (a : Workloads.attribution) =
  Printf.printf "attribution (ms per %s; untraced cost %.4f ms per %s):\n" a.Workloads.a_unit
    a.Workloads.a_untraced_ms a.Workloads.a_unit;
  List.iter
    (fun (layer, v) ->
      Printf.printf "  %-9s %10.4f  %6.1f%%\n" layer v
        (100. *. Util.ratio v a.Workloads.a_untraced_ms))
    a.Workloads.a_rows

let attribution_json (a : Workloads.attribution) =
  W.Obj
    [
      ("unit", W.String a.Workloads.a_unit);
      ("untraced_ms", Util.jfloat a.Workloads.a_untraced_ms);
      ("rows", W.Obj (List.map (fun (l, v) -> (l, Util.jfloat v)) a.Workloads.a_rows));
    ]

let () =
  let workload, seed, seconds, trace, racedet = args () in
  let names = metric_names ~trace in
  Util.ensure_out_dir ();
  let host = Host.facts () in
  let digest = match W.member "source_digest" host with Some (W.String d) -> d | _ -> "" in
  Span.enabled := trace;
  let env = { Workloads.seed; seconds; racedet } in
  let summary, attribution =
    try run_workload env workload trace
    with e ->
      Util.log "%s failed: %s" workload (Printexc.to_string e);
      exit 1
  in
  Span.enabled := false;
  compare_persisted ~workload ~seed ~trace ~digest;
  let metrics =
    List.map
      (fun (name, unit) ->
        match Check.get name with
        | Some v when Float.is_finite v -> (name, v, unit)
        | None when trace && Workloads.off_path workload name -> (name, 0., unit)
        | _ ->
            Check.problem "metric %s was not measured" name;
            (name, 0., unit))
      names
  in
  let failed_frac = Util.ratioi !Check.failed !Check.attempted in
  Printf.printf "perfbench %s  seed %d  %s  %.0f s\n" workload seed
    (if trace then "traced" else "end to end") seconds;
  Printf.printf "host %s\n" (W.json_to_string host);
  Printf.printf "%s\n" summary;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %16.6g %s\n" name v unit) metrics;
  if workload = "check-corpus" && not trace then
    Printf.printf "  %-32s %16.6g 1/s\n" "programs_per_s" (Option.get (Check.get "runs_per_s"));
  Printf.printf "  %-32s %16.6g (%d of %d)\n" "failed_frac" failed_frac !Check.failed
    !Check.attempted;
  Option.iter print_attribution attribution;
  Printf.printf "exact counters %s\n" (W.json_to_string (counters_json ()));
  if trace then Span.write (Util.out_path (Printf.sprintf "trace-%s-s%d.jsonl" workload seed));
  let correct = !Check.problems = [] in
  let metrics_json =
    W.Obj
      (List.map
         (fun (name, v, unit) -> (name, W.Obj [ ("value", Util.jfloat v); ("unit", W.String unit) ]))
         metrics)
  in
  Util.write_file
    (Util.out_path (Printf.sprintf "result-%s-s%d-t%d.json" workload seed (Bool.to_int trace)))
    (W.json_to_string
       (W.Obj
          [
            ("workload", W.String workload);
            ("seed", W.Int seed);
            ("seconds", Util.jfloat seconds);
            ("trace", W.Bool trace);
            ("host", host);
            ("summary", W.String summary);
            ("failed_frac", Util.jfloat failed_frac);
            ("metrics", metrics_json);
            ("counters", counters_json ());
            ( "attribution",
              match attribution with Some a -> attribution_json a | None -> W.Null );
            ("problems", W.List (List.rev_map (fun p -> W.String p) !Check.problems));
          ]));
  print_endline
    (W.json_to_string
       (W.Obj
          [
            ("correct", W.Bool correct);
            ("attempted", W.Int !Check.attempted);
            ("failed", W.Int !Check.failed);
            ("metrics", metrics_json);
          ]))
