(* The four workloads, each in two modes: the end-to-end run (no spans,
   the user-visible metrics) and the traced run (spans around every
   layer call, the per-layer metrics and the attribution table). *)

module P = Layers.P
module C = Layers.C
module E = Layers.E
module Strategy = Layers.Strategy
module Aggregate = Layers.Aggregate
module SC = Serve_client
module Gen = Drd_arena.Gen

type env = {
  seed : int;
  seconds : float;
  racedet : string; (* the racedet executable, for the daemon and references *)
}

let ms = Layers.ms
let socket_path () = Util.out_path (Printf.sprintf "s%d.sock" (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* Attribution: the untraced cost of one unit of work split over the
   layers' self times, plus whatever no layer accounts for. *)

let layer_names =
  [ "lang"; "static"; "instr"; "ir"; "harness"; "vm"; "core"; "explore"; "serve" ]

let layer_of name = String.sub name 0 (String.index name '.')

(* Per-layer metrics of layers a workload's path never calls.  The
   traced result must name every per-layer metric on every workload, so
   these read 0: the workload spends nothing in them. *)
let off_path workload name =
  let prefixes =
    match workload with
    | "serve-mix" ->
        [ "lang."; "static."; "instr."; "ir."; "harness."; "vm."; "explore.";
          "core.detect_ms"; "core.detect_overhead_frac"; "core.fast_drop_frac" ]
    | "check-corpus" -> [ "explore."; "serve."; "core.replay_ns_per_event"; "core.evictions" ]
    | _ -> [ "serve."; "core.replay_ns_per_event"; "core.evictions" ]
  in
  List.exists (fun prefix -> String.starts_with ~prefix name) prefixes

type attribution = { a_unit : string; a_untraced_ms : float; a_rows : (string * float) list }

(* [rows] are (layer, ms per unit); several rows may share a layer. *)
let attribution ~unit ~untraced_ms rows =
  let per_layer =
    List.map
      (fun l ->
        (l, Util.sum (List.filter_map (fun (l', v) -> if l' = l then Some v else None) rows)))
      layer_names
  in
  let residual = untraced_ms -. Util.sum (List.map snd per_layer) in
  Check.set "attrib.residual_frac" (Util.ratio residual untraced_ms);
  { a_unit = unit; a_untraced_ms = untraced_ms; a_rows = per_layer @ [ ("residual", residual) ] }

(* Compile phases as attribution rows, scaled to one unit of work. *)
let compile_rows ~scale =
  let phases = List.map (fun ph -> (layer_of ph, scale *. Span.mean_ms ph)) Layers.phases in
  let residual = match Check.get "harness.compile_residual_ms" with Some v -> v | None -> 0. in
  phases @ [ ("harness", scale *. residual) ]

(* Tracing overhead: the same calls with spans off and on, alternated;
   the spans the measurement records are dropped again. *)
let trace_overhead f =
  let mark = Span.mark () in
  let off = ref 0. and on = ref 0. in
  for _ = 1 to 3 do
    Span.enabled := false;
    off := !off +. snd (Util.time f);
    Span.enabled := true;
    on := !on +. snd (Util.time f)
  done;
  Span.truncate mark;
  Check.set "attrib.trace_overhead_frac" (Util.ratio (!on -. !off) !off)

(* Nearest-rank latency percentiles of [lat], in ms.  Returns a note of
   the sample count and how many samples lie beyond p99. *)
let set_latencies lat =
  Check.set "session_p50_ms" (Util.percentile 50. lat);
  Check.set "session_p99_ms" (Util.percentile 99. lat);
  let n = List.length lat in
  Printf.sprintf "%d latencies, %d beyond p99" n
    (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* explore-tsp and explore-sor2-hb *)

let campaign_runs = 200

let explore_spec ~equiv ~seed =
  E.spec ~strategy:(Strategy.Pct 3) ~workers:1
    ~budget:(E.runs_budget campaign_runs) ~pct_horizon:20_000 ~equiv
    { C.full with C.seed }

let report_digest ~target r =
  Digest.to_hex (Digest.string (E.report_text ~timing:false ~target r))

(* The expected deduped report: a digest checked in with the benchmark
   (made with `racedet explore ... --no-timing`), or, for a seed it has
   none for, the same campaign on fresh per-run state (no context reuse,
   one run per claim) -- not the path being timed. *)
let expected_digest ~workload ~seed ~target spec ~source =
  match Refs.explore ~workload ~seed with
  | Some d -> d
  | None ->
      Util.log "no checked-in reference for seed %d: using a fresh-state campaign" seed;
      report_digest ~target (E.run_campaign ~reuse_ctx:false ~batch:1 spec ~source)

let campaign_counters (r : E.report) =
  let st = r.E.r_stats in
  [
    ("campaign.runs", st.Aggregate.st_runs);
    ("campaign.steps", st.Aggregate.st_steps);
    ("campaign.events", st.Aggregate.st_events);
    ("campaign.distinct_races", st.Aggregate.st_distinct_races);
    ("campaign.distinct_fingerprints", st.Aggregate.st_distinct_fingerprints);
    ("explore.equiv_classes", st.Aggregate.st_equiv_classes);
    ("explore.pruned_runs", st.Aggregate.st_pruned_runs);
  ]

(* Check one campaign: its report against the reference, no failure
   rows, and counters equal to the first campaign's. *)
let check_campaign ~expected ~target ~first (r : E.report) =
  let runs = List.length r.E.r_obs in
  let nfail = List.length r.E.r_failures in
  let same = report_digest ~target r = expected in
  if not same then Check.problem "campaign report differs from the reference";
  if nfail > 0 then Check.problem "campaign has %d failure rows" nfail;
  Check.ops ~attempted:(runs + nfail) ~failed:(if same then nfail else runs + nfail);
  let counters = campaign_counters r in
  (match first with
  | None -> List.iter (fun (k, v) -> Check.counter k v) counters
  | Some f -> Check.same_counters "campaign counters" f counters);
  counters

let explore_e2e env ~workload ~bench ~equiv =
  let source = SC.benchmark_source bench and target = "-b " ^ bench in
  let spec = explore_spec ~equiv ~seed:env.seed in
  let make_ctx () = ignore (P.Run_ctx.create (P.compile spec.E.e_config ~source)) in
  let setup_samples = ref (List.init 5 (fun _ -> snd (Util.time make_ctx))) in
  let expected = expected_digest ~workload ~seed:env.seed ~target spec ~source in
  let deadline = Util.now () +. env.seconds in
  (* Each campaign is checked as soon as it ends and only its figures
     are kept, so the process's memory is that of one campaign.  Set-up
     is sampled before every campaign as well, so its median covers the
     same stretch of machine time as the throughput. *)
  let first = ref None and campaigns = ref [] and walls = ref [] in
  while !campaigns = [] || Util.now () < deadline do
    for _ = 1 to 3 do
      setup_samples := snd (Util.time make_ctx) :: !setup_samples
    done;
    let r = E.run_campaign spec ~source in
    let counters = check_campaign ~expected ~target ~first:!first r in
    if !first = None then first := Some counters;
    let st = r.E.r_stats in
    List.iter (fun o -> walls := ms o.Aggregate.o_wall :: !walls) r.E.r_obs;
    campaigns := (st.Aggregate.st_runs, st.Aggregate.st_events, r.E.r_wall) :: !campaigns
  done;
  let setup = Util.median !setup_samples in
  (* Campaign wall time after set-up: each campaign compiles its program
     and makes its run context once, which [setup_s] reports. *)
  let rates f =
    List.rev_map (fun (n, e, w) -> float_of_int (f n e) /. Float.max 1e-6 (w -. setup))
      !campaigns
  in
  let runs_rates = rates (fun n _ -> n) in
  Check.set "runs_per_s" (Util.median runs_rates);
  Check.set "events_per_s" (Util.median (rates (fun _ e -> e)));
  let lat_note = set_latencies !walls in
  Check.set "setup_s" setup;
  Check.set "peak_rss_mb" (Util.peak_rss_mb 0);
  Printf.sprintf "%d campaigns of %d runs; %s; runs/s per campaign: %s"
    (List.length !campaigns) campaign_runs lat_note
    (String.concat " " (List.map (Printf.sprintf "%.1f") runs_rates))

let explore_traced env ~workload ~bench ~equiv =
  let source = SC.benchmark_source bench and target = "-b " ^ bench in
  let spec = explore_spec ~equiv ~seed:env.seed in
  let hb_path = equiv = E.Hb in
  let expected = expected_digest ~workload ~seed:env.seed ~target spec ~source in
  (* Untraced cost per run, on the path the end-to-end run times: whole
     campaigns with spans off, one before the traced runs and one after
     every quarter of them, so both see the same stretch of machine
     time. *)
  let first = ref None and untraced = ref [] and classes = ref 0 in
  let untraced_campaign () =
    Span.enabled := false;
    let r = E.run_campaign spec ~source in
    Span.enabled := true;
    let counters = check_campaign ~expected ~target ~first:!first r in
    if !first = None then first := Some counters;
    classes := r.E.r_stats.Aggregate.st_equiv_classes;
    untraced := (ms r.E.r_wall /. float_of_int campaign_runs) :: !untraced
  in
  untraced_campaign ();
  let cs = Layers.compile_probe ~reps:5 spec.E.e_config [ (0, source) ] in
  Layers.compile_metrics cs;
  let c = P.compile spec.E.e_config ~source in
  for _ = 1 to 5 do
    ignore (Span.with_ ~unit:0 "harness.run_ctx" (fun () -> P.Run_ctx.create c))
  done;
  (* Every run of the campaign, so the traced runs are the very runs the
     untraced cost was measured on. *)
  Layers.run_probe ~between:untraced_campaign ~hb_path ~runs:campaign_runs spec c;
  untraced_campaign ();
  let untraced_ms = Util.mean !untraced in
  Layers.publish_run_counters [ (c, Layers.run_specs spec campaign_runs) ];
  (* The counted runs must be the campaign's own. *)
  let counter k = List.assoc_opt k !Check.counters in
  if counter "vm.steps" <> counter "campaign.steps" || counter "vm.events" <> counter "campaign.events"
  then Check.problem "counted runs differ from the campaign's in steps or events";
  (* Per run: compile and context creation once per campaign; then the
     VM, the detector (hb: only for runs of a new class, each of which
     runs the VM a second time), the taps, observation bookkeeping and
     the wire rows the campaign folds. *)
  let g k = Option.value (Check.get k) ~default:0. in
  let per_campaign = 1. /. float_of_int campaign_runs in
  let replayed = if hb_path then float_of_int !classes *. per_campaign else 1. in
  let taps =
    if hb_path then Span.mean_ms Layers.s_hbobs -. g "vm.run_ms"
    else g "explore.fp_tap_ms" +. g "explore.observe_self_ms"
  in
  let rows =
    compile_rows ~scale:per_campaign
    @ [
        ("harness", per_campaign *. Span.mean_ms "harness.run_ctx");
        ("vm", g "vm.run_ms" *. (if hb_path then 1. +. replayed else 1.));
        ("core", g "core.detect_ms" *. replayed);
        ("explore", taps);
        ("explore", (g "explore.wire_encode_us" +. g "explore.wire_decode_us") /. 1000.);
        ("explore", g "explore.fold_ms" *. per_campaign);
      ]
  in
  let a = attribution ~unit:"run" ~untraced_ms rows in
  let ctx = P.Run_ctx.create c in
  let specs = Layers.run_specs spec 10 in
  trace_overhead (fun () ->
      List.iter (fun rsp -> ignore (Layers.time_run ~ctx ~hb_path c rsp)) specs);
  (a, Printf.sprintf "%d traced runs" campaign_runs)

(* ------------------------------------------------------------------ *)
(* serve-mix *)

(* Each connection draws its sessions in blocks of eight: the six
   recorded logs once each and two churn sessions, in a seeded order,
   so every seed has the same mix and a different sequence. *)
let session_stream ~seed ~conn ~logs ~churns =
  let st = Random.State.make [| seed; conn; 0x5e |] in
  let nchurn = Array.length churns in
  let block () =
    let b =
      Array.append logs
        [| churns.(Random.State.int st nchurn); churns.(Random.State.int st nchurn) |]
    in
    for i = Array.length b - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = b.(i) in
      b.(i) <- b.(j);
      b.(j) <- t
    done;
    Array.to_list b
  in
  let pending = ref [] in
  fun () ->
    (match !pending with [] -> pending := block () | _ -> ());
    match !pending with
    | p :: rest ->
        pending := rest;
        p
    | [] -> assert false

(* The six recorded logs (as payloads and as logs) and sixteen churn
   sessions drawn from the seed. *)
let serve_inputs env =
  let recorded =
    List.map
      (fun name -> SC.recorded_log ~racedet:env.racedet ~name ~source:(SC.benchmark_source name))
      SC.log_benchmarks
  in
  let churns = Array.init 16 (fun index -> SC.churn ~seed:env.seed ~index) in
  (Array.of_list (List.map fst recorded), List.map snd recorded, churns)

type sample = { s_done : float; s_latency : float; s_events : int; s_ok : bool }

(* One closed-loop client connection: the next session starts when the
   previous report arrives, until the deadline. *)
let client ~path ~deadline next conn =
  let out = ref [] in
  let c = ref (Option.get (SC.connect path)) in
  let i = ref 0 in
  while Util.now () < deadline do
    let p = next () in
    let id = Printf.sprintf "c%d-%d" conn !i in
    incr i;
    match SC.session !c ~id p with
    | o ->
        out :=
          { s_done = Util.now (); s_latency = o.SC.o_latency; s_events = p.SC.p_events;
            s_ok = o.SC.o_ok }
          :: !out
    | exception _ ->
        out := { s_done = Util.now (); s_latency = nan; s_events = 0; s_ok = false } :: !out;
        SC.disconnect !c;
        c := Option.get (SC.connect path)
  done;
  SC.disconnect !c;
  !out

let serve_e2e env =
  let logs, _, churns = serve_inputs env in
  let path = socket_path () in
  (* Start the daemon several times for a steady set-up time; the last
     one serves the load. *)
  let rec starts n acc =
    let d, t = SC.start ~racedet:env.racedet ~path in
    if n = 1 then (d, List.rev (t :: acc))
    else begin
      SC.stop d;
      starts (n - 1) (t :: acc)
    end
  in
  let daemon, setups = starts 15 [] in
  let t0 = Util.now () in
  let deadline = t0 +. env.seconds in
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun conn ->
        let next = session_stream ~seed:env.seed ~conn ~logs ~churns in
        Thread.create
          (fun () ->
            try results.(conn) <- client ~path ~deadline next conn
            with e -> Check.problem "connection %d: %s" conn (Printexc.to_string e))
          ())
  in
  List.iter Thread.join threads;
  let t1 = Util.now () in
  let rss = Util.peak_rss_mb daemon.SC.pid in
  SC.stop daemon;
  let samples = results.(0) @ results.(1) in
  let ok = List.filter (fun s -> s.s_ok) samples in
  Check.ops ~attempted:(List.length samples) ~failed:(List.length samples - List.length ok);
  let wall = t1 -. t0 in
  let lat = List.map (fun s -> ms s.s_latency) ok in
  let lat_note = set_latencies lat in
  Check.set "runs_per_s" (float_of_int (List.length ok) /. wall);
  Check.set "events_per_s" (float_of_int (Util.sumi (List.map (fun s -> s.s_events) ok)) /. wall);
  Check.set "setup_s" (Util.median setups);
  Check.set "peak_rss_mb" rss;
  Printf.sprintf "%d sessions over 2 connections; %s" (List.length samples) lat_note

let serve_traced env =
  let logs, recorded, churns = serve_inputs env in
  Layers.replay_probe ~min_seconds:0.3 recorded;
  (* The session mix itself: in process and over the socket, untraced
     then traced, session by session. *)
  let next = session_stream ~seed:env.seed ~conn:0 ~logs ~churns in
  let payloads = List.init 96 (fun _ -> next ()) in
  Layers.publish_session_funnel payloads;
  let from = Span.mark () in
  let samples = Layers.serve_probe ~racedet:env.racedet ~path:(socket_path ()) payloads in
  let n = float_of_int (List.length samples) in
  let per_session f = ms (Util.sum (List.map f samples)) /. n in
  let decode = ms (Span.total ~from "serve.decode") /. n in
  let feed = per_session (fun s -> s.Layers.sv_feed) in
  let close = per_session (fun s -> s.Layers.sv_close) in
  let latency = per_session (fun s -> s.Layers.sv_latency) in
  let rows =
    [ ("serve", decode); ("core", feed -. decode); ("serve", close);
      ("serve", latency -. feed -. close) ]
  in
  let untraced_ms = per_session (fun s -> s.Layers.sv_untraced) in
  let a = attribution ~unit:"session" ~untraced_ms rows in
  Check.set "attrib.trace_overhead_frac" (Util.ratio (latency -. untraced_ms) untraced_ms);
  (a, Printf.sprintf "%d traced sessions" (List.length samples))

(* ------------------------------------------------------------------ *)
(* check-corpus *)

let corpus_size = 1000

type program = { pg_source : string; pg_guaranteed : Gen.cell list }

let corpus ~seed =
  Gen.generate ~seed ~count:corpus_size ()
  |> List.map (fun sp ->
         {
           pg_source = Gen.emit sp;
           pg_guaranteed = List.filter (fun c -> c.Gen.c_racy && c.Gen.c_guaranteed) (Gen.truth sp);
         })
  |> Array.of_list

(* Every guaranteed ground-truth race must be among the reported ones
   (the arena's --fail-on-miss gate). *)
let check_program i pg (r : P.result) =
  match List.filter (fun c -> not (List.exists (Gen.cell_matches c) r.P.races)) pg.pg_guaranteed with
  | [] -> true
  | missed ->
      Check.problem "corpus program %d: missed guaranteed race on %s" i
        (String.concat ", " (List.map (fun c -> c.Gen.c_marker) missed));
      false

(* Compile under Full and run once, as `racedet run FILE` does. *)
let run_program i pg =
  match
    let c = P.compile C.full ~source:pg.pg_source in
    P.run c
  with
  | r -> Some r
  | exception e ->
      Check.problem "corpus program %d: %s" i (Printexc.to_string e);
      None

let corpus_e2e env =
  let setup_samples = ref (List.init 3 (fun _ -> snd (Util.time (fun () -> corpus ~seed:env.seed)))) in
  let progs = corpus ~seed:env.seed in
  let n = Array.length progs in
  let first = Array.make n None in
  let lat = Array.make n [] and events = ref 0 and done_ = ref 0 and in_setup = ref 0. in
  let t0 = Util.now () in
  let deadline = t0 +. env.seconds in
  let i = ref 0 in
  while !i < n || Util.now () < deadline do
    let k = !i mod n in
    (* Set-up is sampled again before every pass over the corpus, so its
       median covers the same stretch of machine time as the throughput. *)
    if k = 0 && !i > 0 then begin
      let t = snd (Util.time (fun () -> corpus ~seed:env.seed)) in
      setup_samples := t :: !setup_samples;
      in_setup := !in_setup +. t
    end;
    let pg = progs.(k) in
    let ok, dt =
      Util.time (fun () ->
          match run_program k pg with
          | None -> false
          | Some r ->
              let ok = check_program k pg r in
              let counts = (r.P.steps, r.P.events, List.length r.P.races) in
              (match first.(k) with
              | None -> first.(k) <- Some counts
              | Some c when c = counts -> ()
              | Some _ -> Check.problem "corpus program %d: counts differ between passes" k);
              events := !events + r.P.events;
              ok)
    in
    Check.op ok;
    if ok then begin
      incr done_;
      lat.(k) <- ms dt :: lat.(k)
    end;
    incr i
  done;
  let wall = Util.now () -. t0 -. !in_setup in
  let sum f = Array.fold_left (fun acc c -> match c with Some c -> acc + f c | None -> acc) 0 first in
  Check.counter "corpus.programs" n;
  Check.counter "vm.steps" (sum (fun (s, _, _) -> s));
  Check.counter "vm.events" (sum (fun (_, e, _) -> e));
  Check.counter "corpus.races" (sum (fun (_, _, r) -> r));
  Check.set "runs_per_s" (float_of_int !done_ /. wall);
  Check.set "events_per_s" (float_of_int !events /. wall);
  (* A program's latency is its median over the passes: the corpus has
     enough programs for ten beyond p99, and the median drops the passes
     a momentary stall of the machine slowed. *)
  let lat_note =
    set_latencies (Array.to_list lat |> List.filter (( <> ) []) |> List.map Util.median)
  in
  Check.set "setup_s" (Util.median !setup_samples);
  Check.set "peak_rss_mb" (Util.peak_rss_mb 0);
  Printf.sprintf "%d programs (%d passes over a corpus of %d); per-program medians: %s" !i
    ((!i + n - 1) / n) n lat_note

let corpus_traced env =
  let progs = corpus ~seed:env.seed in
  let m = min 120 (Array.length progs) in
  let one ~trace i =
    let pg = progs.(i) in
    Span.with_ ~unit:i "corpus.program" (fun () ->
        let replay () = Layers.replay_span ~unit:i C.full ~source:pg.pg_source in
        let compile () = Layers.compile_span ~unit:i C.full ~source:pg.pg_source in
        (* The phase replay goes first for even programs, last for odd. *)
        let c =
          if not trace then compile ()
          else if i mod 2 = 0 then begin
            let counts = replay () in
            let c = compile () in
            Layers.check_replay ~unit:i counts c;
            c
          end
          else begin
            let c = compile () in
            Layers.check_replay ~unit:i (replay ()) c;
            c
          end
        in
        if trace then Layers.vm_run ~unit:i c;
        let r = Span.with_ ~unit:i Layers.s_det (fun () -> P.run c) in
        Check.op (Span.with_ ~unit:i "corpus.check" (fun () -> check_program i pg r));
        c)
  in
  (* Rounds of an untraced pass (the end-to-end path, spans off) and a
     traced pass over the same programs, so drift hits both alike. *)
  let from = Span.mark () in
  let stats = ref Layers.no_stats in
  let untraced =
    List.init 4 (fun round ->
        Span.enabled := false;
        let t = snd (Util.time (fun () -> for i = 0 to m - 1 do ignore (one ~trace:false i) done)) in
        Span.enabled := true;
        for i = 0 to m - 1 do
          let c = one ~trace:true i in
          if round = 0 then stats := Layers.add_static !stats c
        done;
        ms t /. float_of_int m)
  in
  let untraced_ms = Util.median untraced in
  Layers.compile_metrics !stats;
  let vm = Span.mean_ms ~from Layers.s_vm and det = Span.mean_ms ~from Layers.s_det in
  Layers.set_vm_totals ();
  Check.set "vm.run_ms" vm;
  Check.set "core.detect_ms" (det -. vm);
  Check.set "core.detect_overhead_frac" (Util.ratio (det -. vm) vm);
  let compiled = List.init m (fun i -> P.compile C.full ~source:progs.(i).pg_source) in
  Layers.publish_run_counters (List.map (fun c -> (c, [ Layers.default_run_spec c ])) compiled);
  (* Per program: the compile phases, the VM, the detector, the check. *)
  let rows =
    compile_rows ~scale:1.
    @ [ ("vm", vm); ("core", det -. vm) ]
  in
  let a = attribution ~unit:"program" ~untraced_ms rows in
  trace_overhead (fun () -> for i = 0 to m - 1 do ignore (one ~trace:false i) done);
  (a, Printf.sprintf "%d traced programs" m)
