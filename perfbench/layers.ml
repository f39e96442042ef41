(* Per-layer measurement from outside the program: every number here
   comes from timing a call into a layer's public functions, or from
   the counters those calls return.  Nothing in the program is changed
   or instrumented.

   Where a layer cannot be called on its own (the detector runs inside
   [Pipeline.run], a tap rides along a run) its cost is the difference
   between two paired calls that differ only in that layer: a run with
   the detector minus the same run without it, a run with a tap minus
   the same run without it.  The pairs are interleaved run by run, with
   the order rotated, so drift and cache warmth cancel. *)

module P = Drd_harness.Pipeline
module C = Drd_harness.Config
module E = Drd_explore.Explore
module Strategy = Drd_explore.Strategy
module Aggregate = Drd_explore.Aggregate
module Hb = Drd_explore.Hb_fingerprint
module Sink = Drd_vm.Sink
module Interp = Drd_vm.Interp
module Detector = Drd_core.Detector
module Event_log = Drd_core.Event_log
module Session = Drd_serve.Session
module SC = Serve_client

let ms s = 1000. *. s

(* ------------------------------------------------------------------ *)
(* Compile: the phases of [Pipeline.compile], called one by one in its
   order, and [Pipeline.compile] itself. *)

let phases =
  [
    "lang.parse"; "lang.typecheck"; "instr.peel"; "ir.lower"; "static.race_set";
    "instr.insert"; "instr.weaker"; "ir.optimize"; "static.specialize"; "ir.link";
  ]

(* Returns (traces inserted, traces eliminated); they must equal the
   [compiled] fields [Pipeline.compile] reports for the same source. *)
let replay_compile ~unit (config : C.t) ~source =
  let sp name f = Span.with_ ~unit name f in
  let ast = sp "lang.parse" (fun () -> Drd_lang.Parser.parse_program source) in
  let tprog = sp "lang.typecheck" (fun () -> Drd_lang.Typecheck.check ast) in
  let tprog =
    sp "instr.peel" (fun () ->
        if config.C.loop_peel then Drd_instr.Peel.peel_program tprog else tprog)
  in
  let prog = sp "ir.lower" (fun () -> Drd_ir.Lower.lower_program tprog) in
  let instrumented = config.C.detector <> C.NoDetect in
  let rs =
    sp "static.race_set" (fun () ->
        if instrumented && config.C.static_analysis then begin
          let rs = Drd_static.Race_set.compute prog in
          ignore (Drd_static.Race_set.stats rs);
          Some rs
        end
        else None)
  in
  let inserted =
    sp "instr.insert" (fun () ->
        (if instrumented then
           match rs with
           | Some rs ->
               Drd_instr.Insert.instrument
                 ~keep:(Drd_static.Race_set.may_race rs)
                 prog
           | None -> Drd_instr.Insert.instrument prog);
        Drd_instr.Insert.count_traces prog)
  in
  let eliminated =
    sp "instr.weaker" (fun () ->
        if instrumented && config.C.weaker_elim then
          Drd_instr.Static_weaker.eliminate prog
        else 0)
  in
  sp "ir.optimize" (fun () ->
      if config.C.ir_optimize then ignore (Drd_ir.Optimize.optimize prog));
  let spec =
    sp "static.specialize" (fun () ->
        if
          config.C.static_analysis && config.C.detector = C.Ours
          && config.C.granularity = Drd_vm.Memloc.Per_field
          && config.C.use_ownership
        then
          match rs with
          | Some rs -> Drd_static.Specialize.compute rs prog
          | None -> None
        else None)
  in
  ignore (sp "ir.link" (fun () -> Drd_ir.Link.link ?spec prog));
  (inserted, eliminated)

type compile_stats = {
  cs_programs : int;
  cs_inserted : int;
  cs_eliminated : int;
  cs_in_race_set : int;
  cs_access_statements : int;
  cs_spec_sites : int;
  cs_sites : int;
}

let no_stats =
  { cs_programs = 0; cs_inserted = 0; cs_eliminated = 0; cs_in_race_set = 0;
    cs_access_statements = 0; cs_spec_sites = 0; cs_sites = 0 }

(* Fold one compiled program's static facts into [s]: race-set size,
   surviving traces and the link-time specialized share of its sites. *)
let add_static s (c : P.compiled) =
  let sites = Drd_ir.Site_table.count c.P.prog.Drd_ir.Ir.p_sites in
  let spec = ref 0 in
  for site = 0 to sites - 1 do
    if Drd_ir.Link.spec_class_of_site c.P.image site <> None then incr spec
  done;
  let in_set, accesses =
    match c.P.static_stats with
    | Some st ->
        (st.Drd_static.Race_set.in_race_set, st.Drd_static.Race_set.access_statements)
    | None -> (0, 0)
  in
  {
    cs_programs = s.cs_programs + 1;
    cs_inserted = s.cs_inserted + c.P.traces_inserted;
    cs_eliminated = s.cs_eliminated + c.P.traces_eliminated;
    cs_in_race_set = s.cs_in_race_set + in_set;
    cs_access_statements = s.cs_access_statements + accesses;
    cs_spec_sites = s.cs_spec_sites + !spec;
    cs_sites = s.cs_sites + sites;
  }

(* The replay must reach the trace counts [Pipeline.compile] reports. *)
let check_replay ~unit (ins, elim) (c : P.compiled) =
  if ins <> c.P.traces_inserted || elim <> c.P.traces_eliminated then
    Check.problem "compile replay of unit %d: traces %d/%d, Pipeline.compile %d/%d"
      unit ins elim c.P.traces_inserted c.P.traces_eliminated

let replay_span ~unit config ~source =
  Span.with_ ~unit "compile.replay" (fun () -> replay_compile ~unit config ~source)

let compile_span ~unit config ~source =
  Span.with_ ~unit "harness.compile" (fun () -> P.compile config ~source)

(* Replay and compile each source [reps] times, alternating which goes
   first.  Spans: one "compile.replay" per replay (phase children) and
   one "harness.compile" per real compile. *)
let compile_probe ~reps (config : C.t) (sources : (int * string) list) =
  let stats = ref no_stats in
  for rep = 1 to reps do
    List.iter
      (fun (unit, source) ->
        let counts, c =
          if (rep + unit) mod 2 = 0 then
            let counts = replay_span ~unit config ~source in
            (counts, compile_span ~unit config ~source)
          else
            let c = compile_span ~unit config ~source in
            (replay_span ~unit config ~source, c)
        in
        check_replay ~unit counts c;
        if rep = 1 then stats := add_static !stats c)
      sources
  done;
  !stats

(* Per-program phase and compile times from the spans above. *)
let compile_metrics (s : compile_stats) =
  let phase_sum = ref 0. in
  List.iter
    (fun ph ->
      let v = Span.mean_ms ph in
      phase_sum := !phase_sum +. v;
      Check.set (ph ^ "_ms") v)
    phases;
  let compile = Span.mean_ms "harness.compile" in
  Check.set "harness.compile_ms" compile;
  Check.set "harness.compile_residual_ms" (compile -. !phase_sum);
  Check.set "static.race_set_frac" (Util.ratioi s.cs_in_race_set s.cs_access_statements);
  Check.set "instr.traces_inserted" (float_of_int s.cs_inserted);
  Check.set "instr.traces_eliminated" (float_of_int s.cs_eliminated);
  Check.set "static.spec_site_frac" (Util.ratioi s.cs_spec_sites s.cs_sites);
  Check.counter "static.race_set_size" s.cs_in_race_set;
  Check.counter "static.access_statements" s.cs_access_statements;
  Check.counter "instr.traces_inserted" s.cs_inserted;
  Check.counter "instr.traces_eliminated" s.cs_eliminated;
  Check.counter "static.spec_sites" s.cs_spec_sites

(* ------------------------------------------------------------------ *)
(* Runs: VM, detector, taps, observation and wire, per run spec. *)

let vm_of (c : P.compiled) (sp : Strategy.run_spec) =
  {
    (P.vm_config_of c.P.config) with
    Interp.seed = sp.Strategy.sp_seed;
    quantum = sp.Strategy.sp_quantum;
    policy = sp.Strategy.sp_policy;
  }

let run_specs (spec : E.spec) n =
  Strategy.specs spec.E.e_strategy ~base:spec.E.e_config
    ~pct_horizon:spec.E.e_pct_horizon ~first:0 ~stride:1 ~count:n

(* The span names of one traced run unit. *)
let s_vm = "vm.run" (* run, detector off, no tap *)
let s_det = "core.run" (* run, detector on *)
let s_fp = "explore.fp_run" (* detector off, raw fingerprint tap *)
let s_hb = "explore.hb_run" (* detector off, hb fingerprint tap *)
let s_obs = "explore.observe_run"
let s_hbobs = "explore.hb_observe" (* the hb pass: both taps, detector off *)
let s_enc = "explore.wire_encode"
let s_dec = "explore.wire_decode"

(* Totals over the timed VM runs.  Steps and seconds come from the same
   runs, so steps per second is theirs alone.  Minor collections are not
   an exact counter: when one falls depends on the whole allocation
   history. *)
let vm_runs = ref 0
let vm_steps = ref 0
let vm_seconds = ref 0.
let vm_gcs = ref 0

(* One timed VM run: the detector off, no tap. *)
let vm_run ~unit ?ctx ?vm c =
  let g0 = (Gc.quick_stat ()).Gc.minor_collections in
  let r, t =
    Span.with_ ~unit s_vm (fun () -> Util.time (fun () -> P.run ?ctx ?vm ~detect:false c))
  in
  vm_gcs := !vm_gcs + (Gc.quick_stat ()).Gc.minor_collections - g0;
  incr vm_runs;
  vm_steps := !vm_steps + r.P.steps;
  vm_seconds := !vm_seconds +. t

let set_vm_totals () =
  Check.set "vm.steps_per_s" (Util.ratio (float_of_int !vm_steps) !vm_seconds);
  Check.set "vm.minor_gcs_per_run" (Util.ratioi !vm_gcs !vm_runs)

(* Time one run spec through every layer, as children of one unit span.
   Returns the run's observation (what the campaign would fold). *)
let time_run ~ctx ~hb_path (c : P.compiled) (rsp : Strategy.run_spec) =
  let unit = rsp.Strategy.sp_index in
  let vm = vm_of c rsp in
  let obs = ref None and hb_fp = ref None in
  let calls =
    [
      (fun () -> vm_run ~unit ~ctx ~vm c);
      (fun () -> Span.with_ ~unit s_det (fun () -> ignore (P.run ~ctx ~vm c)));
      (fun () ->
        let tap, _ = E.fingerprint_tap () in
        Span.with_ ~unit s_fp (fun () ->
            ignore (P.run ~ctx ~vm ~tap ~detect:false c)));
      (fun () ->
        let tap, _ = Hb.tap () in
        Span.with_ ~unit s_hb (fun () ->
            ignore (P.run ~ctx ~vm ~tap ~detect:false c)));
      (fun () ->
        obs := Some (Span.with_ ~unit s_obs (fun () -> E.observe_run ~ctx c rsp)));
    ]
    @
    if hb_path then
      [
        (fun () ->
          let raw, _ = E.fingerprint_tap () in
          let hb, fp = Hb.tap () in
          Span.with_ ~unit s_hbobs (fun () ->
              ignore (P.run ~ctx ~vm ~tap:(Sink.tee raw hb) ~detect:false c));
          hb_fp := Some (fp ()));
      ]
    else []
  in
  let n = List.length calls in
  Span.with_ ~unit "explore.run_unit" (fun () ->
      List.iteri
        (fun i _ -> (List.nth calls ((i + unit) mod n)) ())
        calls;
      (* On the hb path the row carries the run's hb fingerprint, so the
         fold prunes as the campaign's does. *)
      let o = { (Option.get !obs) with Aggregate.o_hb_fingerprint = !hb_fp } in
      let row = Aggregate.Run o in
      let line = Span.with_ ~unit s_enc (fun () -> E.row_to_json row) in
      (match Span.with_ ~unit s_dec (fun () -> E.row_of_json line) with
      | Ok _ -> ()
      | Error m -> Check.problem "wire decode of run %d: %s" unit m);
      (o, String.length line))

(* Time the first [runs] run units of the campaign, then fold and render
   their rows.  Sets the VM, detector and explore metrics.  [between]
   runs before every 50th unit (after the first), for untraced work the
   caller wants interleaved. *)
let run_probe ~between ~hb_path ~runs (spec : E.spec) (c : P.compiled) =
  let from = Span.mark () in
  let ctx = P.Run_ctx.create c in
  let timed =
    List.mapi
      (fun i rsp ->
        if i > 0 && i mod 50 = 0 then between ();
        time_run ~ctx ~hb_path c rsp)
      (run_specs spec runs)
  in
  let bytes = Util.sumi (List.map snd timed) in
  let rows = List.map (fun (o, _) -> Aggregate.Run o) timed in
  let report =
    Span.with_ ~unit:(-1) "explore.fold" (fun () -> E.report_of_rows spec rows)
  in
  Span.with_ ~unit:(-1) "explore.render" (fun () ->
      ignore (E.report_text ~timing:false ~target:"-" report);
      ignore (E.report_json ~timing:false report));
  let m name = Span.mean_ms ~from name in
  let vm = m s_vm and det = m s_det and fp = m s_fp and hb = m s_hb in
  set_vm_totals ();
  Check.set "vm.run_ms" vm;
  Check.set "core.detect_ms" (det -. vm);
  Check.set "core.detect_overhead_frac" (Util.ratio (det -. vm) vm);
  Check.set "explore.fp_tap_ms" (fp -. vm);
  Check.set "explore.hb_tap_ms" (hb -. vm);
  Check.set "explore.observe_self_ms" (m s_obs -. det -. (fp -. vm));
  Check.set "explore.wire_encode_us" (1000. *. m s_enc);
  Check.set "explore.wire_decode_us" (1000. *. m s_dec);
  Check.set "explore.row_bytes" (Util.ratioi bytes runs);
  Check.set "explore.fold_ms" (ms (Span.total ~from "explore.fold"));
  Check.set "explore.render_ms" (ms (Span.total ~from "explore.render"));
  let st = report.E.r_stats in
  Check.set "explore.equiv_classes" (float_of_int st.Aggregate.st_equiv_classes);
  Check.set "explore.pruned_frac"
    (Util.ratioi st.Aggregate.st_pruned_runs st.Aggregate.st_runs)

(* ------------------------------------------------------------------ *)
(* Exact counters of a fixed run set: deterministic for the seed. *)

(* Compute counters twice; the two passes must agree exactly.  Records
   the first pass as exact counters and returns it. *)
let counted what pass =
  let a = pass () in
  Check.same_counters what a (pass ());
  List.iter (fun (k, v) -> Check.counter k v) a;
  a

(* The detector funnel of some detector runs or sessions, summed. *)
let funnel (stats : Detector.stats list) =
  let sum f = Util.sumi (List.map f stats) in
  [
    ("core.events_in", sum (fun s -> s.Detector.events_in));
    ("core.cache_hits", sum (fun s -> s.Detector.cache_hits));
    ("core.owned", sum (fun s -> s.Detector.ownership_filtered));
    ("core.weaker", sum (fun s -> s.Detector.weaker_filtered));
    ("core.race_checks", sum (fun s -> s.Detector.race_checks));
    ("core.trie_nodes", sum (fun s -> s.Detector.trie_nodes));
    ("core.locations_tracked", sum (fun s -> s.Detector.locations_tracked));
    ("core.races_reported", sum (fun s -> s.Detector.races_reported));
  ]

(* The funnel's metrics: shares of the events in, and means per run or
   session over [units] of them. *)
let set_funnel_metrics ~units counters =
  let g k = float_of_int (List.assoc k counters) in
  let per_unit k = Check.set k (g k /. float_of_int units) in
  let ev = g "core.events_in" in
  per_unit "core.events_in";
  Check.set "core.cache_hit_frac" (Util.ratio (g "core.cache_hits") ev);
  Check.set "core.owned_frac" (Util.ratio (g "core.owned") ev);
  Check.set "core.weaker_frac" (Util.ratio (g "core.weaker") ev);
  Check.set "core.race_check_frac" (Util.ratio (g "core.race_checks") ev);
  List.iter per_unit [ "core.trie_nodes"; "core.locations_tracked"; "core.races_reported" ]

let count_pass (c : P.compiled) (specs : Strategy.run_spec list) =
  let ctx = P.Run_ctx.create c in
  let steps = ref 0 and events = ref 0 and words = ref 0. in
  let spec_events = ref 0 and fast = ref 0 and site_events = ref 0 in
  let stats = ref [] in
  (* Warm the context first: the words counted are those of warm runs. *)
  (match specs with
  | rsp :: _ -> ignore (P.run ~ctx ~vm:(vm_of c rsp) ~detect:false c)
  | [] -> ());
  List.iter
    (fun rsp ->
      let vm = vm_of c rsp in
      let w0 = Gc.minor_words () in
      let r = P.run ~ctx ~vm ~detect:false c in
      words := !words +. (Gc.minor_words () -. w0);
      steps := !steps + r.P.steps;
      events := !events + r.P.events;
      let d = P.run ~ctx ~vm ~site_stats:true c in
      spec_events := !spec_events + d.P.spec_events;
      (match d.P.site_stats with
      | Some (ev, fa) ->
          Array.iter (fun n -> site_events := !site_events + n) ev;
          Array.iter (fun n -> fast := !fast + n) fa
      | None -> ());
      Option.iter (fun s -> stats := s :: !stats) d.P.detector_stats)
    specs;
  [
    ("runs", List.length specs); ("vm.steps", !steps); ("vm.events", !events);
    ("vm.minor_words", int_of_float !words);
    ("vm.spec_events", !spec_events); ("core.fast_drops", !fast);
    ("core.site_events", !site_events);
  ]
  @ funnel !stats

(* The run spec of a program's own configured schedule, as a plain
   [Pipeline.run] would use it. *)
let default_run_spec (c : P.compiled) =
  let cf = c.P.config in
  {
    Strategy.sp_index = 0;
    sp_seed = cf.C.seed;
    sp_quantum = cf.C.quantum;
    sp_policy = cf.C.policy;
  }

let add_counters a b = List.map (fun (k, v) -> (k, v + List.assoc k b)) a

(* Count [programs] twice and publish the counters and their per-run
   metrics. *)
let publish_run_counters (programs : (P.compiled * Strategy.run_spec list) list) =
  let a =
    counted "run counters" (fun () ->
        match List.map (fun (c, specs) -> count_pass c specs) programs with
        | first :: rest -> List.fold_left add_counters first rest
        | [] -> [])
  in
  let g k = float_of_int (List.assoc k a) in
  let runs = g "runs" in
  Check.set "vm.steps_per_run" (g "vm.steps" /. runs);
  Check.set "vm.events_per_run" (g "vm.events" /. runs);
  Check.set "vm.spec_event_frac" (Util.ratio (g "vm.spec_events") (g "vm.events"));
  Check.set "vm.minor_words_per_run" (g "vm.minor_words" /. runs);
  Check.set "core.fast_drop_frac" (Util.ratio (g "core.fast_drops") (g "core.site_events"));
  set_funnel_metrics ~units:(List.assoc "runs" a) a

(* ------------------------------------------------------------------ *)
(* Post-mortem replay of recorded logs. *)

let replay_probe ~min_seconds (logs : Event_log.t list) =
  let entries = Util.sumi (List.map Event_log.length logs) in
  let t0 = Util.now () in
  let n = ref 0 in
  while !n = 0 || Util.now () -. t0 < min_seconds do
    List.iteri
      (fun i log ->
        Span.with_ ~unit:i "core.replay" (fun () ->
            ignore (P.detect_post_mortem C.full log)))
      logs;
    incr n
  done;
  let t = Span.total "core.replay" in
  Check.set "core.replay_ns_per_event" (1e9 *. t /. float_of_int (!n * entries))

(* ------------------------------------------------------------------ *)
(* Serve: decode, in-process sessions and the socket transport. *)

(* A session's detector, rebuilt in process on the session's payload
   with the knobs and eviction policy [Session.create] gives it: the
   session does not expose its detector's stats. *)
let session_detector_stats (p : SC.payload) =
  let log = Event_log.create () in
  Array.iter
    (fun l ->
      match Event_log.entry_of_line l with
      | Ok (Some e) -> Event_log.record log e
      | Ok None -> ()
      | Error m -> Check.problem "payload line %S: %s" l m)
    p.SC.p_lines;
  let config =
    { Detector.default_config with
      Detector.use_cache = C.full.C.use_cache;
      use_ownership = C.full.C.use_ownership }
  in
  let d = Detector.create ~config ?eviction:(SC.eviction ()) (Drd_core.Report.collector ()) in
  Event_log.replay log d;
  Detector.stats d

(* The detector funnel of [payloads]' sessions, counted twice. *)
let publish_session_funnel (payloads : SC.payload list) =
  set_funnel_metrics ~units:(List.length payloads)
    (counted "session detector counters" (fun () ->
         funnel (List.map session_detector_stats payloads)))

type serve_sample = {
  sv_feed : float; (* seconds in Session.feed_line *)
  sv_close : float;
  sv_latency : float; (* socket: hello -> report, with a span around it *)
  sv_untraced : float; (* the same session again, spans off *)
  sv_kind : SC.kind;
  sv_events : int;
}

(* In process: decode every line alone, then feed the lines through a
   [Session] and close it.  Checks the in-process report against the
   same reference the socket session is checked against. *)
let in_process ~pool ~unit (p : SC.payload) =
  Span.with_ ~unit "serve.decode" (fun () ->
      Array.iter
        (fun l -> ignore (Event_log.entry_of_line l))
        p.SC.p_lines);
  let s =
    Session.create ~pool ~id:(string_of_int unit) ~kind:Drd_serve.Protocol.Events
      ~config:C.full ~eviction:(SC.eviction ()) ()
  in
  let feed_name =
    match p.SC.p_kind with SC.Log _ -> "serve.feed.log" | SC.Churn -> "serve.feed.churn"
  in
  let frames = ref 0 in
  let t_feed =
    Util.time (fun () ->
        Span.with_ ~unit feed_name (fun () ->
            Array.iter
              (fun l ->
                match Session.feed_line s l with
                | Ok fs -> frames := !frames + List.length fs
                | Error m -> Check.problem "in-process session %d: %s" unit m)
              p.SC.p_lines))
    |> snd
  in
  let live = Session.live_locations s in
  let evictions = Session.evictions s in
  let body, t_close =
    Util.time (fun () -> Span.with_ ~unit "serve.close" (fun () -> Session.close s))
  in
  (match body with
  | Ok body -> (
      match SC.check_body p body with
      | Ok _ -> ()
      | Error m -> Check.problem "in-process session %d: %s" unit m)
  | Error m -> Check.problem "in-process session %d: close: %s" unit m);
  (t_feed, t_close, !frames, live, evictions)

(* Every payload in process, then twice over one socket connection to
   a fresh daemon -- once inside a span, once with spans off, in
   alternating order -- pairing all three per session.  Sets the serve
   metrics and returns the per-session samples. *)
let serve_probe ~racedet ~path (payloads : SC.payload list) =
  let pool = Session.pool () in
  let frames = ref 0 and live_max = ref 0 and evictions = ref 0 in
  let inproc =
    List.mapi
      (fun unit p ->
        let f, cl, fr, live, ev = in_process ~pool ~unit p in
        frames := !frames + fr;
        live_max := max !live_max live;
        evictions := !evictions + ev;
        (f, cl))
      payloads
  in
  let d, _ = SC.start ~racedet ~path in
  let conn = Option.get (SC.connect path) in
  let samples =
    Fun.protect
      ~finally:(fun () ->
        SC.disconnect conn;
        SC.stop d)
      (fun () ->
        List.mapi
          (fun unit (p, (f, cl)) ->
            let traced () =
              Span.with_ ~unit "serve.session" (fun () ->
                  SC.session conn ~id:(Printf.sprintf "t%d" unit) p)
            in
            let untraced () =
              let was = !Span.enabled in
              Span.enabled := false;
              let o = SC.session conn ~id:(Printf.sprintf "u%d" unit) p in
              Span.enabled := was;
              o
            in
            let t, u =
              if unit mod 2 = 0 then
                let t = traced () in
                (t, untraced ())
              else
                let u = untraced () in
                (traced (), u)
            in
            Check.op (t.SC.o_ok && u.SC.o_ok);
            { sv_feed = f; sv_close = cl; sv_latency = t.SC.o_latency;
              sv_untraced = u.SC.o_latency; sv_kind = p.SC.p_kind;
              sv_events = p.SC.p_events })
          (List.combine payloads inproc))
  in
  let feed_per_event ~log =
    let xs = List.filter (fun s -> (s.sv_kind <> SC.Churn) = log) samples in
    1e9 *. Util.sum (List.map (fun s -> s.sv_feed) xs)
    /. float_of_int (max 1 (Util.sumi (List.map (fun s -> s.sv_events) xs)))
  in
  let events = Util.sumi (List.map (fun p -> p.SC.p_events) payloads) in
  Check.set "serve.decode_ns_per_event" (1e9 *. Span.total "serve.decode" /. float_of_int events);
  Check.set "serve.feed_ns_per_event.log" (feed_per_event ~log:true);
  Check.set "serve.feed_ns_per_event.churn" (feed_per_event ~log:false);
  Check.set "serve.close_ms" (ms (Util.mean (List.map (fun s -> s.sv_close) samples)));
  Check.set "serve.transport_ms"
    (ms (Util.mean (List.map (fun s -> s.sv_latency -. s.sv_feed -. s.sv_close) samples)));
  Check.set "serve.race_frames" (float_of_int !frames);
  Check.set "core.evictions" (float_of_int !evictions);
  Check.set "serve.live_locations_max" (float_of_int !live_max);
  Check.counter "serve.race_frames" !frames;
  Check.counter "core.evictions" !evictions;
  Check.counter "serve.live_locations_max" !live_max;
  samples
