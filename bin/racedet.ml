(* racedet — command-line driver for the datarace detection pipeline.

   Subcommands:
     run      compile + execute a MiniJava program (file or built-in
              benchmark) under a detector configuration and print the
              race reports;
     explore  run a schedule-exploration campaign (seed sweep, quantum
              jitter or PCT priority scheduling) — optionally one shard
              of a distributed campaign (--shard I/N --emit-obs FILE);
     merge    re-fold shard observation files into the single-process
              campaign report;
     serve    long-lived streaming detection daemon (stdin or a Unix
              socket), bounded memory via quiescent-location eviction;
     analyze  run only the static datarace analysis and report its
              statistics;
     ir       dump the (optionally instrumented/optimized) IR;
     list     list built-in benchmarks and configurations.

   Exit codes: 0 success; 2 malformed input data (event logs,
   observation files, protocol streams); 124 command-line misuse,
   which includes a program that does not compile and, for run and
   record, a program that fails at run time (division by zero, null
   dereference, deadlock, step limit: "racedet: runtime error: ..." on
   stderr, nothing on stdout); 125 internal error. *)

module H = Drd_harness
module E = Drd_explore
module W = Drd_explore.Wire
module Ir = Drd_ir.Ir
module A = Drd_arena.Arena
open Cmdliner

(* Malformed input *data* (as opposed to command-line misuse, which
   cmdliner exits 124 for, and internal errors, which it exits 125
   for): print the diagnostic to stderr and exit 2, so scripts can
   tell a truncated log from a crashed tool. *)
let data_error_exit = 2

let data_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "racedet: %s\n%!" m;
      exit data_error_exit)
    fmt

(* A program that fails to compile — lex, parse or type error — is
   command-line misuse (the user pointed the tool at bad source), not
   malformed input data and not an internal error: route the frontend
   diagnostic through cmdliner's error path, exit 124.  Campaigns
   compile once up-front (Pipeline.compile in Explore.run_campaign), so
   a bad program is fatal before any worker domain starts, never a
   per-run failure row. *)
let or_compile_error f =
  try f () with H.Pipeline.Compile_error msg -> `Error (false, msg)

(* A program that compiles but fails while running ([Interp.Runtime_error]:
   division by zero, null dereference, deadlock, step limit) is the
   user's program at fault too, so [run] and [record] give it the same
   exit 124 with the VM's diagnostic.  Nothing reaches stdout: both
   commands print only after the run returns.  Campaigns ([explore],
   [sweep]) keep reporting such runs as failure rows. *)
let or_runtime_error f =
  try f ()
  with Drd_vm.Interp.Runtime_error msg -> `Error (false, "runtime error: " ^ msg)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_source file benchmark =
  match (file, benchmark) with
  | Some f, None -> Ok (read_file f)
  | None, Some "figure2" -> Ok (H.Programs.figure2 ())
  | None, Some "figure2-samelock" -> Ok (H.Programs.figure2 ~same_pq:true ())
  | None, Some b -> (
      match H.Programs.find b with
      | Some bench -> Ok bench.H.Programs.b_source
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %s (try: racedet list)" b))
  | Some _, Some _ -> Error "give either FILE or --benchmark, not both"
  | None, None -> Error "give a FILE or --benchmark NAME"

(* What reproduction command lines name: the file, or the benchmark
   flag that selects the same program. *)
let target_of file benchmark =
  match (file, benchmark) with
  | Some f, _ -> f
  | None, Some b -> "-b " ^ b
  | None, None -> "..."

let config_of_name ?quantum ?pct ?(pct_horizon = 20_000) name seed =
  match H.Config.by_name name with
  | Some c ->
      Ok
        {
          c with
          H.Config.seed;
          quantum = Option.value quantum ~default:c.H.Config.quantum;
          policy =
            (match pct with
            | Some depth -> Drd_vm.Interp.Pct { depth; horizon = pct_horizon }
            | None -> c.H.Config.policy);
        }
  | None -> Error (Printf.sprintf "unknown configuration %s" name)

(* The configuration a command runs: the named one, with [--detector]'s
   registry row applied on top. *)
let resolve_config ?quantum ?pct ?pct_horizon name detector seed =
  Result.map
    (fun c ->
      match detector with None -> c | Some e -> H.Registry.apply e c)
    (config_of_name ?quantum ?pct ?pct_horizon name seed)

(* ---- common arguments (one definition per flag; every subcommand
   that takes a seed/strategy/… shares these) ---- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniJava source file.")

let benchmark_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Use a built-in benchmark instead of a file.")

let config_arg =
  Arg.(
    value & opt string "Full"
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Detector configuration (see $(b,racedet list)).  Selecting a \
           baseline technique by configuration name ($(b,-c Eraser), \
           $(b,-c ObjRace), $(b,-c HappensBefore)) is deprecated: use \
           $(b,--detector) $(b,eraser)/$(b,objrace)/$(b,vclock).")

(* The name-keyed detector registry behind `--detector`: unknown names
   are command-line misuse, so cmdliner's conv error path (exit 124)
   is exactly right. *)
let detector_conv : H.Registry.entry Arg.conv =
  let parse s =
    match H.Registry.find s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown detector %s (expected one of: %s)" s
                (String.concat ", " (H.Registry.names ()))))
  in
  let print ppf (e : H.Registry.entry) = Fmt.string ppf e.H.Registry.name in
  Arg.conv (parse, print)

let detector_doc =
  "Detection technique (see $(b,racedet list)): $(b,paper), $(b,eraser), \
   $(b,objrace) or $(b,vclock).  Supersedes selecting baselines through \
   $(b,-c): $(b,-c Eraser) is $(b,--detector eraser), $(b,-c ObjRace) is \
   $(b,--detector objrace), $(b,-c HappensBefore) is $(b,--detector \
   vclock)."

let detector_arg =
  Arg.(
    value
    & opt (some detector_conv) None
    & info [ "detector" ] ~docv:"NAME" ~doc:detector_doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Scheduler seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print detector statistics.")

let quantum_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quantum" ] ~docv:"N"
        ~doc:"Override the scheduler slice bound (instructions).")

let pct_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pct" ] ~docv:"D"
        ~doc:
          "Schedule with PCT-style random thread priorities and $(docv) \
           priority-change points instead of the random walk.")

let pct_horizon_arg =
  Arg.(
    value & opt int 20_000
    & info [ "pct-horizon" ] ~docv:"STEPS"
        ~doc:"Step horizon the PCT priority-change points are drawn from.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("specialized", (`Spec : H.Pipeline.engine));
             ("linked", `Linked);
             ("ref", `Ref);
           ])
        `Spec
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "VM engine: $(b,specialized) executes the flat linked image with \
           the link-time specialized trace fast paths enabled (the \
           default); $(b,linked) executes the same image with the fast \
           paths disabled; $(b,ref) executes the frozen pre-link block \
           interpreter.  All three produce bit-identical schedules and \
           reports; $(b,linked) and $(b,ref) exist for cross-checking and \
           benchmarking.")

let site_stats_arg =
  Arg.(
    value & flag
    & info [ "site-stats" ]
        ~doc:
          "Count events per trace site and print a table of site, \
           specialization class (fixed-lockset, owned, read-only or \
           generic), events seen, fast-path drops and generic fallbacks, \
           plus the fraction of all events that arrived through \
           specialized sites.")

let no_timing_arg =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "Omit wall-clock, throughput and worker-count output so reports \
           are comparable across machines and with $(b,racedet merge).")

let strategy_arg =
  Arg.(
    value & opt string "pct"
    & info [ "s"; "strategy" ] ~docv:"NAME"
        ~doc:
          "Exploration strategy: $(b,sweep) (sequential seeds), \
           $(b,jitter) (random seed + slice bound per run), or $(b,pct) \
           (random thread priorities with change points).")

let depth_arg =
  Arg.(
    value & opt int 3
    & info [ "d"; "depth" ] ~docv:"D"
        ~doc:"Priority-change points per run (pct strategy).")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:"Parallel worker domains to fan runs out over.")

let batch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Runs per work-queue claim (default: scaled to the budget and \
           worker count).  The report is byte-identical for every batch \
           size; the knob only trades hand-off overhead against \
           adaptive-budget overshoot.")

let no_ctx_reuse_arg =
  Arg.(
    value & flag
    & info [ "no-ctx-reuse" ]
        ~doc:
          "Allocate fresh detector and VM state for every run instead of \
           resetting each worker's pooled run context in place.  The \
           report is byte-identical either way; the flag exists to \
           demonstrate (and CI-check) exactly that, at a throughput \
           cost.")

let runs_arg =
  Arg.(
    value & opt int 64
    & info [ "n"; "runs" ] ~docv:"N" ~doc:"Run budget for the campaign.")

(* ---- run: JSON rendering on the shared Wire.json value ---- *)

let run_json compiled (r : H.Pipeline.result) ~extra =
  let names = H.Pipeline.names_of compiled r in
  let race_json (race : Drd_core.Report.race) =
    let e = race.Drd_core.Report.current in
    let p = race.Drd_core.Report.prior in
    let lockset ls =
      W.List
        (List.map
           (fun l -> W.String (Drd_core.Names.lock_name names l))
           (Drd_core.Lockset_id.to_sorted_list ls))
    in
    let kind = function
      | Drd_core.Event.Read -> W.String "read"
      | Drd_core.Event.Write -> W.String "write"
    in
    W.Obj
      [
        ( "location",
          W.String (Drd_core.Names.loc_name names race.Drd_core.Report.loc) );
        ( "current",
          W.Obj
            [
              ("thread", W.Int e.Drd_core.Event.thread);
              ("kind", kind e.Drd_core.Event.kind);
              ( "site",
                W.String (Drd_core.Names.site_name names e.Drd_core.Event.site)
              );
              ("locks", lockset e.Drd_core.Event.locks);
            ] );
        ( "prior",
          W.Obj
            [
              ( "thread",
                match p.Drd_core.Trie.p_thread with
                | Drd_core.Event.Thread t -> W.Int t
                | _ -> W.String "multiple" );
              ("kind", kind p.Drd_core.Trie.p_kind);
              ( "site",
                W.String (Drd_core.Names.site_name names p.Drd_core.Trie.p_site)
              );
              ("locks", lockset p.Drd_core.Trie.p_locks);
            ] );
        ( "static_peers",
          W.List
            (List.map
               (fun s -> W.String s)
               (H.Pipeline.static_peers_of_site compiled
                  e.Drd_core.Event.site)) );
      ]
  in
  let races =
    match r.H.Pipeline.report with
    | Some coll -> List.map race_json (Drd_core.Report.races coll)
    | None ->
        List.map
          (fun l -> W.Obj [ ("location", W.String l) ])
          r.H.Pipeline.races
  in
  let deadlocks =
    List.map
      (fun (d : Drd_core.Lock_order.report) ->
        W.Obj
          [
            ( "locks",
              W.List
                (List.map (fun l -> W.Int l) d.Drd_core.Lock_order.dl_locks) );
            ( "threads",
              W.List
                (List.map (fun t -> W.Int t) d.Drd_core.Lock_order.dl_threads)
            );
          ])
      r.H.Pipeline.deadlocks
  in
  print_endline
    (W.json_to_string
       (W.Obj
          ([
             ("races", W.List races);
             ("potential_deadlocks", W.List deadlocks);
             ("events", W.Int r.H.Pipeline.events);
             ("steps", W.Int r.H.Pipeline.steps);
             ("threads", W.Int r.H.Pipeline.threads);
             ("wall_time_s", W.Float r.H.Pipeline.wall_time);
           ]
          @ extra)))

(* ---- run ---- *)

let spec_class_name = function
  | Some Drd_ir.Link.Sfixed -> "fixed-lockset"
  | Some Drd_ir.Link.Sowned -> "owned"
  | Some Drd_ir.Link.Sro -> "read-only"
  | None -> "generic"

(* The --site-stats table: one row per trace site that saw events or
   was specialized — its class, the events routed through it, how many
   took a fast-path drop and how many fell back to the full detector
   pipeline — plus the share of all events that arrived through
   specialized sites. *)
let print_site_stats compiled (r : H.Pipeline.result) =
  match r.H.Pipeline.site_stats with
  | None -> ()
  | Some (ev, fast) ->
      let image = compiled.H.Pipeline.image in
      let sites = compiled.H.Pipeline.prog.Drd_ir.Ir.p_sites in
      Fmt.pr "@.--- per-site event statistics ---@.";
      Fmt.pr "%-5s %-14s %10s %10s %10s  %s@." "site" "class" "events" "fast"
        "generic" "name";
      for s = 0 to Array.length ev - 1 do
        let cls = Drd_ir.Link.spec_class_of_site image s in
        if ev.(s) > 0 || cls <> None then
          Fmt.pr "%-5d %-14s %10d %10d %10d  %s@." s (spec_class_name cls)
            ev.(s) fast.(s)
            (ev.(s) - fast.(s))
            (Drd_ir.Site_table.name sites s)
      done;
      if r.H.Pipeline.events > 0 then
        Fmt.pr "events through specialized sites: %d / %d (%.1f%%)@."
          r.H.Pipeline.spec_events r.H.Pipeline.events
          (100.
          *. float_of_int r.H.Pipeline.spec_events
          /. float_of_int r.H.Pipeline.events)

let site_stats_json compiled (r : H.Pipeline.result) =
  match r.H.Pipeline.site_stats with
  | None -> []
  | Some (ev, fast) ->
      let image = compiled.H.Pipeline.image in
      let sites = compiled.H.Pipeline.prog.Drd_ir.Ir.p_sites in
      let rows = ref [] in
      for s = Array.length ev - 1 downto 0 do
        let cls = Drd_ir.Link.spec_class_of_site image s in
        if ev.(s) > 0 || cls <> None then
          rows :=
            W.Obj
              [
                ("site", W.Int s);
                ("name", W.String (Drd_ir.Site_table.name sites s));
                ("class", W.String (spec_class_name cls));
                ("events", W.Int ev.(s));
                ("fast", W.Int fast.(s));
                ("generic", W.Int (ev.(s) - fast.(s)));
              ]
            :: !rows
      done;
      [
        ("spec_events", W.Int r.H.Pipeline.spec_events);
        ("site_stats", W.List !rows);
      ]

let run_cmd_impl file benchmark config_name detector seed quantum pct
    pct_horizon engine site_stats verbose json =
  or_compile_error @@ fun () ->
  or_runtime_error @@ fun () ->
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok source -> (
      match
        resolve_config ?quantum ?pct ~pct_horizon config_name detector seed
      with
      | Error e -> `Error (false, e)
      | Ok config when json ->
          let compiled = H.Pipeline.compile config ~source in
          let r = H.Pipeline.run ~engine ~site_stats compiled in
          run_json compiled r ~extra:(site_stats_json compiled r);
          `Ok ()
      | Ok config ->
          let compiled = H.Pipeline.compile config ~source in
          let r = H.Pipeline.run ~engine ~site_stats compiled in
          List.iter
            (fun (tag, v) ->
              match v with
              | Some v -> Fmt.pr "[out] %s = %a@." tag Drd_vm.Value.pp v
              | None -> Fmt.pr "[out] %s@." tag)
            r.H.Pipeline.prints;
          (match r.H.Pipeline.report with
          | Some coll when Drd_core.Report.count coll > 0 ->
              let names = H.Pipeline.names_of compiled r in
              List.iter
                (fun (race : Drd_core.Report.race) ->
                  Fmt.pr "@.%a@." (Drd_core.Report.pp_race names) race;
                  match
                    H.Pipeline.static_peers_of_site compiled
                      race.Drd_core.Report.current.Drd_core.Event.site
                  with
                  | [] -> ()
                  | peers ->
                      Fmt.pr "  statically possible racing statements:@.";
                      List.iter (Fmt.pr "    %s@.") peers)
                (Drd_core.Report.races coll)
          | Some _ -> Fmt.pr "@.No dataraces detected.@."
          | None ->
              if r.H.Pipeline.races = [] then
                Fmt.pr "@.No dataraces detected (%s).@." config.H.Config.name
              else begin
                Fmt.pr "@.Dataraces reported by %s on:@." config.H.Config.name;
                List.iter (Fmt.pr "  %s@.") r.H.Pipeline.races
              end);
          (match r.H.Pipeline.deadlocks with
          | [] -> ()
          | dls ->
              Fmt.pr "@.Potential deadlocks (lock-order cycles):@.";
              List.iter
                (fun (d : Drd_core.Lock_order.report) ->
                  Fmt.pr "  locks {%a} acquired in conflicting order by threads {%a}@."
                    Fmt.(list ~sep:(any ", ") int)
                    d.Drd_core.Lock_order.dl_locks
                    Fmt.(list ~sep:(any ", ") int)
                    d.Drd_core.Lock_order.dl_threads)
                dls);
          if verbose then begin
            Fmt.pr "@.--- pipeline statistics ---@.";
            Fmt.pr "compile time:      %.3fs@." compiled.H.Pipeline.compile_time;
            (match compiled.H.Pipeline.static_stats with
            | Some s -> Fmt.pr "%a@." Drd_static.Race_set.pp_stats s
            | None -> ());
            Fmt.pr "traces inserted:   %d@." compiled.H.Pipeline.traces_inserted;
            Fmt.pr "traces eliminated: %d@." compiled.H.Pipeline.traces_eliminated;
            Fmt.pr "threads:           %d@." r.H.Pipeline.threads;
            Fmt.pr "steps:             %d@." r.H.Pipeline.steps;
            Fmt.pr "events:            %d@." r.H.Pipeline.events;
            Fmt.pr "wall time:         %.3fs@." r.H.Pipeline.wall_time;
            (match r.H.Pipeline.immutability with
            | Some s ->
                Fmt.pr "immutability:      %a@." Drd_core.Immutability.pp_summary s
            | None -> ());
            match r.H.Pipeline.detector_stats with
            | Some s -> Fmt.pr "%a@." Drd_core.Detector.pp_stats s
            | None -> ()
          end;
          print_site_stats compiled r;
          `Ok ())

let run_cmd =
  let doc = "run a program under a datarace detector" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run_cmd_impl $ file_arg $ benchmark_arg $ config_arg
       $ detector_arg $ seed_arg $ quantum_arg $ pct_arg $ pct_horizon_arg
       $ engine_arg $ site_stats_arg $ verbose_arg $ json_arg))

(* ---- analyze ---- *)

let analyze_impl file benchmark =
  or_compile_error @@ fun () ->
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok source ->
      let tprog = H.Pipeline.frontend ~source in
      let prog = Drd_ir.Lower.lower_program tprog in
      let rs = Drd_static.Race_set.compute prog in
      Fmt.pr "%a@." Drd_static.Race_set.pp_stats (Drd_static.Race_set.stats rs);
      `Ok ()

let analyze_cmd =
  let doc = "run the static datarace analysis only" in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(ret (const analyze_impl $ file_arg $ benchmark_arg))

(* ---- ir ---- *)

let ir_impl file benchmark config_name meth =
  or_compile_error @@ fun () ->
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok source -> (
      match config_of_name config_name 42 with
      | Error e -> `Error (false, e)
      | Ok config ->
          let compiled = H.Pipeline.compile config ~source in
          let prog = compiled.H.Pipeline.prog in
          (match meth with
          | Some key -> (
              match Ir.find_mir prog key with
              | Some m -> Fmt.pr "%a@." Drd_ir.Pretty.pp_mir m
              | None -> Fmt.pr "no method %s@." key)
          | None -> Fmt.pr "%a@." Drd_ir.Pretty.pp_program prog);
          `Ok ())

let ir_cmd =
  let doc = "dump the (instrumented) intermediate representation" in
  let meth =
    Arg.(
      value
      & opt (some string) None
      & info [ "m"; "method" ] ~docv:"Class.method" ~doc:"Dump one method only.")
  in
  Cmd.v
    (Cmd.info "ir" ~doc)
    Term.(ret (const ir_impl $ file_arg $ benchmark_arg $ config_arg $ meth))

(* ---- record / detect: post-mortem mode (paper Section 1) ---- *)

let record_impl file benchmark out =
  or_compile_error @@ fun () ->
  or_runtime_error @@ fun () ->
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok source ->
      let compiled = H.Pipeline.compile H.Config.full ~source in
      let log, result = H.Pipeline.record_log compiled in
      let oc = open_out out in
      Drd_core.Event_log.to_channel oc log;
      close_out oc;
      Fmt.pr "recorded %d events (%d threads, %d steps) to %s@."
        (Drd_core.Event_log.length log)
        result.H.Pipeline.threads result.H.Pipeline.steps out;
      `Ok ()

let record_cmd =
  let doc = "execute a program recording its event log (post-mortem phase 1)" in
  let out =
    Arg.(
      value & opt string "events.log"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Log file to write.")
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(ret (const record_impl $ file_arg $ benchmark_arg $ out))

let read_log log_file =
  match
    let ic = open_in log_file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Drd_core.Event_log.of_channel ic)
  with
  | exception Sys_error e -> data_error "%s" e
  | exception Failure e -> data_error "%s" e
  | log -> log

(* A baseline configuration replays the log through the registry's
   module — the generic sibling of the paper detector's post-mortem
   phase below.  Site/location names are not part of the log, so
   locations print by id. *)
let detect_replay_module (e : H.Registry.entry) log_file json =
  let log = read_log log_file in
  let racy, events = H.Pipeline.replay_module e.H.Registry.impl log in
  if json then
    print_endline
      (W.json_to_string
         (W.Obj
            [
              ("detector", W.String e.H.Registry.name);
              ("racy_locations", W.List (List.map (fun l -> W.Int l) racy));
              ("events", W.Int events);
              ("entries", W.Int (Drd_core.Event_log.length log));
            ]))
  else begin
    Fmt.pr "replayed %d log entries (%d access events)@."
      (Drd_core.Event_log.length log)
      events;
    if racy = [] then
      Fmt.pr "@.No dataraces detected (%s).@." e.H.Registry.name
    else begin
      Fmt.pr "@.Dataraces reported by %s on:@." e.H.Registry.name;
      List.iter (Fmt.pr "  location %d@.") racy
    end
  end;
  `Ok ()

(* [-c] and [--detector] resolve to one configuration first, as for
   [run]; its detector then picks the replay, so [-c HappensBefore] and
   [--detector vclock] replay the same module. *)
let detect_impl log_file config_name detector pairs benchmark json =
  match resolve_config config_name detector 42 with
  | Error e -> `Error (false, e)
  | Ok config -> (
    match H.Registry.of_detector config.H.Config.detector with
    | Some e when e.H.Registry.detector <> H.Config.Ours ->
      detect_replay_module e log_file json
    | _ -> (
    match read_log log_file with
    | log when json ->
      (* The same renderer the serve daemon closes a session with, so a
         streamed session's report frame can be byte-compared against
         this one-shot replay. *)
      let coll, stats = H.Pipeline.detect_post_mortem config log in
      print_endline
        (Drd_serve.Protocol.events_report_body
           ~races:(Drd_core.Report.races coll)
           ~stats ~evictions:0);
      `Ok ()
    | log ->
      let coll, stats = H.Pipeline.detect_post_mortem config log in
      Fmt.pr "replayed %d log entries@." (Drd_core.Event_log.length log);
      Fmt.pr "%a@." Drd_core.Detector.pp_stats stats;
      let racy = Drd_core.Report.racy_locs coll in
      (* Site names are available when the recorded program is known
         (record always compiles with the Full configuration). *)
      let site_name =
        match benchmark with
        | None -> fun s -> Printf.sprintf "site %d" s
        | Some b -> (
            match H.Programs.find b with
            | None -> fun s -> Printf.sprintf "site %d" s
            | Some bench ->
                let compiled =
                  H.Pipeline.compile H.Config.full
                    ~source:bench.H.Programs.b_source
                in
                fun s ->
                  if s < 0 then "<unknown>"
                  else
                    Drd_ir.Site_table.name
                      compiled.H.Pipeline.prog.Drd_ir.Ir.p_sites s)
      in
      if racy = [] then Fmt.pr "@.No dataraces detected.@."
      else begin
        Fmt.pr "@.Dataraces on %d locations:@." (List.length racy);
        List.iter (Fmt.pr "  location %d@.") racy;
        if pairs then begin
          Fmt.pr
            "@.FullRace reconstruction (all racing site pairs, Section 2.5):@.";
          List.iter
            (fun (loc, ps) ->
              Fmt.pr "  location %d:@." loc;
              List.iter
                (fun (p : Drd_core.Full_race.pair) ->
                  Fmt.pr "    %5d× %a at %s  vs  %a at %s@." p.Drd_core.Full_race.fr_count
                    Drd_core.Event.pp_kind p.Drd_core.Full_race.fr_kind_a
                    (site_name p.Drd_core.Full_race.fr_site_a)
                    Drd_core.Event.pp_kind p.Drd_core.Full_race.fr_kind_b
                    (site_name p.Drd_core.Full_race.fr_site_b))
                ps)
            (Drd_core.Full_race.reconstruct log ~locs:racy)
        end
      end;
      `Ok ()))

let detect_cmd =
  let doc = "run the detection phase offline over a recorded log (phase 2)" in
  let log_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LOG" ~doc:"Event log produced by $(b,racedet record).")
  in
  let pairs =
    Arg.(
      value & flag
      & info [ "pairs" ]
          ~doc:"Reconstruct the full set of racing site pairs (FullRace) \
                for each detected location.")
  in
  let bench_for_names =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"The recorded benchmark, to resolve site names.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc)
    Term.(
      ret
        (const detect_impl $ log_file $ config_arg $ detector_arg $ pairs
       $ bench_for_names $ json_arg))

(* ---- sweep: the legacy seed sweep (now a thin campaign) ---- *)

let sweep_impl file benchmark config_name nseeds seed json =
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok source -> (
      match config_of_name config_name seed with
      | Error e -> `Error (false, e)
      | Ok config ->
          let seeds = List.init nseeds (fun i -> i + 1) in
          let { E.Explore.sw_objects = rows; sw_failures = failures } =
            E.Explore.sweep config ~source ~seeds
          in
          if json then
            print_endline
              (W.json_to_string
                 (W.Obj
                    [
                      ("config", W.String config.H.Config.name);
                      ("schedules", W.Int nseeds);
                      ( "objects",
                        W.List
                          (List.map
                             (fun (obj, n) ->
                               W.Obj
                                 [
                                   ("object", W.String obj);
                                   ("runs_reporting", W.Int n);
                                 ])
                             rows) );
                      ( "failures",
                        W.List
                          (List.map
                             (fun (seed, e) ->
                               W.Obj
                                 [
                                   ("seed", W.Int seed);
                                   ("error", W.String e);
                                 ])
                             failures) );
                    ]))
          else begin
            Fmt.pr "racy objects over %d schedules (%s):@." nseeds
              config.H.Config.name;
            if rows = [] then Fmt.pr "  (none)@.";
            List.iter
              (fun (obj, n) -> Fmt.pr "  %4d/%d  %s@." n nseeds obj)
              rows;
            List.iter
              (fun (seed, e) -> Fmt.pr "  seed %d FAILED: %s@." seed e)
              failures
          end;
          `Ok ())

let sweep_cmd =
  let doc = "run across many scheduler seeds and aggregate the reports" in
  let nseeds =
    Arg.(
      value & opt int 10
      & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const sweep_impl $ file_arg $ benchmark_arg $ config_arg $ nseeds
       $ seed_arg $ json_arg))

(* ---- explore: the parallel schedule-exploration campaign ---- *)

let parse_shard = function
  | None -> Ok None
  | Some s -> (
      let bad () =
        Error
          (Printf.sprintf "bad --shard %s (want I/N with 0 <= I < N)" s)
      in
      match String.index_opt s '/' with
      | None -> bad ()
      | Some k -> (
          let i = String.sub s 0 k in
          let n = String.sub s (k + 1) (String.length s - k - 1) in
          match (int_of_string_opt i, int_of_string_opt n) with
          | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (Some (i, n))
          | _ -> bad ()))

let explore_impl file benchmark config_name strategy depth workers batch
    no_ctx_reuse runs max_seconds plateau seed quantum pct_horizon equiv shard
    emit_obs no_timing json =
  or_compile_error @@ fun () ->
  match batch with
  | Some b when b < 1 ->
      `Error (false, Printf.sprintf "bad --batch %d (want >= 1)" b)
  | _ -> (
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok source -> (
      match config_of_name ?quantum config_name seed with
      | Error e -> `Error (false, e)
      | Ok config -> (
          match E.Strategy.of_string strategy with
          | Error e -> `Error (false, e)
          | Ok strategy -> (
            match E.Explore.equiv_of_string equiv with
            | Error e -> `Error (false, e)
            | Ok equiv -> (
              match parse_shard shard with
              | Error e -> `Error (false, e)
              | Ok shard ->
                  let strategy =
                    match strategy with
                    | E.Strategy.Pct _ -> E.Strategy.Pct depth
                    | s -> s
                  in
                  let sp =
                    E.Explore.spec ~strategy ~workers:(max workers 1)
                      ~budget:(E.Explore.budget ?seconds:max_seconds ?plateau runs)
                      ~pct_horizon ~equiv config
                  in
                  let r =
                    E.Explore.run_campaign ?shard ?batch
                      ~reuse_ctx:(not no_ctx_reuse) sp ~source
                  in
                  let target = target_of file benchmark in
                  (match emit_obs with
                  | Some path ->
                      let rows = E.Explore.rows_of_report r in
                      let oc = open_out path in
                      E.Explore.write_obs_channel oc ~target sp rows;
                      close_out oc;
                      (* Diagnostics never on stdout under --json:
                         machine consumers read it. *)
                      (if json then Fmt.epr else Fmt.pr)
                        "wrote %d observation rows%s to %s@."
                        (List.length rows)
                        (match shard with
                        | Some (i, n) -> Printf.sprintf " (shard %d/%d)" i n
                        | None -> "")
                        path
                  | None ->
                      if json then
                        print_endline
                          (E.Explore.report_json ~timing:(not no_timing) r)
                      else
                        print_string
                          (E.Explore.report_text ~timing:(not no_timing)
                             ~target r));
                  `Ok ())))))

let explore_cmd =
  let doc =
    "explore many schedules in parallel and dedupe the race reports"
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock budget; stops claiming new runs once exceeded \
             (makes the campaign non-deterministic).")
  in
  let plateau =
    Arg.(
      value
      & opt (some int) None
      & info [ "plateau" ] ~docv:"K"
          ~doc:
            "Adaptive budget: stop after $(docv) consecutive runs that \
             discover no new distinct race (deterministic, unlike \
             $(b,--max-seconds)).  With $(b,--shard) the window is a \
             campaign-wide property the shard cannot evaluate alone, so \
             each shard runs its full slice and $(b,racedet merge) \
             applies the window.")
  in
  let shard =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Run only shard $(i,I) of $(i,N) — the run indices congruent \
             to I mod N.  Combine with $(b,--emit-obs) and $(b,racedet \
             merge) for distributed campaigns.  A $(b,--plateau) window \
             is deferred to merge time (the shard emits its full slice).")
  in
  let emit_obs =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-obs" ] ~docv:"FILE"
          ~doc:
            "Instead of a report, write the raw run observations \
             (schema-versioned JSON lines) to $(docv) for $(b,racedet \
             merge).")
  in
  let equiv =
    Arg.(
      value & opt string "raw"
      & info [ "equiv" ] ~docv:"MODE"
          ~doc:
            "Schedule-equivalence mode: $(b,raw) fingerprints the exact \
             event order; $(b,hb) fingerprints the happens-before \
             structure and skips detector replay for schedules \
             equivalent to one already seen (the run still counts, and \
             the deduped race report is identical to $(b,raw)'s).")
  in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      ret
        (const explore_impl $ file_arg $ benchmark_arg $ config_arg
       $ strategy_arg $ depth_arg $ workers_arg $ batch_arg
       $ no_ctx_reuse_arg $ runs_arg $ max_seconds
       $ plateau $ seed_arg $ quantum_arg $ pct_horizon_arg $ equiv $ shard
       $ emit_obs $ no_timing_arg $ json_arg))

(* ---- merge: re-fold shard observation files ---- *)

let merge_impl files json =
  if files = [] then
    `Error
      (false, "give at least one OBS file (from racedet explore --emit-obs)")
  else
    (* Stream each file row by row (fold_obs_channel): one line resident
       at a time, so an observation file larger than memory still
       merges.  Only the decoded rows accumulate. *)
    let read_one path =
      match open_in path with
      | exception Sys_error e -> Error e
      | ic -> (
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match
                E.Explore.fold_obs_channel ic ~init:[] ~row:(fun acc r ->
                    r :: acc)
              with
              | Ok (spec, target, rows_rev) ->
                  Ok (spec, target, List.rev rows_rev)
              | Error m -> Error (Printf.sprintf "%s: %s" path m)))
    in
    let rec read_all acc = function
      | [] -> Ok (List.rev acc)
      | p :: ps -> (
          match read_one p with
          | Ok x -> read_all ((p, x) :: acc) ps
          | Error _ as e -> e)
    in
    match read_all [] files with
    | Error e -> data_error "%s" e
    | Ok shards -> (
        let p0, (spec0, target0, _) = List.hd shards in
        match
          List.find_opt
            (fun (_, (sp, _, _)) -> not (E.Explore.compatible spec0 sp))
            (List.tl shards)
        with
        | Some (p, (sp, _, _)) ->
            (* Name the mismatch when it is only the equivalence mode:
               rows recorded under different equivalences fold into
               different class/pruning stats, so mixing them would
               produce a report no single-process campaign matches. *)
            let only_equiv_differs =
              E.Explore.compatible spec0
                { sp with E.Explore.e_equiv = spec0.E.Explore.e_equiv }
            in
            if only_equiv_differs then
              data_error
                "%s records a %s-equivalence campaign but %s records %s \
                 (mixed equivalence modes); refusing to merge"
                p0
                (E.Explore.equiv_name spec0.E.Explore.e_equiv)
                p
                (E.Explore.equiv_name sp.E.Explore.e_equiv)
            else
              data_error
                "%s and %s describe different campaigns (spec mismatch); \
                 refusing to merge"
                p0 p
        | None -> (
            let rows = List.concat_map (fun (_, (_, _, rs)) -> rs) shards in
            let describe_missing missing =
              let shown =
                List.filteri (fun k _ -> k < 8) missing
                |> List.map string_of_int
              in
              Printf.sprintf "%d of %d run indices missing (%s%s)"
                (List.length missing) spec0.E.Explore.e_budget.E.Explore.b_runs
                (String.concat ", " shown)
                (if List.length missing > 8 then ", ..." else "")
            in
            match E.Explore.check_shard_set spec0 rows with
            | Error (E.Explore.Duplicate_index i) ->
                data_error
                  "run index %d appears in more than one input (overlapping \
                   shards?); refusing to merge"
                  i
            | Error (E.Explore.Missing_indices missing) ->
                data_error
                  "%s — incomplete shard set or truncated file? refusing to \
                   merge"
                  (describe_missing missing)
            | Ok missing ->
                if missing <> [] then
                  Printf.eprintf
                    "warning: %s; assuming the campaign's wall-clock/plateau \
                     budget stopped those runs\n\
                     %!"
                    (describe_missing missing);
                let r = E.Explore.merge spec0 rows in
                if json then
                  print_endline (E.Explore.report_json ~timing:false r)
                else
                  print_string
                    (E.Explore.report_text ~timing:false ~target:target0 r);
                `Ok ()))

let merge_cmd =
  let doc = "merge shard observation files into one campaign report" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Validates that every input records the same campaign \
         (configuration, strategy, budget — worker fan-out may differ), \
         that no run index appears twice (overlapping shards), and — \
         for purely runs-based budgets — that every run index is \
         present (an incomplete shard set is an error; under a \
         wall-clock or plateau budget gaps only warn).  It then \
         re-folds the observations in run-index order.  The report is \
         byte-identical to running the whole campaign in one process \
         with $(b,--no-timing).";
      `P
        "Produce inputs with $(b,racedet explore --shard I/N --emit-obs \
         FILE).";
    ]
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"OBS"
          ~doc:"Observation files from $(b,racedet explore --emit-obs).")
  in
  Cmd.v
    (Cmd.info "merge" ~doc ~man)
    Term.(ret (const merge_impl $ files $ json_arg))

(* ---- serve: the long-lived streaming detection daemon ---- *)

let serve_impl config_name socket stats_every evict_high evict_low =
  match
    Result.bind (config_of_name config_name 42) Drd_serve.Session.events_config
  with
  | Error e -> `Error (false, e)
  | Ok config -> (
      match
        match evict_high with
        | None ->
            if evict_low <> None then
              Error "--evict-low is meaningless without --evict-high"
            else Ok None
        | Some high -> (
            match Drd_core.Detector.eviction ?low:evict_low ~high () with
            | ev -> Ok (Some ev)
            | exception Invalid_argument m -> Error m)
      with
      | Error e -> `Error (false, e)
      | Ok eviction -> (
          let conf =
            {
              Drd_serve.Server.sv_config = config;
              sv_eviction = eviction;
              sv_stats_every = stats_every;
            }
          in
          match socket with
          | Some path -> (
              match Drd_serve.Server.serve_socket conf ~path () with
              | Ok () -> `Ok ()
              | Error e -> `Error (false, e))
          | None -> (
              match Drd_serve.Server.serve_channels conf stdin stdout with
              | Ok () -> `Ok ()
              | Error e -> data_error "%s" e)))

let serve_cmd =
  let doc = "long-lived streaming detection daemon (service mode)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Accepts newline-delimited frames: event-log lines (the \
         $(b,racedet record) text format) and observation-wire lines are \
         payload; JSON lines tagged $(b,hello)/$(b,stats)/$(b,close)/\
         $(b,shutdown) are control.  Each $(b,hello) opens a session \
         ($(b,events): incremental detection, racy locations reported the \
         moment they are found; $(b,obs): a streaming $(b,racedet merge)); \
         $(b,close) — or end of stream — emits the session's final report \
         frame.  A payload line before any $(b,hello) implicitly opens a \
         default events session, so $(b,cat events.log | racedet serve) \
         works bare.";
      `P
        "Without $(b,--socket) the daemon serves one connection on \
         stdin/stdout.  With it, a Unix-domain socket accepts any number \
         of concurrent client connections.";
      `P
        "Memory is bounded with $(b,--evict-high): when more locations \
         than that are tracked, the least-recently-accessed ones are \
         retired down to $(b,--evict-low) (default half of high).  \
         Eviction never changes the report for a location that is never \
         evicted; a retired location that is accessed again re-enters as \
         brand new.  Periodic machine-readable stats lines go to stderr, \
         never into the protocol stream.";
    ]
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of stdin/stdout.")
  in
  let stats_every =
    Arg.(
      value & opt float 10.
      & info [ "stats-every" ] ~docv:"S"
          ~doc:"Seconds between stderr stats lines (0 disables them).")
  in
  let evict_high =
    Arg.(
      value
      & opt (some int) None
      & info [ "evict-high" ] ~docv:"N"
          ~doc:
            "Evict quiescent locations once more than $(docv) are tracked \
             (default: never evict; memory grows with distinct locations).")
  in
  let evict_low =
    Arg.(
      value
      & opt (some int) None
      & info [ "evict-low" ] ~docv:"N"
          ~doc:
            "Keep the $(docv) most recently accessed locations when \
             evicting (default: half of $(b,--evict-high)).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      ret
        (const serve_impl $ config_arg $ socket $ stats_every $ evict_high
       $ evict_low))

(* ---- arena: differential detector testing on generated programs ---- *)

let arena_impl count seed max_units max_steps detectors no_shrink
    fail_on_miss repro_dir json =
  let detectors =
    match detectors with [] -> H.Registry.all | ds -> ds
  in
  let opts =
    {
      A.o_seed = seed;
      o_count = count;
      o_max_units = max_units;
      o_max_steps = max_steps;
      o_detectors = detectors;
      o_shrink = not no_shrink;
    }
  in
  let r = A.run opts in
  if json then print_string (A.to_json r)
  else Fmt.pr "%a" A.pp_report r;
  (match repro_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let write name text =
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        (* Diagnostics never on stdout under --json. *)
        (if json then Fmt.epr else Fmt.pr) "wrote %s@." path
      in
      List.iter
        (fun (p : A.pair) ->
          match p.A.pr_example with
          | None -> ()
          | Some x ->
              write
                (Printf.sprintf "arena_%s_over_%s.mj" p.A.pr_reporter
                   p.A.pr_silent)
                (A.repro_source ~reporter:p.A.pr_reporter
                   ~silent:p.A.pr_silent x))
        r.A.r_pairs;
      List.iter
        (fun (m : A.miss) ->
          match m.A.ms_example with
          | None -> ()
          | Some x ->
              write
                (Printf.sprintf "arena_miss_%s.mj" m.A.ms_detector)
                (Fmt.str
                   "// Arena-shrunk GROUND-TRUTH MISS: %s stayed quiet on \
                    the\n\
                    // guaranteed race %s.\n%s"
                   m.A.ms_detector x.A.x_marker (Drd_arena.Gen.emit x.A.x_shrunk)))
        r.A.r_misses);
  match fail_on_miss with
  | Some (e : H.Registry.entry)
    when A.guaranteed_misses r ~detector:e.H.Registry.name > 0 ->
      Fmt.epr "racedet arena: %s missed %d guaranteed race(s)@."
        e.H.Registry.name
        (A.guaranteed_misses r ~detector:e.H.Registry.name);
      exit 1
  | _ -> `Ok ()

let arena_cmd =
  let doc = "differentially test the detectors on generated programs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a deterministic corpus of well-typed concurrent \
         MiniJava programs composed from synchronization idioms — \
         mutexes, fork/join chains, wait/notify signaling, worker-loop \
         queues — with seeded races and known-safe twins, so every \
         program carries ground truth.  Runs every selected detector \
         over every program on the same schedule, scores each against \
         the labels (precision, recall, guaranteed-race misses), counts \
         pairwise disagreements, and shrinks the first witness of each \
         disagreement direction to a minimal program.";
      `P
        "Racy cells are labelled $(i,guaranteed) (every detector reports \
         them in every schedule; silence is unambiguously a miss — the \
         count $(b,--fail-on-miss) gates on) or $(i,feasible) \
         (schedule-dependent, e.g. races hidden behind an accidental \
         lock-order edge; counted toward recall only).";
      `P
        "For a fixed seed/count/detector set the $(b,--json) report is \
         byte-identical across invocations.";
    ]
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "n"; "programs" ] ~docv:"N" ~doc:"Programs to generate.")
  in
  let max_units =
    Arg.(
      value & opt int 4
      & info [ "max-units" ] ~docv:"N"
          ~doc:"Idiom units per program (1 to $(docv)).")
  in
  let max_steps =
    Arg.(
      value & opt int 400_000
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "VM step budget per run; a program exceeding it scores as an \
             error verdict.")
  in
  let detectors =
    Arg.(
      value
      & opt_all detector_conv []
      & info [ "detector" ] ~docv:"NAME"
          ~doc:
            "Restrict the arena to the named detectors (repeatable; \
             default: all).  Same names as $(b,run --detector).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:
            "Skip shrinking disagreement/miss witnesses (saves the extra \
             runs; the example specs stay as first seen).")
  in
  let fail_on_miss =
    Arg.(
      value
      & opt (some detector_conv) None
      & info [ "fail-on-miss" ] ~docv:"NAME"
          ~doc:
            "Exit 1 if $(docv) missed any guaranteed race — the CI gate \
             for the paper detector.")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"DIR"
          ~doc:
            "Write each shrunk disagreement/miss witness as a standalone \
             MiniJava reproducer under $(docv).")
  in
  Cmd.v
    (Cmd.info "arena" ~doc ~man)
    Term.(
      ret
        (const arena_impl $ count $ seed_arg $ max_units $ max_steps
       $ detectors $ no_shrink $ fail_on_miss $ repro_dir $ json_arg))

(* ---- list ---- *)

let list_impl () =
  Fmt.pr "Benchmarks (plus the paper's 'figure2' / 'figure2-samelock' examples):@.";
  List.iter
    (fun (b : H.Programs.benchmark) ->
      Fmt.pr "  %-10s %s@." b.H.Programs.b_name b.H.Programs.b_description)
    H.Programs.benchmarks;
  Fmt.pr "@.Configurations:@.";
  List.iter
    (fun (c : H.Config.t) ->
      Fmt.pr "  %-14s static=%b weaker=%b peel=%b cache=%b ownership=%b@."
        c.H.Config.name c.H.Config.static_analysis c.H.Config.weaker_elim
        c.H.Config.loop_peel c.H.Config.use_cache c.H.Config.use_ownership)
    H.Config.all;
  Fmt.pr "@.Detectors (run/detect/arena --detector):@.";
  List.iter
    (fun (e : H.Registry.entry) ->
      Fmt.pr "  %-8s %s%s@." e.H.Registry.name (H.Registry.describe e)
        (match e.H.Registry.aliases with
        | [] -> ""
        | a -> Printf.sprintf " (aliases: %s)" (String.concat ", " a)))
    H.Registry.all;
  `Ok ()

let list_cmd =
  let doc = "list built-in benchmarks and configurations" in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const list_impl $ const ()))

let () =
  let doc = "efficient and precise datarace detection (PLDI 2002)" in
  let exits =
    Cmd.Exit.info data_error_exit
      ~doc:
        "on malformed input data (a truncated or corrupt event log, \
         observation file or protocol stream) — distinct from \
         command-line misuse (124) and internal errors (125)."
    :: Cmd.Exit.defaults
  in
  let info = Cmd.info "racedet" ~version:"1.0" ~doc ~exits in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            explore_cmd;
            merge_cmd;
            serve_cmd;
            analyze_cmd;
            ir_cmd;
            record_cmd;
            detect_cmd;
            sweep_cmd;
            arena_cmd;
            list_cmd;
          ]))
