(* Golden byte-identity for the link phase: the linked-image interpreter
   ([Interp]) and the frozen pre-link block interpreter ([Interp_ref])
   must be indistinguishable through every observable channel — full
   race reports, racy-object lists, event/step/thread counts, prints,
   the complete recorded event log, the raw interleaving fingerprint and
   the happens-before fingerprint — for every example program under
   every scheduling family (sweep, jitter, pct).  A run that dies (e.g.
   needle's seed-dependent wait() deadlock) must die identically: same
   error string, same event-log prefix.  Every run's own raw fingerprint
   ([Pipeline.result.fingerprint], folded inside the run) must equal the
   reference tap's ([Explore.fingerprint_tap]), on every engine, and
   with the detector off too for the benchmark x strategy cases.

   Engines agreeing with each other does not show that their shared
   semantics held across a change to both.  So every case also renders
   what its [Interp_ref] runs observed and compares the MD5 with the
   digest recorded in [vm_identity.txt] (one [<md5> <case name>] line
   per case).  On a mismatch the test writes the current digests to
   [_build/default/test/vm_identity.actual]; copy it over only for a
   change that means to alter VM semantics. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Programs = H.Programs
module Strategy = Drd_explore.Strategy
module Explore = Drd_explore.Explore
module Hb_fingerprint = Drd_explore.Hb_fingerprint
module Interp = Drd_vm.Interp
module Sink = Drd_vm.Sink
module Value = Drd_vm.Value
open Drd_core

(* A sink recording every notification into an event log (the post-
   mortem recording sink, as a tap). *)
let log_tap () =
  let log = Event_log.create () in
  let sink =
    {
      Sink.access =
        (fun ~tid ~loc ~kind ~locks ~site ->
          Event_log.record log
            (Event_log.Access
               (Event.make_interned ~loc ~thread:tid ~locks ~kind ~site)));
      acquire =
        (fun ~tid ~lock -> Event_log.record log (Event_log.Acquire (tid, lock)));
      release =
        (fun ~tid ~lock -> Event_log.record log (Event_log.Release (tid, lock)));
      thread_start =
        (fun ~parent ~child ->
          Event_log.record log (Event_log.Thread_start (parent, child)));
      thread_join =
        (fun ~joiner ~joinee ->
          Event_log.record log (Event_log.Thread_join (joiner, joinee)));
      thread_exit =
        (fun ~tid -> Event_log.record log (Event_log.Thread_exit tid));
      call = None;
      spec = None;
    }
  in
  (sink, log)

type obs = {
  o_error : string option; (* Runtime_error message, if the run died *)
  o_races : string list;
  o_objects : string list;
  o_events : int;
  o_steps : int;
  o_threads : int;
  o_prints : (string * Value.t option) list;
  o_log : Event_log.entry list;
  o_interleave_fp : int;
  o_hb_fp : int;
}

(* Runs [compiled] on [engine] with every tap attached, and checks the
   run's own raw fingerprint against the reference tap's. *)
let observe ?(detect = true) ~label ~engine compiled vm : obs =
  let log_sink, log = log_tap () in
  let fp_sink, fp = Explore.fingerprint_tap () in
  let hb_sink, hb = Hb_fingerprint.tap () in
  let tap = Sink.tee log_sink (Sink.tee fp_sink hb_sink) in
  let empty =
    {
      o_error = None;
      o_races = [];
      o_objects = [];
      o_events = 0;
      o_steps = 0;
      o_threads = 0;
      o_prints = [];
      o_log = [];
      o_interleave_fp = 0;
      o_hb_fp = 0;
    }
  in
  let finish o =
    { o with o_log = Event_log.entries log; o_interleave_fp = fp (); o_hb_fp = hb () }
  in
  match Pipeline.run ~vm ~tap ~detect ~engine compiled with
  | r ->
      if r.Pipeline.fingerprint <> fp () then
        Alcotest.failf
          "%s [%s%s]: the run's fingerprint %#x, the reference tap's %#x"
          label
          (match engine with
          | `Ref -> "ref"
          | `Linked -> "linked"
          | `Spec -> "spec")
          (if detect then "" else ", detector off")
          r.Pipeline.fingerprint (fp ());
      finish
        {
          empty with
          o_races = r.Pipeline.races;
          o_objects = r.Pipeline.racy_objects;
          o_events = r.Pipeline.events;
          o_steps = r.Pipeline.steps;
          o_threads = r.Pipeline.threads;
          o_prints = r.Pipeline.prints;
        }
  | exception Interp.Runtime_error m -> finish { empty with o_error = Some m }

(* Locksets render by content: interned ids depend on what else the
   process interned first, and the digests must not. *)
let render_entry = function
  | Event_log.Access e ->
      Printf.sprintf "A t%d l%d %s s%d L{%s}" e.Event.thread e.Event.loc
        (match e.Event.kind with Event.Read -> "R" | Event.Write -> "W")
        e.Event.site
        (String.concat ","
           (List.map string_of_int
              (Lockset.to_sorted_list (Lockset_id.set_of e.Event.locks))))
  | Event_log.Acquire (t, l) -> Printf.sprintf "acq t%d l%d" t l
  | Event_log.Release (t, l) -> Printf.sprintf "rel t%d l%d" t l
  | Event_log.Thread_start (p, c) -> Printf.sprintf "start %d->%d" p c
  | Event_log.Thread_join (j, e) -> Printf.sprintf "join %d<-%d" j e
  | Event_log.Thread_exit t -> Printf.sprintf "exit %d" t

let check_logs name (ref_log : Event_log.entry list) linked_log =
  let nref = List.length ref_log and nlin = List.length linked_log in
  if nref <> nlin then
    Alcotest.failf "%s: event log length %d (ref) vs %d (linked)" name nref
      nlin;
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "%s: event log diverges at entry %d: %s (ref) vs %s \
                        (linked)"
          name i (render_entry a) (render_entry b))
    (List.combine ref_log linked_log)

(* ---- digests pinned in vm_identity.txt ---- *)

let digest_file = "vm_identity.txt"

let recorded =
  lazy
    (let ic = open_in_bin digest_file in
     let rec go acc =
       match input_line ic with
       | line -> (
           match String.index_opt line ' ' with
           | Some i ->
               go
                 (( String.sub line (i + 1) (String.length line - i - 1),
                    String.sub line 0 i )
                 :: acc)
           | None -> Alcotest.failf "%s: malformed line %S" digest_file line)
       | exception End_of_file ->
           close_in ic;
           List.rev acc
     in
     go [])

(* Digests computed by this process, in case order. *)
let current : (string * string) list ref = ref []

let write_actual () =
  let want = Lazy.force recorded in
  let oc = open_out_bin "vm_identity.actual" in
  List.iter
    (fun (case, md5) ->
      let md5 = Option.value (List.assoc_opt case !current) ~default:md5 in
      Printf.fprintf oc "%s %s\n" md5 case)
    want;
  List.iter
    (fun (case, md5) ->
      if not (List.mem_assoc case want) then
        Printf.fprintf oc "%s %s\n" md5 case)
    (List.rev !current);
  close_out oc

(* Run [f] with a buffer for the case's reference observations, then
   check their digest against the recorded one. *)
let pinned case f =
  let buf = Buffer.create 65536 in
  f buf;
  let md5 = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  current := (case, md5) :: List.remove_assoc case !current;
  match List.assoc_opt case (Lazy.force recorded) with
  | Some m when m = md5 -> ()
  | recorded_md5 ->
      write_actual ();
      Alcotest.failf
        "%s: reference observations digest %s, recorded %s (current digests \
         in vm_identity.actual)"
        case md5
        (Option.value recorded_md5 ~default:"nothing")

let render_prints buf prints =
  List.iter
    (fun (tag, v) ->
      Printf.bprintf buf "print %s=%s\n" tag
        (match v with Some v -> Fmt.str "%a" Value.pp v | None -> "()"))
    prints

let render_log buf log =
  List.iter (fun e -> Printf.bprintf buf "%s\n" (render_entry e)) log

let render_obs buf label (o : obs) =
  Printf.bprintf buf "run %s\nerror %s\n" label
    (Option.value o.o_error ~default:"-");
  List.iter (Printf.bprintf buf "race %s\n") o.o_races;
  List.iter (Printf.bprintf buf "object %s\n") o.o_objects;
  Printf.bprintf buf "events %d steps %d threads %d\n" o.o_events o.o_steps
    o.o_threads;
  render_prints buf o.o_prints;
  render_log buf o.o_log;
  Printf.bprintf buf "fp %d hb %d\n" o.o_interleave_fp o.o_hb_fp

let check_obs name (a : obs) (b : obs) =
  Alcotest.(check (option string)) (name ^ " error") a.o_error b.o_error;
  Alcotest.(check (list string)) (name ^ " races") a.o_races b.o_races;
  Alcotest.(check (list string)) (name ^ " objects") a.o_objects b.o_objects;
  Alcotest.(check int) (name ^ " events") a.o_events b.o_events;
  Alcotest.(check int) (name ^ " steps") a.o_steps b.o_steps;
  Alcotest.(check int) (name ^ " threads") a.o_threads b.o_threads;
  Alcotest.(check int)
    (name ^ " prints") (List.length a.o_prints) (List.length b.o_prints);
  if a.o_prints <> b.o_prints then Alcotest.failf "%s: prints differ" name;
  check_logs name a.o_log b.o_log;
  Alcotest.(check int)
    (name ^ " interleaving fp") a.o_interleave_fp b.o_interleave_fp;
  Alcotest.(check int) (name ^ " hb fp") a.o_hb_fp b.o_hb_fp

(* Every example program: the Table 1 benchmark ports plus the paper's
   Figure 2 example. *)
let sources =
  ("figure2", Programs.figure2 ())
  :: List.map
       (fun b -> (b.Programs.b_name, b.Programs.b_source))
       Programs.benchmarks

let compiled_of =
  (* Compile once per program (static analysis is the slow part) and
     reuse across the strategy families. *)
  let memo = Hashtbl.create 8 in
  fun name source ->
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
        let c = Pipeline.compile Config.full ~source in
        Hashtbl.add memo name c;
        c

let vm_of compiled (sp : Strategy.run_spec) =
  {
    (Pipeline.vm_config_of compiled.Pipeline.config) with
    Interp.seed = sp.Strategy.sp_seed;
    quantum = sp.Strategy.sp_quantum;
    policy = sp.Strategy.sp_policy;
  }

let runs_per_strategy = 3

let test_identity ~case name source strategy () =
  let compiled = compiled_of name source in
  pinned case @@ fun buf ->
  for index = 0 to runs_per_strategy - 1 do
    let sp =
      Strategy.spec strategy ~base:compiled.Pipeline.config
        ~pct_horizon:20_000 index
    in
    let vm = vm_of compiled sp in
    let label = Printf.sprintf "%s %s #%d" name (Strategy.name strategy) index in
    let a = observe ~label ~engine:`Ref compiled vm in
    render_obs buf label a;
    let b = observe ~label ~engine:`Linked compiled vm in
    check_obs label a b;
    (* The specialized engine's fast paths must be invisible through
       every observable channel too — including the tapped event log,
       where a wrongly dropped event would surface. *)
    let c = observe ~label ~engine:`Spec compiled vm in
    check_obs (label ^ " [spec]") a c;
    (* The fingerprint-only pass a campaign makes under hb equivalence:
       the same schedule, no detector, so no races. *)
    List.iter
      (fun engine ->
        check_obs (label ^ " [detector off]")
          { a with o_races = []; o_objects = [] }
          (observe ~detect:false ~label ~engine compiled vm))
      [ `Ref; `Linked; `Spec ]
  done

let test_record_log ~case name source () =
  (* The post-mortem recording path proper (not just its sink as a tap)
     must also be engine-independent. *)
  let compiled = compiled_of name source in
  pinned case @@ fun buf ->
  let log_ref, r_ref = Pipeline.record_log ~engine:`Ref compiled in
  render_log buf (Event_log.entries log_ref);
  Printf.bprintf buf "steps %d threads %d\n" r_ref.Pipeline.steps
    r_ref.Pipeline.threads;
  render_prints buf r_ref.Pipeline.prints;
  let log_lin, r_lin = Pipeline.record_log ~engine:`Linked compiled in
  check_logs (name ^ " record_log") (Event_log.entries log_ref)
    (Event_log.entries log_lin);
  Alcotest.(check int)
    (name ^ " record_log steps") r_ref.Pipeline.steps r_lin.Pipeline.steps

(* ---- PCT identity across quanta, depths and generated programs ----

   The slice loop skips a PCT decision at a quantum boundary when no op
   since the last decision could have changed readiness (DESIGN.md
   §12).  A readiness-changing op that forgets to say so diverges from
   [Interp_ref] only at some quanta and on some sync idioms, which the
   three strategy specs above never reach; so every program also runs
   under PCT at every quantum, depth and seed below, the generated
   arena programs adding idioms the benchmarks lack.  The horizon is the
   program's own step count, so the change points land inside the
   run. *)
let grid_quanta = [ 1; 2; 5; 20 ]
let grid_depths = [ 1; 3 ]
let grid_seeds = [ 1; 2; 3; 4; 5; 6 ]

let generated =
  List.map
    (fun (sp : Drd_arena.Gen.spec) ->
      ( Printf.sprintf "gen7#%d" sp.Drd_arena.Gen.sp_index,
        Drd_arena.Gen.emit sp ))
    (Drd_arena.Gen.generate ~seed:7 ~count:40 ())

let test_pct_grid ~case programs () =
  pinned case @@ fun buf ->
  List.iter
    (fun (name, source) ->
      let compiled = compiled_of name source in
      let base = Pipeline.vm_config_of compiled.Pipeline.config in
      let horizon =
        match Pipeline.run ~vm:base ~detect:false compiled with
        | r -> max 1 r.Pipeline.steps
        | exception Interp.Runtime_error _ -> 20_000
      in
      List.iter
        (fun quantum ->
          List.iter
            (fun depth ->
              List.iter
                (fun seed ->
                  let vm =
                    {
                      base with
                      Interp.seed;
                      quantum;
                      policy = Interp.Pct { depth; horizon };
                    }
                  in
                  let label =
                    Printf.sprintf "%s pct(d=%d) quantum %d seed %d" name depth
                      quantum seed
                  in
                  let a = observe ~label ~engine:`Ref compiled vm in
                  render_obs buf label a;
                  check_obs label a (observe ~label ~engine:`Linked compiled vm);
                  check_obs (label ^ " [spec]") a
                    (observe ~label ~engine:`Spec compiled vm))
                grid_seeds)
            grid_depths)
        grid_quanta)
    programs

let suite =
  let strategies =
    [ Strategy.Sweep; Strategy.Jitter; Strategy.Pct 3 ]
  in
  List.concat_map
    (fun (name, source) ->
      List.map
        (fun strategy ->
          let case =
            Printf.sprintf "%s x %s byte-identical" name
              (Strategy.name strategy)
          in
          Alcotest.test_case case `Quick
            (test_identity ~case name source strategy))
        strategies
      @ (let case = name ^ " record_log byte-identical" in
         [ Alcotest.test_case case `Quick (test_record_log ~case name source) ])
      @
      let case = name ^ " x pct grid byte-identical" in
      [
        Alcotest.test_case case `Quick
          (test_pct_grid ~case [ (name, source) ]);
      ])
    sources
  @
  let case = "generated (seed 7) x pct grid byte-identical" in
  [ Alcotest.test_case case `Quick (test_pct_grid ~case generated) ]
