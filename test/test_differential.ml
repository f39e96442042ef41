(* Differential testing of the whole pipeline: random multithreaded
   MiniJava programs are generated, compiled, fully instrumented and
   executed; the recorded event stream gives a ground-truth quadratic
   IsRace oracle, which is compared against the detector's reports.

   Checked properties (per random program):
   - completeness (Definition 1, ownership off): every truly racy
     location is reported, with and without the runtime cache;
   - the cache never adds reports;
   - the ownership model never adds reports over no-ownership. *)

module H = Drd_harness
open Drd_core

(* ---- random program specs ---- *)

type op = { sync : int option; field : int; write : bool }

type spec = {
  nfields : int;
  nlocks : int;
  inits : int list; (* fields main initializes before start *)
  threads : op list list; (* 2..3 workers *)
}

let gen_op ~nfields ~nlocks =
  QCheck.Gen.(
    map3
      (fun sync field write ->
        { sync = (if sync = 0 then None else Some (sync - 1)); field; write })
      (int_bound nlocks) (int_bound (nfields - 1)) bool)

let gen_spec =
  QCheck.Gen.(
    let* nfields = int_range 2 4 in
    let* nlocks = int_range 1 2 in
    let* nthreads = int_range 2 3 in
    let* threads =
      list_repeat nthreads (list_size (int_range 2 7) (gen_op ~nfields ~nlocks))
    in
    let* inits = list_size (int_bound (nfields - 1)) (int_bound (nfields - 1)) in
    return { nfields; nlocks; inits; threads })

let source_of_spec spec =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.bprintf b fmt in
  pf "class G {\n";
  for f = 0 to spec.nfields - 1 do
    pf "  static int f%d;\n" f
  done;
  for l = 0 to spec.nlocks - 1 do
    pf "  static Object l%d;\n" l
  done;
  pf "}\n";
  List.iteri
    (fun i ops ->
      pf "class W%d extends Thread {\n  void run() {\n    int t = 0;\n" i;
      List.iter
        (fun op ->
          let body =
            if op.write then
              Printf.sprintf "G.f%d = G.f%d + 1;" op.field op.field
            else Printf.sprintf "t = t + G.f%d;" op.field
          in
          match op.sync with
          | Some l -> pf "    synchronized (G.l%d) { %s }\n" l body
          | None -> pf "    %s\n" body)
        ops;
      pf "    print(\"t%d\", t);\n  }\n}\n" i)
    spec.threads;
  pf "class Main {\n  static void main() {\n";
  for l = 0 to spec.nlocks - 1 do
    pf "    G.l%d = new Object();\n" l
  done;
  List.iter (fun f -> pf "    G.f%d = %d;\n" f f) spec.inits;
  List.iteri (fun i _ -> pf "    W%d w%d = new W%d();\n" i i i) spec.threads;
  List.iteri (fun i _ -> pf "    w%d.start();\n" i) spec.threads;
  List.iteri (fun i _ -> pf "    w%d.join();\n" i) spec.threads;
  pf "    int total = 0;\n";
  for f = 0 to spec.nfields - 1 do
    pf "    total = total + G.f%d;\n" f
  done;
  pf "    print(\"total\", total);\n  }\n}\n";
  Buffer.contents b

let print_spec spec = source_of_spec spec

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* ---- oracle and detector runs over the same recorded stream ---- *)

let oracle_racy_locs log =
  let events =
    List.filter_map
      (function Event_log.Access e -> Some e | _ -> None)
      (Event_log.entries log)
  in
  let events = Array.of_list events in
  let racy = Hashtbl.create 8 in
  Array.iteri
    (fun i ei ->
      Array.iteri
        (fun j ej ->
          if i < j && Event.is_race ei ej then
            Hashtbl.replace racy ei.Event.loc ())
        events)
    events;
  Hashtbl.fold (fun l () acc -> l :: acc) racy [] |> List.sort compare

let detector_racy_locs ~use_cache ~use_ownership log =
  let collector = Report.collector () in
  let det =
    Detector.create
      ~config:{ Detector.default_config with Detector.use_cache; use_ownership }
      collector
  in
  Event_log.replay log det;
  List.sort compare (Report.racy_locs collector)

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_pipeline_differential =
  QCheck.Test.make ~count:60 ~name:"pipeline vs quadratic oracle" arb_spec
    (fun spec ->
      let source = source_of_spec spec in
      (* Fully instrumented recording run (seed fixed by the config). *)
      let compiled =
        H.Pipeline.compile
          { H.Config.no_static with H.Config.weaker_elim = false; loop_peel = false }
          ~source
      in
      let log, _ = H.Pipeline.record_log compiled in
      let oracle = oracle_racy_locs log in
      let plain = detector_racy_locs ~use_cache:false ~use_ownership:false log in
      let cached = detector_racy_locs ~use_cache:true ~use_ownership:false log in
      let owned = detector_racy_locs ~use_cache:true ~use_ownership:true log in
      subset oracle plain && subset oracle cached && subset cached plain
      && subset owned plain)

(* End-to-end soundness of the optimizing pipeline itself: on random
   programs, the FULLY optimized configuration (static race set, static
   weaker-than elimination, loop peeling, caches — ownership off so the
   oracle applies) must still report every truly racy location.  Heap
   ids are deterministic across configurations for these programs (all
   allocation happens in main, in program order), so decoded location
   names are comparable. *)
let prop_optimized_pipeline_sound =
  QCheck.Test.make ~count:40 ~name:"optimized pipeline vs oracle" arb_spec
    (fun spec ->
      let source = source_of_spec spec in
      (* Ground truth from a fully instrumented recording. *)
      let recording =
        H.Pipeline.compile
          { H.Config.no_static with H.Config.weaker_elim = false; loop_peel = false }
          ~source
      in
      let log, rec_result = H.Pipeline.record_log recording in
      let describe =
        Drd_vm.Memloc.describe recording.H.Pipeline.prog.Drd_ir.Ir.p_tprog
          rec_result.H.Pipeline.heap
      in
      let oracle = List.map describe (oracle_racy_locs log) in
      (* The optimized pipeline with ownership off. *)
      let _, opt = H.Pipeline.run_source H.Config.no_ownership source in
      let ok = subset oracle opt.H.Pipeline.races in
      if not ok then
        QCheck.Test.fail_reportf "oracle: %s@.optimized: %s"
          (String.concat ", " oracle)
          (String.concat ", " opt.H.Pipeline.races);
      true)

(* Deterministic spot checks derived from the same machinery. *)
let test_known_racy_spec () =
  let spec =
    {
      nfields = 2;
      nlocks = 1;
      inits = [ 0; 1 ];
      threads =
        [
          [ { sync = None; field = 0; write = true };
            { sync = Some 0; field = 1; write = true } ];
          [ { sync = None; field = 0; write = true };
            { sync = Some 0; field = 1; write = true } ];
        ];
    }
  in
  let source = source_of_spec spec in
  let _, r = H.Pipeline.run_source H.Config.full source in
  (* f0 races (unsynchronized writes by two threads), f1 does not. *)
  Alcotest.(check bool) "f0 flagged" true
    (List.exists (fun l -> Astring_contains.contains l "G.f0") r.H.Pipeline.races);
  Alcotest.(check bool) "f1 quiet" true
    (not (List.exists (fun l -> Astring_contains.contains l "G.f1") r.H.Pipeline.races))

let suite =
  [
    Alcotest.test_case "known racy spec" `Quick test_known_racy_spec;
    QCheck_alcotest.to_alcotest prop_pipeline_differential;
    QCheck_alcotest.to_alcotest prop_optimized_pipeline_sound;
  ]
