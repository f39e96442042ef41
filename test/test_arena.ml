(* The differential detector arena: the generator's programs are
   well-typed and terminate, the per-idiom ground-truth matrix holds
   verbatim, reports are deterministic for a fixed seed, and the
   shrinker reduces a seeded disagreement to its single-unit core. *)

module G = Drd_arena.Gen
module A = Drd_arena.Arena
module R = Drd_harness.Registry

let quick_opts =
  { A.default_options with A.o_shrink = false; o_count = 60 }

let one_unit ?(iters = 2) idiom =
  { G.sp_index = 0; G.sp_units = [ G.make_unit ~id:0 ~idiom ~iters ] }

let entry name = Option.get (R.find name)

(* ---- registry ---- *)

let test_registry () =
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check bool)
        (e.R.name ^ ": a baseline module exactly when not the paper detector")
        (e.R.name <> "paper")
        (R.baseline e.R.detector <> None);
      let resolves_to_self s =
        match R.find s with
        | Some e' -> e'.R.name = e.R.name
        | None -> false
      in
      Alcotest.(check bool)
        (e.R.name ^ ": found by own name")
        true
        (resolves_to_self e.R.name);
      List.iter
        (fun a ->
          Alcotest.(check bool) (a ^ ": alias resolves") true
            (resolves_to_self a))
        e.R.aliases)
    R.all;
  Alcotest.(check bool) "case-insensitive" true (R.find "ERASER" <> None);
  Alcotest.(check bool) "unknown is None" true (R.find "nosuch" = None);
  Alcotest.(check bool)
    "NoDetect has no entry" true
    (R.of_detector Drd_harness.Config.NoDetect = None)

(* ---- the ground-truth matrix, pinned idiom by idiom ----

   For every idiom and every detector, which ground-truth cells get
   reported on the arena's schedule.  `None` marks verdicts that are
   legitimately schedule-dependent (feasible races under detectors
   with ownership/happens-before exemptions) and so not pinned. *)

let matrix :
    (G.idiom * (string * (string * bool option) list) list) list =
  let all v markers = List.map (fun m -> (m, v)) markers in
  [
    (G.Sync_counter, [ ("G.d0s", all (Some false) [ "paper"; "eraser"; "objrace"; "vclock" ]) ]);
    (G.Rendezvous_race G.Ww, [ ("G.d0r", all (Some true) [ "paper"; "eraser"; "objrace"; "vclock" ]) ]);
    ( G.Rendezvous_race G.Rw,
      [
        ("G.d0r", all (Some true) [ "paper"; "eraser"; "objrace"; "vclock" ]);
        ("G.d0s", all (Some false) [ "paper"; "eraser"; "objrace"; "vclock" ]);
      ] );
    ( G.Join_handoff,
      [
        ( "G.d0s",
          [
            ("paper", Some false);
            ("eraser", Some true);
            ("objrace", Some true);
            ("vclock", Some false);
          ] );
      ] );
    ( G.Start_chain,
      [
        ( "G.d0s",
          [
            ("paper", Some true);
            ("eraser", Some true);
            ("objrace", Some true);
            ("vclock", Some false);
          ] );
      ] );
    ( G.Ping_pong,
      [
        ( "G.d0s",
          [
            ("paper", Some true);
            ("eraser", Some true);
            ("objrace", Some true);
            ("vclock", Some false);
          ] );
      ] );
    ( G.Oneshot_handoff,
      [
        ( "G.d0s",
          [
            ("paper", Some false);
            ("eraser", Some true);
            ("objrace", Some false);
            ("vclock", Some false);
          ] );
      ] );
    ( G.Mixed_object,
      [
        ( "Mix0#",
          [
            ("paper", Some false);
            ("eraser", Some false);
            ("objrace", Some true);
            ("vclock", Some false);
          ] );
      ] );
    ( G.Worker_pool false,
      [
        ( "Q0#",
          [
            ("paper", Some false);
            ("eraser", Some false);
            ("objrace", Some true);
            ("vclock", Some false);
          ] );
        ("G.d0s", all (Some false) [ "paper"; "eraser"; "objrace"; "vclock" ]);
      ] );
    ( G.Worker_pool true,
      [
        ("Q0#", [ ("objrace", Some true) ]);
        ("G.d0r", all (Some true) [ "paper"; "eraser"; "objrace"; "vclock" ]);
      ] );
    ( G.Hidden_race,
      [
        ( "G.d0r",
          [
            ("paper", None) (* ownership may absorb the serialized side *);
            ("eraser", Some true);
            ("objrace", Some true);
            ("vclock", None) (* the accidental lock-order edge may hide it *);
          ] );
        ("G.t0", all (Some false) [ "paper"; "eraser"; "objrace"; "vclock" ]);
      ] );
  ]

let test_matrix () =
  List.iter
    (fun (idiom, cells) ->
      let sp = one_unit idiom in
      let truth = G.truth sp in
      List.iter
        (fun (marker, verdicts) ->
          let cell =
            match
              List.find_opt (fun c -> c.G.c_marker = marker) truth
            with
            | Some c -> c
            | None ->
                Alcotest.failf "%s: no ground-truth cell %s"
                  (G.idiom_name idiom) marker
          in
          List.iter
            (fun (det, expect) ->
              match expect with
              | None -> ()
              | Some expected ->
                  let o = A.run_one quick_opts (entry det) sp in
                  Alcotest.(check (option string))
                    (Printf.sprintf "%s: %s runs cleanly"
                       (G.idiom_name idiom) det)
                    None o.A.oc_error;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s on %s" (G.idiom_name idiom) det
                       marker)
                    expected
                    (List.exists (G.cell_matches cell) o.A.oc_races))
            verdicts)
        cells)
    matrix

(* ---- generator properties ---- *)

let arb_spec =
  QCheck.make
    ~print:(Fmt.str "%a" G.pp_spec)
    (G.spec_gen ~max_units:4 ~index:0 ())

let prop_typechecks =
  QCheck.Test.make ~count:60 ~name:"generated programs typecheck" arb_spec
    (fun sp ->
      let src = G.emit sp in
      ignore
        (Drd_lang.Typecheck.check (Drd_lang.Parser.parse_program src));
      true)

let prop_terminates =
  QCheck.Test.make ~count:30
    ~name:"generated programs terminate within the step budget" arb_spec
    (fun sp ->
      List.for_all
        (fun det ->
          match (A.run_one quick_opts (entry det) sp).A.oc_error with
          | None -> true
          | Some e -> QCheck.Test.fail_reportf "%s: %s" det e)
        [ "paper"; "vclock" ])

(* ---- determinism ---- *)

let test_deterministic () =
  let opts = { A.default_options with A.o_count = 25 } in
  let j1 = A.to_json (A.run opts) in
  let j2 = A.to_json (A.run opts) in
  Alcotest.(check string) "same seed, byte-identical JSON report" j1 j2

(* ---- corpus-level invariants ---- *)

(* The 200-program seed-42 corpus that CI's arena step scores. *)
let corpus_opts = { quick_opts with A.o_count = 200 }

(* The MD5 of that corpus's JSON report.  It pins every tally, pair and
   miss, so a change to how the arena runs programs must leave them as
   they were; a change that means to alter the report replaces this
   digest and says why. *)
let corpus_report_md5 = "8e5d09695fa267230166db8e1a3a6d97"

let test_corpus_scores () =
  let r = A.run corpus_opts in
  let json = A.to_json r in
  let md5 = Digest.to_hex (Digest.string json) in
  if md5 <> corpus_report_md5 then begin
    let oc = open_out_bin "arena_corpus.actual" in
    output_string oc json;
    close_out oc;
    Alcotest.failf
      "arena report changed: MD5 %s, recorded %s (current report in \
       arena_corpus.actual)"
      md5 corpus_report_md5
  end;
  let t name = List.find (fun t -> t.A.t_name = name) r.A.r_tallies in
  List.iter
    (fun name ->
      let t = t name in
      Alcotest.(check int) (name ^ ": no errors") 0 t.A.t_errors;
      Alcotest.(check int)
        (name ^ ": no unexpected reports")
        0 t.A.t_unexpected;
      Alcotest.(check int)
        (name ^ ": no guaranteed race missed")
        0 t.A.t_guaranteed_missed)
    [ "paper"; "eraser"; "objrace"; "vclock" ];
  (* The documented shape of the techniques: Eraser and objrace catch
     every seeded race (recall 1) but false-report liberally; vclock
     never false-reports on the observed order (precision 1); the
     paper detector sits between, missing nothing guaranteed. *)
  Alcotest.(check (float 0.0001)) "eraser recall 1" 1.0 (A.recall (t "eraser"));
  Alcotest.(check (float 0.0001))
    "objrace recall 1" 1.0
    (A.recall (t "objrace"));
  Alcotest.(check (float 0.0001))
    "vclock precision 1" 1.0
    (A.precision (t "vclock"));
  Alcotest.(check bool)
    "paper precision strictly above eraser's" true
    (A.precision (t "paper") > A.precision (t "eraser"));
  Alcotest.(check bool)
    "paper precision strictly above objrace's" true
    (A.precision (t "paper") > A.precision (t "objrace"));
  Alcotest.(check bool) "misses list empty" true (r.A.r_misses = [])

(* ---- shrinking ---- *)

let test_shrinker () =
  (* A three-unit program whose middle unit carries the signature
     paper-vs-eraser disagreement (join handoff); the shrinker must
     strip the bystander units and lower the loop to one iteration,
     and the shrunk spec must still witness the disagreement. *)
  let sp =
    {
      G.sp_index = 7;
      G.sp_units =
        [
          G.make_unit ~id:0 ~idiom:G.Sync_counter ~iters:3;
          G.make_unit ~id:1 ~idiom:G.Join_handoff ~iters:3;
          G.make_unit ~id:2 ~idiom:G.Ping_pong ~iters:2;
        ];
    }
  in
  let holds =
    A.disagreement_holds quick_opts ~reporter:(entry "eraser")
      ~silent:(entry "paper") ~marker:"G.d1s"
  in
  Alcotest.(check bool) "seeded spec witnesses the disagreement" true
    (holds sp);
  let shrunk = A.shrink ~holds sp in
  Alcotest.(check bool) "shrunk spec still witnesses it" true (holds shrunk);
  (match shrunk.G.sp_units with
  | [ u ] ->
      Alcotest.(check bool) "the surviving unit is the join handoff" true
        (u.G.u_idiom = G.Join_handoff);
      Alcotest.(check int) "stable unit id survives" 1 u.G.u_id;
      Alcotest.(check int) "iterations lowered to the floor" 1 u.G.u_iters
  | us ->
      Alcotest.failf "expected a single surviving unit, got %d"
        (List.length us));
  Alcotest.(check int) "program index preserved" 7 shrunk.G.sp_index

let suite =
  [
    Alcotest.test_case "registry names, aliases, module ids" `Quick
      test_registry;
    Alcotest.test_case "per-idiom ground-truth matrix" `Quick test_matrix;
    QCheck_alcotest.to_alcotest prop_typechecks;
    QCheck_alcotest.to_alcotest prop_terminates;
    Alcotest.test_case "fixed seed is byte-deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "corpus-level precision/recall invariants" `Quick
      test_corpus_scores;
    Alcotest.test_case "shrinker reduces a disagreement to its core" `Quick
      test_shrinker;
  ]
