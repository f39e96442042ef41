(* The differential detector arena: run every registered detection
   technique over a generated corpus of ground-truth-labelled programs
   (lib/arena/gen.ml), score each against the labels, count pairwise
   disagreements, and shrink the first witness of every disagreement
   direction — and every guaranteed-race miss — to a minimal spec. *)

module P = Drd_harness.Pipeline
module Registry = Drd_harness.Registry
module Config = Drd_harness.Config
module Interp = Drd_vm.Interp

type options = {
  o_seed : int;
  o_count : int;
  o_max_units : int;
  o_max_steps : int;  (** VM step budget per run; exceeding it is an error verdict *)
  o_detectors : Registry.entry list;
  o_shrink : bool;  (** shrink disagreement/miss witnesses (costs extra runs) *)
}

let default_options =
  {
    o_seed = 42;
    o_count = 200;
    o_max_units = 4;
    o_max_steps = 400_000;
    o_detectors = Registry.all;
    o_shrink = true;
  }

type outcome = { oc_races : string list; oc_error : string option }

(* One program under one technique.  The schedule is a function of the
   spec alone (same seed/quantum/policy for every detector), so
   detectors disagree only by discipline, never by interleaving. *)
let run_one (opts : options) (entry : Registry.entry) (sp : Gen.spec) : outcome
    =
  let source = Gen.emit sp in
  let base =
    { Config.full with Config.seed = opts.o_seed + (31 * sp.Gen.sp_index) }
  in
  let config = Registry.apply entry base in
  match
    let compiled = P.compile config ~source in
    let vm =
      { (P.vm_config_of config) with Interp.max_steps = opts.o_max_steps }
    in
    P.run ~vm compiled
  with
  | r -> { oc_races = r.P.races; oc_error = None }
  | exception e -> { oc_races = []; oc_error = Some (Printexc.to_string e) }

let reported (oc : outcome) (c : Gen.cell) =
  List.exists (Gen.cell_matches c) oc.oc_races

(* ---- scoring ---- *)

type tally = {
  t_name : string;
  mutable t_tp : int;
  mutable t_fp : int;
  mutable t_fn : int;
  mutable t_tn : int;
  mutable t_guaranteed_missed : int;
      (** racy cells labelled guaranteed that the detector stayed silent
          on — the CI-gated count *)
  mutable t_feasible_total : int;
  mutable t_feasible_caught : int;
  mutable t_unexpected : int;
      (** reports matching no ground-truth cell (counted as FP too) *)
  mutable t_errors : int;  (** runs that raised (deadlock, step budget, …) *)
}

let fresh_tally name =
  {
    t_name = name;
    t_tp = 0;
    t_fp = 0;
    t_fn = 0;
    t_tn = 0;
    t_guaranteed_missed = 0;
    t_feasible_total = 0;
    t_feasible_caught = 0;
    t_unexpected = 0;
    t_errors = 0;
  }

let precision t =
  let d = t.t_tp + t.t_fp in
  if d = 0 then 1.0 else float_of_int t.t_tp /. float_of_int d

let recall t =
  let d = t.t_tp + t.t_fn in
  if d = 0 then 1.0 else float_of_int t.t_tp /. float_of_int d

type example = {
  x_marker : string;
  x_spec : Gen.spec;  (** the program the disagreement was first seen on *)
  x_shrunk : Gen.spec;  (** minimal spec still witnessing it *)
}

type pair = {
  pr_reporter : string;
  pr_silent : string;
  mutable pr_count : int;  (** cell×program disagreements in this direction *)
  mutable pr_example : example option;
}

type miss = {
  ms_detector : string;
  mutable ms_count : int;
  mutable ms_example : example option;
}

type report = {
  r_seed : int;
  r_count : int;
  r_max_units : int;
  r_cells : int;  (** ground-truth cells scored across the corpus *)
  r_tallies : tally list;
  r_pairs : pair list;  (** directions that occurred, registry order *)
  r_misses : miss list;  (** detectors with guaranteed-race misses *)
}

(* ---- shrinking ---- *)

let remove_nth i l = List.filteri (fun j _ -> j <> i) l
let replace_nth i x l = List.mapi (fun j y -> if j = i then x else y) l

(* Greedy structural shrinking: try dropping whole units, then
   lowering loop counts, re-testing the property after each step and
   restarting from the first candidate that still witnesses it. *)
let shrink_steps (sp : Gen.spec) : Gen.spec list =
  let units = sp.Gen.sp_units in
  let drops =
    if List.length units <= 1 then []
    else
      List.mapi (fun i _ -> { sp with Gen.sp_units = remove_nth i units }) units
  in
  let decs =
    List.concat
      (List.mapi
         (fun i u ->
           if u.Gen.u_iters > Gen.min_iters u.Gen.u_idiom then
             [
               {
                 sp with
                 Gen.sp_units =
                   replace_nth i { u with Gen.u_iters = u.Gen.u_iters - 1 } units;
               };
             ]
           else [])
         units)
  in
  drops @ decs

let rec shrink ~holds sp =
  match List.find_opt holds (shrink_steps sp) with
  | Some sp' -> shrink ~holds sp'
  | None -> sp

let cell_named sp marker =
  List.find_opt (fun c -> c.Gen.c_marker = marker) (Gen.truth sp)

(* The witness property for a pairwise disagreement: the marker's cell
   still exists and [reporter] still reports it while [silent] stays
   quiet, with neither run erroring. *)
let disagreement_holds opts ~reporter ~silent ~marker sp =
  match cell_named sp marker with
  | None -> false
  | Some c ->
      let o1 = run_one opts reporter sp in
      let o2 = run_one opts silent sp in
      o1.oc_error = None && o2.oc_error = None && reported o1 c
      && not (reported o2 c)

let miss_holds opts ~detector ~marker sp =
  match cell_named sp marker with
  | None -> false
  | Some c ->
      let o = run_one opts detector sp in
      (match o.oc_error with Some _ -> true | None -> not (reported o c))

(* ---- the arena ---- *)

let run (opts : options) : report =
  let dets = opts.o_detectors in
  let specs =
    Gen.generate ~seed:opts.o_seed ~count:opts.o_count
      ~max_units:opts.o_max_units ()
  in
  let tallies = List.map (fun e -> fresh_tally e.Registry.name) dets in
  let tally_of name = List.find (fun t -> t.t_name = name) tallies in
  let pairs =
    List.concat_map
      (fun e1 ->
        List.filter_map
          (fun e2 ->
            if e1.Registry.name = e2.Registry.name then None
            else
              Some
                {
                  pr_reporter = e1.Registry.name;
                  pr_silent = e2.Registry.name;
                  pr_count = 0;
                  pr_example = None;
                })
          dets)
      dets
  in
  let pair_of r s =
    List.find (fun p -> p.pr_reporter = r && p.pr_silent = s) pairs
  in
  let misses =
    List.map
      (fun e ->
        { ms_detector = e.Registry.name; ms_count = 0; ms_example = None })
      dets
  in
  let miss_of name = List.find (fun m -> m.ms_detector = name) misses in
  let cells_scored = ref 0 in
  List.iter
    (fun sp ->
      let outs = List.map (fun e -> (e, run_one opts e sp)) dets in
      let cells = Gen.truth sp in
      cells_scored := !cells_scored + List.length cells;
      List.iter
        (fun (e, oc) ->
          let t = tally_of e.Registry.name in
          (match oc.oc_error with
          | Some _ -> t.t_errors <- t.t_errors + 1
          | None -> ());
          List.iter
            (fun c ->
              let rep = reported oc c in
              if c.Gen.c_racy then (
                if not c.Gen.c_guaranteed then (
                  t.t_feasible_total <- t.t_feasible_total + 1;
                  if rep then t.t_feasible_caught <- t.t_feasible_caught + 1);
                if rep then t.t_tp <- t.t_tp + 1
                else (
                  t.t_fn <- t.t_fn + 1;
                  if c.Gen.c_guaranteed then (
                    t.t_guaranteed_missed <- t.t_guaranteed_missed + 1;
                    let m = miss_of e.Registry.name in
                    m.ms_count <- m.ms_count + 1;
                    if m.ms_example = None then
                      m.ms_example <-
                        Some
                          {
                            x_marker = c.Gen.c_marker;
                            x_spec = sp;
                            x_shrunk = sp;
                          })))
              else if rep then t.t_fp <- t.t_fp + 1
              else t.t_tn <- t.t_tn + 1)
            cells;
          let unexpected =
            List.filter
              (fun r -> not (List.exists (fun c -> Gen.cell_matches c r) cells))
              oc.oc_races
          in
          let n = List.length unexpected in
          t.t_unexpected <- t.t_unexpected + n;
          t.t_fp <- t.t_fp + n)
        outs;
      List.iter
        (fun c ->
          List.iter
            (fun (e1, o1) ->
              List.iter
                (fun (e2, o2) ->
                  if
                    e1.Registry.name <> e2.Registry.name
                    && o1.oc_error = None && o2.oc_error = None
                    && reported o1 c
                    && not (reported o2 c)
                  then (
                    let p = pair_of e1.Registry.name e2.Registry.name in
                    p.pr_count <- p.pr_count + 1;
                    if p.pr_example = None then
                      p.pr_example <-
                        Some
                          {
                            x_marker = c.Gen.c_marker;
                            x_spec = sp;
                            x_shrunk = sp;
                          }))
                outs)
            outs)
        cells)
    specs;
  if opts.o_shrink then (
    List.iter
      (fun p ->
        match p.pr_example with
        | None -> ()
        | Some x ->
            let holds =
              disagreement_holds opts
                ~reporter:(Registry.find p.pr_reporter |> Option.get)
                ~silent:(Registry.find p.pr_silent |> Option.get)
                ~marker:x.x_marker
            in
            p.pr_example <- Some { x with x_shrunk = shrink ~holds x.x_spec })
      pairs;
    List.iter
      (fun m ->
        match m.ms_example with
        | None -> ()
        | Some x ->
            let holds =
              miss_holds opts
                ~detector:(Registry.find m.ms_detector |> Option.get)
                ~marker:x.x_marker
            in
            m.ms_example <- Some { x with x_shrunk = shrink ~holds x.x_spec })
      misses);
  {
    r_seed = opts.o_seed;
    r_count = opts.o_count;
    r_max_units = opts.o_max_units;
    r_cells = !cells_scored;
    r_tallies = tallies;
    r_pairs = List.filter (fun p -> p.pr_count > 0) pairs;
    r_misses = List.filter (fun m -> m.ms_count > 0) misses;
  }

let guaranteed_misses (r : report) ~detector =
  match List.find_opt (fun t -> t.t_name = detector) r.r_tallies with
  | None -> 0
  | Some t -> t.t_guaranteed_missed

(* ---- rendering ---- *)

let spec_flag (sp : Gen.spec) =
  (* The spec re-encoded as `racedet arena` flags, for reproducing one
     program outside the arena. *)
  Fmt.str "index %d, units [%a]" sp.Gen.sp_index
    (Fmt.list ~sep:(Fmt.any "; ") Gen.pp_unit)
    sp.Gen.sp_units

let pp_example ppf (x : example) =
  Fmt.pf ppf "on %s, first seen %a, shrunk to %a" x.x_marker Gen.pp_spec
    x.x_spec Gen.pp_spec x.x_shrunk

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "arena: %d programs (seed %d, <=%d units), %d ground-truth cells@."
    r.r_count r.r_seed r.r_max_units r.r_cells;
  Fmt.pf ppf
    "%-8s %5s %5s %5s %5s  %9s %7s  %6s %8s %6s@." "detector" "tp" "fp" "fn"
    "tn" "precision" "recall" "missed" "feasible" "errors";
  List.iter
    (fun t ->
      Fmt.pf ppf "%-8s %5d %5d %5d %5d  %9.3f %7.3f  %6d %4d/%-3d %6d@."
        t.t_name t.t_tp t.t_fp t.t_fn t.t_tn (precision t) (recall t)
        t.t_guaranteed_missed t.t_feasible_caught t.t_feasible_total t.t_errors)
    r.r_tallies;
  Fmt.pf ppf "disagreements (reporter > silent):@.";
  List.iter
    (fun p ->
      Fmt.pf ppf "  %-8s > %-8s %5d  %a@." p.pr_reporter p.pr_silent p.pr_count
        (Fmt.option pp_example)
        p.pr_example)
    r.r_pairs;
  List.iter
    (fun m ->
      Fmt.pf ppf "GROUND-TRUTH MISS: %s missed %d guaranteed race(s); %a@."
        m.ms_detector m.ms_count
        (Fmt.option pp_example)
        m.ms_example)
    r.r_misses

(* JSON, hand-rolled: deterministic key order, no floats beyond fixed
   precision, byte-identical across runs for a fixed (seed, count,
   max_units, detectors). *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_spec (sp : Gen.spec) =
  Fmt.str "{\"index\":%d,\"units\":[%s]}" sp.Gen.sp_index
    (String.concat ","
       (List.map
          (fun u ->
            Fmt.str "{\"id\":%d,\"idiom\":\"%s\",\"iters\":%d}" u.Gen.u_id
              (Gen.idiom_name u.Gen.u_idiom)
              u.Gen.u_iters)
          sp.Gen.sp_units))

let json_of_example (x : example) =
  Fmt.str "{\"marker\":\"%s\",\"spec\":%s,\"shrunk\":%s}"
    (json_escape x.x_marker) (json_of_spec x.x_spec) (json_of_spec x.x_shrunk)

let to_json (r : report) : string =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n";
  pf "  \"seed\": %d,\n  \"programs\": %d,\n  \"max_units\": %d,\n" r.r_seed
    r.r_count r.r_max_units;
  pf "  \"cells\": %d,\n" r.r_cells;
  pf "  \"detectors\": [\n";
  List.iteri
    (fun i t ->
      pf
        "    {\"name\": \"%s\", \"tp\": %d, \"fp\": %d, \"fn\": %d, \"tn\": \
         %d, \"precision\": %.4f, \"recall\": %.4f, \"guaranteed_missed\": \
         %d, \"feasible_caught\": %d, \"feasible_total\": %d, \"unexpected\": \
         %d, \"errors\": %d}%s\n"
        (json_escape t.t_name) t.t_tp t.t_fp t.t_fn t.t_tn (precision t)
        (recall t) t.t_guaranteed_missed t.t_feasible_caught t.t_feasible_total
        t.t_unexpected t.t_errors
        (if i = List.length r.r_tallies - 1 then "" else ","))
    r.r_tallies;
  pf "  ],\n";
  pf "  \"disagreements\": [\n";
  List.iteri
    (fun i p ->
      pf "    {\"reporter\": \"%s\", \"silent\": \"%s\", \"count\": %d%s}%s\n"
        (json_escape p.pr_reporter) (json_escape p.pr_silent) p.pr_count
        (match p.pr_example with
        | None -> ""
        | Some x -> ", \"example\": " ^ json_of_example x)
        (if i = List.length r.r_pairs - 1 then "" else ","))
    r.r_pairs;
  pf "  ],\n";
  pf "  \"misses\": [\n";
  List.iteri
    (fun i m ->
      pf "    {\"detector\": \"%s\", \"count\": %d%s}%s\n"
        (json_escape m.ms_detector) m.ms_count
        (match m.ms_example with
        | None -> ""
        | Some x -> ", \"example\": " ^ json_of_example x)
        (if i = List.length r.r_misses - 1 then "" else ","))
    r.r_misses;
  pf "  ]\n";
  pf "}\n";
  Buffer.contents b

(* A standalone reproducer for a shrunk disagreement: the MiniJava
   source prefixed with a header explaining what to expect. *)
let repro_source ~(reporter : string) ~(silent : string) (x : example) :
    string =
  Fmt.str
    "// Arena-shrunk disagreement: %s reports a race on %s, %s stays\n\
     // quiet, on the same schedule.  Spec: %s.\n\
     // Regenerate: racedet arena (the arena shrinks the first witness\n\
     // of every disagreement direction to a spec like this one).\n\
     %s"
    reporter x.x_marker silent (spec_flag x.x_shrunk) (Gen.emit x.x_shrunk)
