(* Precision comparison with the related work of Sections 8.3 and 9:
   the mtrt join/common-lock idiom (Eraser false positive), object
   granularity (Praun-Gross false positives), and the feasible race a
   happens-before detector misses.

   Run with:  dune exec examples/baselines_demo.exe *)

module H = Drd_harness

let count config source =
  (snd (H.Pipeline.run_source config source)).H.Pipeline.racy_objects

(* A technique's own row, on Full's schedule or [seed]. *)
let row ?(seed = H.Config.full.H.Config.seed) e =
  H.Registry.apply e { H.Config.full with H.Config.seed }

let () =
  Fmt.pr "=== mtrt: statistics under a common lock, read after join ===@.";
  let b = Option.get (H.Programs.find "mtrt") in
  let ours = count H.Config.full b.H.Programs.b_source in
  let eraser = count (row H.Registry.eraser) b.H.Programs.b_source in
  Fmt.pr "ours:   %s@." (String.concat ", " ours);
  Fmt.pr "Eraser: %s@." (String.concat ", " eraser);
  Fmt.pr
    "The children hold {S1,sync} and {S2,sync}; the parent reads after@.";
  Fmt.pr
    "joining both, holding {S1,S2}.  Mutually intersecting locksets ⇒@.";
  Fmt.pr
    "no race for us; no SINGLE common lock ⇒ a spurious Eraser report.@.";
  Fmt.pr "@.=== object granularity (Praun-Gross) on every benchmark ===@.";
  Fmt.pr "%-10s %6s %9s@." "program" "ours" "objrace";
  List.iter
    (fun (bench : H.Programs.benchmark) ->
      Fmt.pr "%-10s %6d %9d@." bench.H.Programs.b_name
        (List.length (count H.Config.full bench.H.Programs.b_source))
        (List.length
           (count (row H.Registry.objrace) bench.H.Programs.b_source)))
    H.Programs.benchmarks;
  Fmt.pr
    "Treating a method call on an object as a write to it makes even a@.";
  Fmt.pr "fully synchronized program (elevator) look racy.@.";
  Fmt.pr "@.=== feasible race (Figure 2, p == q) vs happens-before ===@.";
  let src = H.Programs.figure2 ~same_pq:true () in
  let hb_hits = ref 0 in
  for seed = 1 to 20 do
    if count (row ~seed H.Registry.vclock) src <> [] then
      incr hb_hits
  done;
  Fmt.pr "ours: reported on 20/20 schedules; happens-before: %d/20.@." !hb_hits
