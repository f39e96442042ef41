(* The paper's Figure 2 example, end to end: the precise races our
   detector reports, how thread start/join ordering is handled, and the
   feasible race (Section 2.2) that happens-before detection misses.

   Run with:  dune exec examples/figure2.exe *)

module H = Drd_harness

let () =
  Fmt.pr "=== Figure 2: p and q are distinct locks ===@.";
  let compiled, r =
    H.Pipeline.run_source H.Config.full (H.Programs.figure2 ())
  in
  (match r.H.Pipeline.report with
  | Some coll ->
      let names = H.Pipeline.names_of compiled r in
      Fmt.pr "%a@." (Drd_core.Report.pp names) coll
  | None -> ());
  Fmt.pr
    "@.T01 (main's write before start) is NOT reported: the ownership@.";
  Fmt.pr "model sees main as the owner until the children touch x.f.@.";
  Fmt.pr "@.=== Figure 2 variant: p == q (one shared lock) ===@.";
  let _, same =
    H.Pipeline.run_source H.Config.full (H.Programs.figure2 ~same_pq:true ())
  in
  Fmt.pr "our detector reports:        %s@."
    (String.concat ", " same.H.Pipeline.racy_objects);
  (* Sweep schedules for the happens-before baseline. *)
  let hits = ref 0 and misses = ref 0 in
  for seed = 1 to 20 do
    let config =
      H.Registry.apply H.Registry.vclock { H.Config.full with H.Config.seed }
    in
    let _, hb =
      H.Pipeline.run_source config (H.Programs.figure2 ~same_pq:true ())
    in
    if hb.H.Pipeline.racy_objects = [] then incr misses else incr hits
  done;
  Fmt.pr "happens-before baseline over 20 schedules: reported %d, missed %d@."
    !hits !misses;
  Fmt.pr
    "The race is feasible under every schedule, but a happens-before@.";
  Fmt.pr
    "detector only sees it when T2 happens to take the lock first@.";
  Fmt.pr "(Section 2.2's argument for lockset-based detection).@."
