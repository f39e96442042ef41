(* The specialized engine's detector funnel, pinned run by run.

   The golden suite pins the contract outputs of the [`Spec] engine
   against the other engines.  What its fast paths drop is not pinned
   there: a dropped event moves only detector-internal counters.  This
   file pins those counters for every (program, strategy, index) run of
   the golden suite's matrix: the detector's funnel (events in, cache
   hits, ownership skips, weaker-than skips, race checks, trie nodes,
   locations, races), the spec event count and the fast drops summed
   over sites.  A change to where the fast-path checks run must leave
   every line alone.  A change to what they drop moves only events in,
   cache hits, weaker, race checks and fast drops, and replaces the
   file.

   Every run is made twice, the second time with a fingerprint tap
   attached, and the two must agree: a tap is an observer and must not
   switch a fast path off.  On a mismatch the test writes the current
   lines to [_build/default/test/spec_funnel.actual].

   The runs are made on a freshly spawned domain.  A memo key holds the
   run's interned lockset ids, and the slot it takes depends on every
   key bit, so which keys share a slot (and so the counters) depends on
   what the domain interned before.  A fresh domain starts from a fresh
   interning universe, so the lines do not depend on which other tests
   ran first in this process. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Programs = H.Programs
module Strategy = Drd_explore.Strategy
module Explore = Drd_explore.Explore
module Interp = Drd_vm.Interp
module Detector = Drd_core.Detector

let fixture = "spec_funnel.txt"

let sources =
  ("figure2", Programs.figure2 ())
  :: List.map
       (fun b -> (b.Programs.b_name, b.Programs.b_source))
       Programs.benchmarks

let strategies = [ Strategy.Sweep; Strategy.Jitter; Strategy.Pct 3 ]
let runs_per_strategy = 3

let funnel ?tap compiled vm =
  match Pipeline.run ?tap ~vm ~engine:`Spec ~site_stats:true compiled with
  | r ->
      let fast =
        match r.Pipeline.site_stats with
        | Some (_, drops) -> Array.fold_left ( + ) 0 drops
        | None -> 0
      in
      let s = Option.get r.Pipeline.detector_stats in
      Printf.sprintf
        "events_in=%d cache_hits=%d owned=%d weaker=%d race_checks=%d \
         trie_nodes=%d locations=%d races=%d spec_events=%d fast_drops=%d"
        s.Detector.events_in s.Detector.cache_hits
        s.Detector.ownership_filtered s.Detector.weaker_filtered
        s.Detector.race_checks s.Detector.trie_nodes
        s.Detector.locations_tracked s.Detector.races_reported
        r.Pipeline.spec_events fast
  | exception Interp.Runtime_error m -> "error " ^ m

let lines () =
  List.concat_map
    (fun (name, source) ->
      let compiled = Pipeline.compile Config.full ~source in
      List.concat_map
        (fun strategy ->
          List.init runs_per_strategy (fun index ->
              let sp =
                Strategy.spec strategy ~base:compiled.Pipeline.config
                  ~pct_horizon:20_000 index
              in
              let vm =
                {
                  (Pipeline.vm_config_of compiled.Pipeline.config) with
                  Interp.seed = sp.Strategy.sp_seed;
                  quantum = sp.Strategy.sp_quantum;
                  policy = sp.Strategy.sp_policy;
                }
              in
              let label =
                Printf.sprintf "%s %s #%d" name (Strategy.name strategy) index
              in
              let plain = funnel compiled vm in
              let tap, _ = Explore.fingerprint_tap () in
              let tapped = funnel ~tap compiled vm in
              if tapped <> plain then
                Alcotest.failf "%s: a tap changed the funnel: %s, untapped %s"
                  label tapped plain;
              label ^ ": " ^ plain))
        strategies)
    sources

let recorded () =
  In_channel.with_open_bin fixture In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let test_funnel () =
  let want = recorded () and got = Domain.join (Domain.spawn lines) in
  if want <> got then begin
    Out_channel.with_open_bin "spec_funnel.actual" (fun oc ->
        List.iter (Printf.fprintf oc "%s\n") got);
    let rec first_diff = function
      | w :: ws, g :: gs ->
          if w = g then first_diff (ws, gs)
          else Printf.sprintf ": first difference\n  was %s\n  now %s" w g
      | _ -> ""
    in
    Alcotest.failf
      "specialized funnel changed (%d lines recorded, %d now; current lines \
       in spec_funnel.actual)%s"
      (List.length want) (List.length got)
      (first_diff (want, got))
  end

let suite =
  [
    Alcotest.test_case "specialized funnel matches the record" `Quick
      test_funnel;
  ]
