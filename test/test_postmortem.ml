(* Post-mortem detection (paper Section 1): recording the event stream
   and running detection off-line must produce exactly the online
   reports; the text serialization round-trips. *)

module H = Drd_harness
open Drd_core

let online_vs_postmortem name =
  let b = Option.get (H.Programs.find name) in
  let compiled =
    H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source
  in
  let online = H.Pipeline.run compiled in
  let log, _ = H.Pipeline.record_log compiled in
  let coll, stats = H.Pipeline.detect_post_mortem H.Config.full log in
  (online, log, coll, stats)

let test_equivalence () =
  List.iter
    (fun name ->
      let online, log, coll, _ = online_vs_postmortem name in
      Alcotest.(check bool) (name ^ ": log non-trivial") true
        (Event_log.length log > 0);
      match online.H.Pipeline.report with
      | Some online_coll ->
          Alcotest.(check (list int))
            (name ^ ": same racy locations")
            (List.sort compare (Report.racy_locs online_coll))
            (List.sort compare (Report.racy_locs coll))
      | None -> Alcotest.fail "online run had no collector")
    [ "mtrt"; "tsp"; "sor2"; "elevator"; "hedc" ]

let test_stats_equivalence () =
  (* The offline detector consumes the identical stream, so its funnel
     statistics match the online ones.  Pinned to the generic [`Linked]
     engine: the specialized engine drops provably-redundant events
     before the detector, so its internal funnel counters are allowed
     to differ (its reports are not — test_equivalence covers that with
     the default engine). *)
  let b = Option.get (H.Programs.find "tsp") in
  let compiled =
    H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source
  in
  let online = H.Pipeline.run ~engine:`Linked compiled in
  let log, _ = H.Pipeline.record_log compiled in
  let _, stats = H.Pipeline.detect_post_mortem H.Config.full log in
  match online.H.Pipeline.detector_stats with
  | Some s ->
      Alcotest.(check int) "events" s.Detector.events_in stats.Detector.events_in;
      Alcotest.(check int) "cache hits" s.Detector.cache_hits
        stats.Detector.cache_hits;
      Alcotest.(check int) "races" s.Detector.races_reported
        stats.Detector.races_reported
  | None -> Alcotest.fail "no online stats"

let test_serialization_roundtrip () =
  let _, log, _, _ = online_vs_postmortem "hedc" in
  let path = Filename.temp_file "drd_log" ".txt" in
  let oc = open_out path in
  Event_log.to_channel oc log;
  close_out oc;
  let ic = open_in path in
  let log' = Event_log.of_channel ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "same length" (Event_log.length log)
    (Event_log.length log');
  Alcotest.(check bool) "same entries" true
    (List.for_all2 Event_log.equal_entry (Event_log.entries log)
       (Event_log.entries log'));
  (* And the replayed copy detects the same races. *)
  let c1, _ = H.Pipeline.detect_post_mortem H.Config.full log in
  let c2, _ = H.Pipeline.detect_post_mortem H.Config.full log' in
  Alcotest.(check (list int)) "same races"
    (List.sort compare (Report.racy_locs c1))
    (List.sort compare (Report.racy_locs c2))

let gen_entry =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map
            (fun (loc, thread, locks, w) ->
              Event_log.Access
                (Event.make ~loc ~thread
                   ~locks:(Event.Lockset.of_list locks)
                   ~kind:(if w then Event.Write else Event.Read)
                   ~site:(loc mod 17)))
            (quad (int_bound 10000) (int_bound 63)
               (list_size (int_bound 4) (int_bound 2000))
               bool) );
        (1, map2 (fun t l -> Event_log.Acquire (t, l)) (int_bound 63) (int_bound 2000));
        (1, map2 (fun t l -> Event_log.Release (t, l)) (int_bound 63) (int_bound 2000));
        (1, map2 (fun p c -> Event_log.Thread_start (p, c)) (int_bound 63) (int_bound 63));
        (1, map2 (fun j e -> Event_log.Thread_join (j, e)) (int_bound 63) (int_bound 63));
        (1, map (fun t -> Event_log.Thread_exit t) (int_bound 63));
      ])

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"event log text round-trip"
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) gen_entry))
    (fun entries ->
      let log = Event_log.create () in
      List.iter (Event_log.record log) entries;
      let path = Filename.temp_file "drd_qlog" ".txt" in
      let oc = open_out path in
      Event_log.to_channel oc log;
      close_out oc;
      let ic = open_in path in
      let log' = Event_log.of_channel ic in
      close_in ic;
      Sys.remove path;
      List.length (Event_log.entries log)
      = List.length (Event_log.entries log')
      && List.for_all2 Event_log.equal_entry (Event_log.entries log)
           (Event_log.entries log'))

let parse_string s =
  let path = Filename.temp_file "drd_badlog" ".txt" in
  let oc = open_out path in
  output_string oc s;
  close_out oc;
  let ic = open_in path in
  let r =
    match Event_log.of_channel ic with
    | log -> Ok log
    | exception Failure msg -> Error msg
  in
  close_in ic;
  Sys.remove path;
  r

let check_error name input fragments =
  match parse_string input with
  | Ok _ -> Alcotest.failf "%s: malformed input parsed" name
  | Error msg ->
      List.iter
        (fun fragment ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error %S mentions %S" name msg fragment)
            true
            (Astring_contains.contains msg fragment))
        fragments

let test_malformed_input () =
  (* The parser must locate the bad line and say what is wrong with
     it, not die with int_of_string's bare "Failure". *)
  check_error "bad tag" "A 1 2 R 0\nQ 1 2\n" [ "line 2"; "\"Q\"" ];
  check_error "bad thread" "L one 5\n" [ "line 1"; "thread"; "\"one\"" ];
  check_error "bad kind" "A 1 2 Z 0\n" [ "line 1"; "kind"; "\"Z\"" ];
  check_error "bad lock" "A 1 2 W 0 3 x\n" [ "line 1"; "lock"; "\"x\"" ];
  (* Blank lines are skipped, so the count is relative to the file. *)
  check_error "line numbering" "A 1 2 R 0\n\nX 1\nS 0 nope\n"
    [ "line 4"; "child"; "\"nope\"" ];
  (* Well-formed input with blank lines still parses. *)
  match parse_string "A 1 2 R 0\n\nX 1\n" with
  | Ok log -> Alcotest.(check int) "blank lines skipped" 2 (Event_log.length log)
  | Error msg -> Alcotest.failf "valid log rejected: %s" msg

(* [event_line_cases.txt] holds edge-case and malformed lines with the
   decode result the split-based decoder gave them: the entry
   re-serialized, "blank", or the exact error message.  The decoder must
   reproduce every row, on the line alone and on the line sliced out of
   a larger buffer. *)
let test_decoder_fixture () =
  let ic = open_in_bin "event_line_cases.txt" in
  let rows = ref 0 in
  let result = function
    | Ok None -> "blank"
    | Ok (Some e) -> "ok " ^ Event_log.entry_to_line e
    | Error m -> "error " ^ m
  in
  (try
     while true do
       let row = input_line ic in
       if row <> "" && row.[0] <> '#' then begin
         incr rows;
         let line, expected = Scanf.sscanf row "%S %S%!" (fun l r -> (l, r)) in
         Alcotest.(check string) (Printf.sprintf "%S" line) expected
           (result (Event_log.entry_of_line line));
         let buf = "X 9\n" ^ line ^ "\nA 1 2 W 3" in
         Alcotest.(check string) (Printf.sprintf "%S in a buffer" line) expected
           (result (Event_log.entry_of_substring buf 4 (String.length line)))
       end
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check bool) "fixture has rows" true (!rows > 400)

let test_unheld_release_replays () =
  (* A log releasing a lock that was never acquired is malformed but
     must replay without an exception: the cache warns once and clears
     instead of aborting the whole post-mortem run. *)
  match
    parse_string "A 1 0 W 0\nU 0 5\nA 1 1 R 1\nA 1 0 W 2\n"
  with
  | Error msg -> Alcotest.failf "log rejected at parse time: %s" msg
  | Ok log ->
      let coll, stats = H.Pipeline.detect_post_mortem H.Config.full log in
      Alcotest.(check int) "all events processed" 3 stats.Detector.events_in;
      Alcotest.(check int) "race still found" 1 (Report.count coll)

(* FullRace reconstruction (Sections 2.5/2.6). *)
let test_full_race_counts_match_oracle () =
  let b = Option.get (H.Programs.find "tsp") in
  let compiled = H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source in
  let log, _ = H.Pipeline.record_log compiled in
  let racy = Full_race.racy_locs_of_log log in
  Alcotest.(check bool) "found racy locations" true (racy <> []);
  let all_events =
    List.filter_map
      (function Event_log.Access e -> Some e | _ -> None)
      (Event_log.entries log)
  in
  let oracle_pairs loc =
    let events =
      List.filter (fun (e : Event.t) -> e.Event.loc = loc) all_events
      |> Array.of_list
    in
    let c = ref 0 in
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b -> if i < j && Event.is_race a b then incr c)
          events)
      events;
    !c
  in
  List.iter
    (fun (loc, pairs) ->
      let total = List.fold_left (fun acc p -> acc + p.Full_race.fr_count) 0 pairs in
      Alcotest.(check int)
        (Printf.sprintf "loc %d pair count" loc)
        (oracle_pairs loc) total;
      Alcotest.(check bool) "racy loc has pairs" true (total > 0);
      List.iter
        (fun (p : Full_race.pair) ->
          let a, b = p.Full_race.fr_example in
          Alcotest.(check bool) "example is a race" true (Event.is_race a b))
        pairs)
    (Full_race.reconstruct ~ownership:false log ~locs:racy);
  (* The ownership-filtered reconstruction is a subset of the raw one. *)
  List.iter2
    (fun (_, raw) (_, filtered) ->
      let tot ps = List.fold_left (fun acc p -> acc + p.Full_race.fr_count) 0 ps in
      Alcotest.(check bool) "filtered <= raw" true (tot filtered <= tot raw))
    (Full_race.reconstruct ~ownership:false log ~locs:racy)
    (Full_race.reconstruct log ~locs:racy)

let test_full_race_figure2 () =
  let compiled =
    H.Pipeline.compile H.Config.full ~source:(H.Programs.figure2 ())
  in
  let log, _ = H.Pipeline.record_log compiled in
  let racy = Full_race.racy_locs_of_log log in
  Alcotest.(check int) "one racy location" 1 (List.length racy);
  match Full_race.reconstruct log ~locs:racy with
  | [ (_, pairs) ] ->
      (* T11:a.f and T14:b.f both race with T21:d.f — two site pairs. *)
      Alcotest.(check int) "two racing site pairs" 2 (List.length pairs)
  | _ -> Alcotest.fail "expected one location"

let suite =
  [
    Alcotest.test_case "online = post-mortem" `Quick test_equivalence;
    Alcotest.test_case "funnel stats match" `Quick test_stats_equivalence;
    Alcotest.test_case "serialization round-trip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "malformed input errors" `Quick test_malformed_input;
    Alcotest.test_case "decoder reproduces recorded cases" `Quick
      test_decoder_fixture;
    Alcotest.test_case "unheld release replays" `Quick test_unheld_release_replays;
    Alcotest.test_case "FullRace = oracle" `Quick test_full_race_counts_match_oracle;
    Alcotest.test_case "FullRace on figure 2" `Quick test_full_race_figure2;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
