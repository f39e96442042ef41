(* Integration tests for the assembled detector pipeline: statistics,
   per-location report deduplication (Definition 1) and the interaction
   of the optimizer stages. *)

open Drd_core
open Event

let mk ?(locks = []) ~loc ~thread ~kind ~site () =
  make ~loc ~thread ~locks:(Lockset.of_list locks) ~kind ~site

let test_stats_pipeline () =
  let coll = Report.collector () in
  let d = Detector.create ~config:Detector.default_config coll in
  (* T0 initializes, T1 reads twice (second read cache-filtered), then T0
     writes again: exactly one race on one location. *)
  Detector.on_access d (mk ~loc:1 ~thread:0 ~kind:Write ~site:1 ());
  Detector.on_access d (mk ~loc:1 ~thread:1 ~kind:Read ~site:2 ());
  Detector.on_access d (mk ~loc:1 ~thread:1 ~kind:Read ~site:2 ());
  Detector.on_access d (mk ~loc:1 ~thread:0 ~kind:Write ~site:3 ());
  let s = Detector.stats d in
  Alcotest.(check int) "events in" 4 s.Detector.events_in;
  Alcotest.(check int) "cache hits" 1 s.Detector.cache_hits;
  Alcotest.(check int) "ownership filtered" 1 s.Detector.ownership_filtered;
  Alcotest.(check int) "races" 1 s.Detector.races_reported;
  Alcotest.(check int) "one location tracked" 1 s.Detector.locations_tracked

let test_report_dedup_per_location () =
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership = false; use_cache = false }
      coll
  in
  (* Many racing accesses on the same location: one report. *)
  for i = 1 to 10 do
    Detector.on_access d (mk ~loc:1 ~thread:(i mod 2) ~kind:Write ~site:i ())
  done;
  Alcotest.(check int) "one location reported" 1 (Report.count coll);
  (* A second racy location gets its own report. *)
  Detector.on_access d (mk ~loc:2 ~thread:0 ~kind:Write ~site:90 ());
  Detector.on_access d (mk ~loc:2 ~thread:1 ~kind:Write ~site:91 ());
  Alcotest.(check int) "two locations reported" 2 (Report.count coll);
  Alcotest.(check (list int)) "racy locations in order" [ 1; 2 ]
    (Report.racy_locs coll)

let test_report_contents () =
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership = false; use_cache = false }
      coll
  in
  Detector.on_access d (mk ~loc:3 ~thread:1 ~locks:[ 8 ] ~kind:Write ~site:41 ());
  Detector.on_access d (mk ~loc:3 ~thread:2 ~locks:[ 9 ] ~kind:Read ~site:42 ());
  match Report.races coll with
  | [ r ] ->
      Alcotest.(check int) "location" 3 r.Report.loc;
      Alcotest.(check int) "current thread" 2 r.Report.current.thread;
      Alcotest.(check int) "current site" 42 r.Report.current.site;
      Alcotest.(check bool) "prior thread known" true
        (r.Report.prior.Trie.p_thread = Thread 1);
      Alcotest.(check (list int)) "prior lockset" [ 8 ]
        (Lockset_id.to_sorted_list r.Report.prior.Trie.p_locks)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_prior_thread_bot_when_merged () =
  (* Section 3.1: once two threads access with the same lockset, the
     stored thread degrades to t_bot and the specific earlier thread can
     no longer be reported. *)
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership = false; use_cache = false }
      coll
  in
  Detector.on_access d (mk ~loc:3 ~thread:1 ~locks:[ 8 ] ~kind:Write ~site:1 ());
  Detector.on_access d (mk ~loc:3 ~thread:2 ~locks:[ 8 ] ~kind:Write ~site:2 ());
  Detector.on_access d (mk ~loc:3 ~thread:3 ~locks:[ 9 ] ~kind:Write ~site:3 ());
  match Report.races coll with
  | [ r ] ->
      Alcotest.(check bool) "prior thread is t_bot" true
        (r.Report.prior.Trie.p_thread = Bot)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_pp_smoke () =
  (* Rendering reports with a names registry. *)
  let names = Names.create () in
  Names.register_loc names 3 "Task#1.thread_";
  Names.register_site names 41 "Task.run:10 (write thread_)";
  Names.register_site names 42 "Task.cancel:20 (read thread_)";
  Names.register_lock names 8 "this(Task#1)";
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership = false; use_cache = false }
      coll
  in
  Detector.on_access d (mk ~loc:3 ~thread:1 ~locks:[ 8 ] ~kind:Write ~site:41 ());
  Detector.on_access d (mk ~loc:3 ~thread:2 ~locks:[ 9 ] ~kind:Read ~site:42 ());
  let out = Fmt.str "%a" (Report.pp names) coll in
  Alcotest.(check bool) "mentions location name" true
    (Astring_contains.contains out "Task#1.thread_");
  Alcotest.(check bool) "mentions lock name" true
    (Astring_contains.contains out "this(Task#1)");
  let s = Fmt.str "%a" Detector.pp_stats (Detector.stats d) in
  Alcotest.(check bool) "stats render" true (String.length s > 0)

let test_thread_exit_drops_cache () =
  let coll = Report.collector () in
  let d = Detector.create ~config:Detector.default_config coll in
  Detector.on_access d (mk ~loc:1 ~thread:5 ~kind:Read ~site:1 ());
  Detector.on_thread_exit d ~thread:5;
  (* Re-accessing after exit must not hit a stale cache (a new cache is
     created transparently). *)
  Detector.on_access d (mk ~loc:1 ~thread:5 ~kind:Read ~site:1 ());
  let s = Detector.stats d in
  Alcotest.(check int) "no cache hit across exit" 0 s.Detector.cache_hits

let test_hot_path_zero_alloc () =
  (* The hot entry point must not allocate for events dropped by the
     cache or by the ownership filter.  Warm the detector up so the
     steady state is reached (tries built, caches populated, locksets
     interned), then measure minor-heap words across a tight loop. *)
  let coll = Report.collector () in
  (* Cache-hit path: the repeated read is dropped by the per-thread
     cache before anything downstream runs. *)
  let d_cache = Detector.create ~config:Detector.default_config coll in
  (* Ownership path: with the cache off, every repeated access by the
     owning thread takes the Owned_skip branch. *)
  let d_own =
    Detector.create
      ~config:{ Detector.default_config with Detector.use_cache = false }
      coll
  in
  let locks = Lockset_id.of_list [ 7 ] in
  Detector.on_access_interned d_cache ~loc:2 ~thread:1 ~locks ~kind:Read
    ~site:3;
  Detector.on_access_interned d_own ~loc:1 ~thread:0 ~locks ~kind:Write
    ~site:1;
  let n = 100_000 in
  let words_per_event step =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      step ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let cache_hit =
    words_per_event (fun () ->
        Detector.on_access_interned d_cache ~loc:2 ~thread:1 ~locks ~kind:Read
          ~site:3)
  in
  let owned =
    words_per_event (fun () ->
        Detector.on_access_interned d_own ~loc:1 ~thread:0 ~locks ~kind:Write
          ~site:1)
  in
  let sc = Detector.stats d_cache and so = Detector.stats d_own in
  Alcotest.(check bool) "loop events were cache hits"
    true (sc.Detector.cache_hits >= n);
  Alcotest.(check bool) "loop events were ownership filtered"
    true (so.Detector.ownership_filtered >= n);
  (* The slack covers the Gc calls themselves; one allocation per
     event would read 2.0 or more, one every 50 events 0.04. *)
  List.iter
    (fun (path, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s path: %.3f minor words per event, at most 0.01"
           path words)
        true (words <= 0.01))
    [ ("cache-hit", cache_hit); ("ownership", owned) ]

let suite =
  [
    Alcotest.test_case "stats pipeline" `Quick test_stats_pipeline;
    Alcotest.test_case "hot path allocation-free" `Quick
      test_hot_path_zero_alloc;
    Alcotest.test_case "report dedup per location" `Quick test_report_dedup_per_location;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "prior thread t_bot" `Quick test_prior_thread_bot_when_merged;
    Alcotest.test_case "pretty printing" `Quick test_pp_smoke;
    Alcotest.test_case "thread exit drops cache" `Quick test_thread_exit_drops_cache;
  ]
