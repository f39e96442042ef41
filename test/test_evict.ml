(* Quiescent-location eviction (serve mode): LRU retirement by
   last-access event count, watermark semantics, and the soundness
   invariant — eviction never changes the report for a location that is
   never evicted, and a policy whose watermark is never hit changes
   nothing at all. *)

open Drd_core

let interned locks = Lockset_id.of_list locks

let access d ~loc ?(thread = 1) ?(kind = Event.Write) ?(locks = []) () =
  Detector.on_access_interned d ~loc ~thread ~locks:(interned locks) ~kind
    ~site:0

let make_evicting ?(high = 4) ?(low = 2) () =
  let coll = Report.collector () in
  let d =
    Detector.create
      ~eviction:(Detector.eviction ~low ~track:true ~high ())
      coll
  in
  (d, coll)

let test_lru_retires_oldest () =
  let d, _ = make_evicting () in
  List.iter (fun loc -> access d ~loc ()) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "at watermark, nothing evicted" 0 (Detector.evictions d);
  Alcotest.(check int) "four live" 4 (Detector.live_locations d);
  (* The fifth location crosses the high watermark: retire down to the
     low one, oldest first. *)
  access d ~loc:5 ();
  Alcotest.(check int) "down to low watermark" 2 (Detector.live_locations d);
  Alcotest.(check int) "three retired" 3 (Detector.evictions d);
  List.iter
    (fun loc ->
      Alcotest.(check bool)
        (Printf.sprintf "loc %d retired" loc)
        true (Detector.was_evicted d loc))
    [ 1; 2; 3 ];
  List.iter
    (fun loc ->
      Alcotest.(check bool)
        (Printf.sprintf "loc %d kept" loc)
        false (Detector.was_evicted d loc))
    [ 4; 5 ]

let test_touch_refreshes_recency () =
  let d, _ = make_evicting () in
  List.iter (fun loc -> access d ~loc ()) [ 1; 2; 3; 4 ];
  (* Re-access 1: now 2 is the oldest.  A cache hit still counts as a
     touch — a cache-hot location must never be quiescent. *)
  access d ~loc:1 ();
  access d ~loc:5 ();
  Alcotest.(check bool) "refreshed loc survives" false
    (Detector.was_evicted d 1);
  Alcotest.(check bool) "stale loc retired" true (Detector.was_evicted d 2);
  Alcotest.(check int) "down to low watermark" 2 (Detector.live_locations d)

let test_retired_location_reenters () =
  let d, coll = make_evicting () in
  (* Make location 1 racy-in-waiting: thread 1 writes under no lock. *)
  access d ~loc:1 ~thread:1 ();
  (* Second thread touches it (ownership transition), then it idles
     while churn retires it. *)
  access d ~loc:1 ~thread:2 ~kind:Event.Read ();
  List.iter (fun loc -> access d ~loc ()) [ 11; 12; 13; 14; 15 ];
  Alcotest.(check bool) "loc 1 retired" true (Detector.was_evicted d 1);
  (* Post-eviction accesses re-enter as brand new: the same two-thread
     conflict must rebuild from scratch (ownership restarts, so the
     first re-access is owned again) and still produce the race. *)
  Alcotest.(check int) "no race before re-entry" 0 (Report.count coll);
  access d ~loc:1 ~thread:1 ();
  (* owned again: skipped *)
  access d ~loc:1 ~thread:2 ~kind:Event.Read ();
  (* shares: stored *)
  access d ~loc:1 ~thread:1 ();
  (* conflicting write vs the stored read *)
  Alcotest.(check int) "race found after re-entry" 1 (Report.count coll)

let test_policy_validation () =
  let raises_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  raises_invalid "high must be positive" (fun () ->
      Detector.eviction ~high:0 ());
  raises_invalid "low below high" (fun () ->
      Detector.eviction ~low:4 ~high:4 ());
  raises_invalid "packed history cannot evict" (fun () ->
      Detector.create
        ~config:{ Detector.default_config with history = Detector.Packed }
        ~eviction:(Detector.eviction ~high:8 ())
        (Report.collector ()));
  (* was_evicted needs tracking. *)
  let d_untracked =
    Detector.create ~eviction:(Detector.eviction ~high:8 ()) (Report.collector ())
  in
  raises_invalid "untracked policy cannot answer was_evicted" (fun () ->
      Detector.was_evicted d_untracked 1);
  let d_plain = Detector.create (Report.collector ()) in
  Alcotest.(check bool) "no policy: nothing was evicted" false
    (Detector.was_evicted d_plain 1)

let test_ownership_forget () =
  let o = Ownership.create () in
  ignore (Ownership.check o ~thread:1 ~loc:7);
  ignore (Ownership.check o ~thread:2 ~loc:7);
  Alcotest.(check bool) "shared before forget" true (Ownership.is_shared o 7);
  Alcotest.(check int) "one shared" 1 (Ownership.shared_count o);
  Ownership.forget o 7;
  Alcotest.(check bool) "not shared after forget" false (Ownership.is_shared o 7);
  Alcotest.(check int) "shared count dropped" 0 (Ownership.shared_count o);
  Alcotest.(check int) "untracked after forget" 0 (Ownership.tracked_count o);
  (* Re-entry: first access owns again. *)
  (match Ownership.check o ~thread:2 ~loc:7 with
  | Ownership.Owned_skip -> ()
  | _ -> Alcotest.fail "re-entering access should re-own the location");
  Ownership.forget o 7 (* forgetting an owned (non-shared) loc is fine *)

(* ---- the soundness property, on random logs ---- *)

(* A random well-formed access stream over a small location space:
   enough collisions that races, ownership transitions, cache hits and
   (for the evicting replay) retirements all actually happen. *)
let gen_stream =
  let open QCheck.Gen in
  let entry =
    frequency
      [
        ( 10,
          map
            (fun (loc, thread, w, ls) ->
              `Access
                ( loc,
                  thread,
                  (if w then Event.Write else Event.Read),
                  List.filteri (fun i _ -> i < 2) ls ))
            (quad (int_range 0 24) (int_range 0 2) bool
               (list_size (int_range 0 2) (int_range 1 3))) );
        (1, map (fun t -> `Exit t) (int_range 0 2));
      ]
  in
  list_size (int_range 50 400) entry

let replay ?eviction stream =
  let coll = Report.collector () in
  let d = Detector.create ?eviction coll in
  List.iter
    (function
      | `Access (loc, thread, kind, locks) ->
          Detector.on_access_interned d ~loc ~thread
            ~locks:(Lockset_id.of_list locks)
            ~kind ~site:0
      | `Exit thread -> Detector.on_thread_exit d ~thread)
    stream;
  (d, coll)

(* Byte-level rendering of one race, so "identical report" really means
   identical bytes, not just equal racy-location sets. *)
let render_races coll ~keep =
  Report.races coll
  |> List.filter (fun (r : Report.race) -> keep r.Report.loc)
  |> List.map (fun r ->
         Drd_serve.Protocol.Wire.json_to_string
           (Drd_serve.Protocol.race_json r))
  |> String.concat "\n"

let prop_eviction_preserves_live_reports =
  QCheck.Test.make ~count:200
    ~name:"eviction preserves reports for never-evicted locations"
    (QCheck.make gen_stream) (fun stream ->
      let _, plain = replay stream in
      let d, evicting =
        replay
          ~eviction:(Detector.eviction ~low:4 ~track:true ~high:8 ())
          stream
      in
      let never_evicted loc = not (Detector.was_evicted d loc) in
      (* Two claims: every never-evicted location has byte-identical
         reports, and every racy location in the evicting replay that
         was never evicted is also racy in the plain one (no phantom
         races from eviction). *)
      render_races plain ~keep:never_evicted
      = render_races evicting ~keep:never_evicted)

let prop_unhit_watermark_changes_nothing =
  QCheck.Test.make ~count:100
    ~name:"a watermark that is never hit changes nothing"
    (QCheck.make gen_stream) (fun stream ->
      let d0, plain = replay stream in
      let d1, evicting =
        (* 25 locations exist at most; a high watermark of 64 never
           triggers. *)
        replay ~eviction:(Detector.eviction ~track:true ~high:64 ()) stream
      in
      Detector.evictions d1 = 0
      && Drd_serve.Protocol.events_report_body ~races:(Report.races plain)
           ~stats:(Detector.stats d0) ~evictions:0
         = Drd_serve.Protocol.events_report_body
             ~races:(Report.races evicting)
             ~stats:(Detector.stats d1) ~evictions:(Detector.evictions d1))

(* The retirement rule itself, as a reference model: sort every tracked
   location by its last-access stamp (the detector's event count) and
   retire the oldest [live - low], never the location just accessed.
   The detector selects instead of sorting; it must retire exactly the
   same locations at exactly the same events. *)
let gen_evict_case =
  let open QCheck.Gen in
  int_range 2 12 >>= fun high ->
  int_range 0 (high - 1) >>= fun low ->
  list_size (int_range 50 500)
    (map2
       (fun loc thread -> `Access (loc, thread, Event.Write, []))
       (frequency [ (3, int_range 0 15); (1, int_range 0 200) ])
       (int_range 0 2))
  >|= fun stream -> (high, low, stream)

let prop_evicts_exactly_the_oldest =
  QCheck.Test.make ~count:300
    ~name:"eviction retires exactly the oldest stamps"
    (QCheck.make
       ~print:(fun (high, low, s) ->
         Printf.sprintf "high %d low %d, %d accesses" high low (List.length s))
       gen_evict_case)
    (fun (high, low, stream) ->
      let coll = Report.collector () in
      let d =
        Detector.create
          ~eviction:(Detector.eviction ~low ~track:true ~high ())
          coll
      in
      let last = Hashtbl.create 64 and ever = Hashtbl.create 64 in
      let clock = ref 0 and evicted = ref 0 in
      List.for_all
        (function
          | `Access (loc, thread, kind, _) ->
              Detector.on_access_interned d ~loc ~thread ~locks:Lockset_id.empty
                ~kind ~site:0;
              incr clock;
              let fresh = not (Hashtbl.mem last loc) in
              Hashtbl.replace last loc !clock;
              if fresh && Hashtbl.length last > high then begin
                let by_age =
                  List.sort compare
                    (Hashtbl.fold (fun l st acc -> (st, l) :: acc) last [])
                in
                let to_evict = Hashtbl.length last - low in
                let n = ref 0 in
                List.iter
                  (fun (_, l) ->
                    if !n < to_evict && l <> loc then begin
                      Hashtbl.remove last l;
                      Hashtbl.replace ever l ();
                      incr evicted;
                      incr n
                    end)
                  by_age
              end;
              Detector.evictions d = !evicted
              && Detector.live_locations d = Hashtbl.length last)
        stream
      && List.for_all
           (fun loc -> Detector.was_evicted d loc = Hashtbl.mem ever loc)
           (List.init 201 Fun.id))

let suite =
  [
    Alcotest.test_case "LRU retires the oldest locations" `Quick (fun () ->
        test_lru_retires_oldest ());
    Alcotest.test_case "any access refreshes recency" `Quick (fun () ->
        test_touch_refreshes_recency ());
    Alcotest.test_case "retired locations re-enter as new" `Quick (fun () ->
        test_retired_location_reenters ());
    Alcotest.test_case "policy validation" `Quick (fun () ->
        test_policy_validation ());
    Alcotest.test_case "ownership forget drops all state" `Quick (fun () ->
        test_ownership_forget ());
    QCheck_alcotest.to_alcotest prop_eviction_preserves_live_reports;
    QCheck_alcotest.to_alcotest prop_unhit_watermark_changes_nothing;
    QCheck_alcotest.to_alcotest prop_evicts_exactly_the_oldest;
  ]
