module Detector = Drd_core.Detector
module Event_log = Drd_core.Event_log
module Report = Drd_core.Report
module Pipeline = Drd_harness.Pipeline
module Explore = Drd_explore.Explore
module Aggregate = Drd_explore.Aggregate

type events_state = {
  detector : Detector.t;
  collector : Report.collector;
  mutable fed : int;
  mutable emitted : int;  (** race frames sent so far *)
}

type obs_state = {
  (* Header line not yet seen while [None]. *)
  mutable spec : (Explore.spec * string) option;
  mutable rows_rev : Aggregate.row list;
  mutable obs_fed : int;
  mutable obs_races : int;  (** distinct races; known only after close *)
}

type state = E of events_state | O of obs_state

type t = { s_id : string; s_kind : Protocol.kind; state : state }

(* A connection-lifetime pool of (detector, collector) pairs, keyed by
   the detector knobs a session's configuration selects.  The daemon's
   eviction policy is fixed per server, so it is not part of the key.
   Reusing a pooled pair across the sessions of one connection — reset
   in place at session open — keeps the detector's grown tables
   (history, caches, ownership) warm instead of re-allocating them per
   session; reports are byte-identical to fresh-detector sessions. *)
type pool = {
  mutable p_entries : ((bool * bool) * (Detector.t * Report.collector)) list;
}

let pool () = { p_entries = [] }

let create ?pool ~id ~kind ~config ~eviction () =
  let state =
    match kind with
    | Protocol.Events ->
        (* Mirror the one-shot post-mortem path (Pipeline.detect_post_mortem):
           same knobs, Per_location history — which eviction requires. *)
        let dconfig = Pipeline.detector_config_of config in
        let fresh () =
          let collector = Report.collector () in
          let detector = Detector.create ~config:dconfig ?eviction collector in
          (detector, collector)
        in
        let detector, collector =
          match pool with
          | None -> fresh ()
          | Some p -> (
              let key = (dconfig.Detector.use_cache, dconfig.Detector.use_ownership) in
              match List.assoc_opt key p.p_entries with
              | Some (d, c) ->
                  (* Detector.reset leaves the collector to its owner. *)
                  Detector.reset d;
                  Report.reset c;
                  (d, c)
              | None ->
                  let pair = fresh () in
                  p.p_entries <- (key, pair) :: p.p_entries;
                  pair)
        in
        E { detector; collector; fed = 0; emitted = 0 }
    | Protocol.Obs ->
        O { spec = None; rows_rev = []; obs_fed = 0; obs_races = 0 }
  in
  { s_id = id; s_kind = kind; state }

let id t = t.s_id
let kind t = t.s_kind

(* New races since the last emission: the collector keeps detection
   order, so they are the suffix after the first [emitted], taken in
   time proportional to their number. *)
let fresh_race_frames t st =
  let total = Report.count st.collector in
  if total = st.emitted then []
  else
    let frames =
      List.mapi
        (fun i race ->
          Protocol.race_frame ~session:t.s_id ~seq:(st.emitted + i) race)
        (Report.races_from st.collector st.emitted)
    in
    st.emitted <- total;
    frames

let feed_events t st s pos len =
  match Event_log.entry_of_substring s pos len with
  | Error _ as e -> e
  | Ok None -> Ok []
  | Ok (Some entry) ->
      st.fed <- st.fed + 1;
      (match entry with
      | Event_log.Access e -> Detector.on_access st.detector e
      | Event_log.Acquire (thread, lock) ->
          Detector.on_acquire st.detector ~thread ~lock
      | Event_log.Release (thread, lock) ->
          Detector.on_release st.detector ~thread ~lock
      | Event_log.Thread_start _ | Event_log.Thread_join _ -> ()
      | Event_log.Thread_exit thread ->
          Detector.on_thread_exit st.detector ~thread);
      Ok (fresh_race_frames t st)

let feed_obs st line =
  match st.spec with
  | None -> (
      match Explore.spec_of_json line with
      | Error m -> Error ("obs header: " ^ m)
      | Ok spec ->
          let target =
            match Explore.target_of_json line with Ok t -> t | Error _ -> ""
          in
          st.spec <- Some (spec, target);
          Ok [])
  | Some _ -> (
      match Explore.row_of_line line with
      | Error _ as e -> e
      | Ok row ->
          st.rows_rev <- row :: st.rows_rev;
          st.obs_fed <- st.obs_fed + 1;
          Ok [])

let feed_substring t s pos len =
  match t.state with
  | E st -> feed_events t st s pos len
  | O st -> feed_obs st (String.sub s pos len)

let feed_line t line = feed_substring t line 0 (String.length line)

(* The same refusals [racedet merge] gives for a broken shard set. *)
let check_rows spec rows =
  match Explore.check_shard_set spec rows with
  | Error (Explore.Duplicate_index i) ->
      Error
        (Printf.sprintf "run index %d appears more than once in the stream" i)
  | Error (Explore.Missing_indices missing) ->
      Error
        (Printf.sprintf
           "%d of %d run indices missing — truncated stream? refusing to fold"
           (List.length missing) spec.Explore.e_budget.Explore.b_runs)
  | Ok _ -> Ok ()

let close t =
  match t.state with
  | E st ->
      Ok
        (Protocol.events_report_body
           ~races:(Report.races st.collector)
           ~stats:(Detector.stats st.detector)
           ~evictions:(Detector.evictions st.detector))
  | O st -> (
      match st.spec with
      | None -> Error "obs session closed before its spec header line"
      | Some (spec, _target) -> (
          let rows = List.rev st.rows_rev in
          match check_rows spec rows with
          | Error _ as e -> e
          | Ok () ->
              let report = Explore.merge spec rows in
              st.obs_races <-
                report.Explore.r_stats.Aggregate.st_distinct_races;
              Ok (Explore.report_json ~timing:false report)))

let events t = match t.state with E st -> st.fed | O st -> st.obs_fed
let races t =
  match t.state with E st -> Report.count st.collector | O st -> st.obs_races

let evictions t =
  match t.state with E st -> Detector.evictions st.detector | O _ -> 0

let live_locations t =
  match t.state with E st -> Detector.live_locations st.detector | O _ -> 0
