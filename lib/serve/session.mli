(** One client session of the serve daemon.

    An [Events] session owns a fresh detector (with the daemon's
    eviction policy) and a race collector; every payload line is
    decoded with {!Drd_core.Event_log.entry_of_line} and fed straight
    through the interned hot path, and each newly reported racy
    location is returned as an incremental race frame.  Closing renders
    the final aggregate ({!Protocol.events_report_body}), which is
    byte-identical to rendering the one-shot detector run over the same
    stream.

    An [Obs] session is a streaming [racedet merge] of one shard: the
    first payload line must be the wire spec header, each further line
    one observation row; closing folds the rows ({!Drd_explore.Explore.merge})
    and renders the campaign report JSON.  Obs sessions emit no
    incremental frames — the fold is defined in run-index order, which
    a stream does not promise. *)

type t

type pool
(** A connection-lifetime pool of detector state: sessions opened with
    the same detector knobs reuse one (detector, collector) pair, reset
    in place at session open instead of re-allocated.  Pools are
    single-connection (and single-domain) — never share one across
    connections. *)

val pool : unit -> pool

val create :
  ?pool:pool ->
  id:string ->
  kind:Protocol.kind ->
  config:Drd_harness.Config.t ->
  eviction:Drd_core.Detector.eviction option ->
  unit ->
  t
(** [config] supplies the detector knobs ([use_cache],
    [use_ownership], through {!Drd_harness.Pipeline.detector_config_of});
    an [Events] session runs the paper detector, the only technique a
    configuration name selects.  The history is always [Per_location],
    the representation eviction requires.  [?pool] reuses the connection's
    pooled detector state for an [Events] session; the session's frames
    and report are byte-identical with or without it. *)

val id : t -> string
val kind : t -> Protocol.kind

val feed_line : t -> string -> (string list, string) result
(** Ingest one payload line; returns the frames to send back (race
    frames, usually none).  [Error] means the line was malformed for
    this session's kind — the server answers with an error frame and
    drops the session. *)

val feed_substring : t -> string -> int -> int -> (string list, string) result
(** [feed_substring t s pos len] is [feed_line t (String.sub s pos
    len)] without copying an events line: the socket transport feeds
    lines where they lie in its connection buffer.  [s] is only read
    during the call. *)

val close : t -> (string, string) result
(** Final report body (a raw JSON value for {!Protocol.report_frame}).
    [Error] for an obs session whose stream was incomplete (no spec
    header, or missing run indices under a purely runs-based budget —
    the same refusal [racedet merge] gives). *)

val events : t -> int
(** Payload entries ingested (event-log entries or observation rows). *)

val races : t -> int
(** Distinct racy locations reported so far (0 for an obs session until
    close). *)

val evictions : t -> int
val live_locations : t -> int
