(** The session/control framing of [racedet serve], built on the wire
    JSON layer ({!Drd_explore.Wire}).

    A connection (one Unix-socket accept, or the daemon's stdin)
    carries a sequence of newline-delimited frames:

    - {b payload lines} — for an [events] session, lines in the
      {!Drd_core.Event_log} text format ([A/L/U/S/J/X ...]); for an
      [obs] session, the v2 wire observation lines ([spec]/[run]/
      [failure] tagged JSON) that [racedet explore --emit-obs] writes.
      Event lines never start with ['{'], so the hot ingest path never
      parses JSON.
    - {b control frames} — JSON lines tagged [hello] (open a session),
      [stats] (request a metrics snapshot), [close] (end the session
      and emit its final report) and [shutdown] (stop the daemon;
      socket mode).  A payload line before any [hello] implicitly opens
      a default [events] session, so [cat events.log | racedet serve]
      works bare.

    Server responses are JSON frames tagged [hello] (ack), [race]
    (incremental: a new racy location, emitted the moment the detector
    reports it), [report] (final per-session aggregate), [stats] and
    [error].  Every frame carries a protocol version; decoders reject
    frames from a future version instead of guessing. *)

module Wire = Drd_explore.Wire

val protocol_version : int

(** Session payload kind. *)
type kind =
  | Events  (** Incremental detection over an event-log stream. *)
  | Obs  (** Streaming fold of explore observation rows (merge). *)

val kind_name : kind -> string
val kind_of_string : string -> (kind, string) result

(** Client-to-server control frames. *)
type control =
  | Hello of { c_session : string; c_kind : kind; c_config : string }
  | Stats_req
  | Close
  | Shutdown

(** One classified inbound line. *)
type inbound =
  | Control of control
  | Payload  (** Event-log line or obs row; the session decodes it. *)

val classify_line : string -> (inbound, string) result
(** Lines not starting with ['{'] are payload without further
    inspection.  JSON lines dispatch on their ["t"] tag: control tags
    yield [Control], wire observation tags ([spec]/[run]/[failure])
    yield [Payload], anything else (or a future protocol version) is an
    error. *)

val classify_substring : string -> int -> int -> (inbound, string) result
(** [classify_substring s pos len] is [classify_line (String.sub s pos
    len)], copying only a JSON line. *)

val control_to_line : control -> string
(** Encode a control frame (for clients and tests). *)

(* ---- server-to-client frames; each is one line, no newline ---- *)

val hello_frame : session:string -> kind:kind -> string

val race_json : Drd_core.Report.race -> Wire.json
(** The id-level rendering of one race: location, current access
    (thread/kind/site/sorted lockset) and the prior access it races
    with (thread or ["multiple"]).  Shared by the incremental race
    frames, the final report body and [racedet detect --json]. *)

val race_frame : session:string -> seq:int -> Drd_core.Report.race -> string

val events_report_body :
  races:Drd_core.Report.race list ->
  stats:Drd_core.Detector.stats ->
  evictions:int ->
  string
(** The final aggregate of an [events] session, as a raw JSON string:
    the deduped race list plus the detector's funnel statistics and the
    eviction count.  Byte-deterministic, so a serve session fed a
    recorded log renders byte-identically to the one-shot detector run
    it replays (as long as nothing was evicted).  Live-location counts
    are deliberately absent — they are instantaneous daemon state,
    reported by stats frames. *)

val report_frame : session:string -> body:string -> string
(** [body] is a raw JSON value (e.g. {!events_report_body} or an
    {!Drd_explore.Explore.report_json} string), spliced verbatim. *)

val stats_frame : Wire.json -> string

val error_frame : msg:string -> string
