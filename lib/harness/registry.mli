(** The name-keyed detector registry.

    One row per race-detection technique: the paper detector plus the
    three Section 9 baselines.  It is the only module that knows a
    technique's configuration: {!Config} names the paper pipeline's
    Table 2/3 rows, and a baseline's row comes from {!apply}.  The CLI
    (`--detector NAME`) and the differential arena resolve techniques
    here; `lib/harness/pipeline.ml` drives a baseline through its
    {!Drd_core.Detector_intf.S} module ({!baseline}) instead of
    per-baseline plumbing. *)

type entry = {
  name : string;  (** Canonical registry name, e.g. ["vclock"]. *)
  aliases : string list;  (** Accepted synonyms, e.g. ["hb"]. *)
  detector : Config.detector;
      (** The configuration variant the name denotes. *)
  describe : string;  (** One-line human description for [racedet list]. *)
}

val eraser : entry
val objrace : entry
val vclock : entry
(** The three baselines, for callers that run one by name. *)

val all : entry list
(** [paper], [eraser], [objrace], [vclock] — in presentation order. *)

val names : unit -> string list

val find : string -> entry option
(** Case-insensitive lookup by name or alias. *)

val of_detector : Config.detector -> entry option
(** The entry implementing a configuration's detector; [None] for
    [NoDetect]. *)

val baseline : Config.detector -> (module Drd_core.Detector_intf.S) option
(** The module that runs a baseline detector; [None] for the paper
    detector, which runs drive directly, and for [NoDetect]. *)

val apply : entry -> Config.t -> Config.t
(** The canonical harness configuration for running [entry]: keeps the
    caller's configuration when it already selects the paper detector
    (otherwise {!Config.full}); a baseline gets its standard row, named
    ["Eraser"], ["ObjRace"] or ["HappensBefore"] — everything
    instrumented, no static filtering, no join pseudo-locks, per-object
    granularity for objrace.  The caller's seed/quantum/policy are
    carried over. *)
