(** The name-keyed detector registry.

    One row per race-detection technique: the paper detector plus the
    three baselines.  The CLI (`--detector NAME`) and the differential
    arena resolve techniques here; `lib/harness/pipeline.ml` drives a
    baseline through its {!Drd_core.Detector_intf.S} module
    ({!baseline}) instead of per-baseline plumbing. *)

type entry = {
  name : string;  (** Canonical registry name, e.g. ["vclock"]. *)
  aliases : string list;  (** Accepted synonyms, e.g. ["hb"]. *)
  detector : Config.detector;
      (** The configuration variant the name denotes. *)
  describe : string;  (** One-line human description for [racedet list]. *)
}

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
    caller's configuration when it already selects the paper detector,
    otherwise the baseline's standard row (no static filtering, no join
    pseudo-locks, per-object granularity for objrace) with the caller's
    seed/quantum/policy carried over. *)
