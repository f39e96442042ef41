open Drd_core

(* The name-keyed detector registry: one row per race-detection
   technique the repo implements.  `racedet run/detect/arena --detector
   NAME` and the differential arena resolve techniques here instead of
   carrying per-baseline plumbing. *)

type entry = {
  name : string;
  aliases : string list;
  detector : Config.detector; (* the Config variant the name denotes *)
  describe : string; (* one line for `racedet list` *)
}

let all =
  [
    {
      name = "paper";
      aliases = [ "ours" ];
      detector = Config.Ours;
      describe =
        "The paper's detector (Choi et al. 2002): trie histories, \
         weaker-than filtering, ownership model, join pseudo-locks";
    };
    {
      name = "eraser";
      aliases = [];
      detector = Config.Eraser;
      describe =
        "Eraser lockset discipline (Savage et al. 1997): one common lock \
         across all accesses, no fork/join modeling";
    };
    {
      name = "objrace";
      aliases = [ "objectrace" ];
      detector = Config.ObjRace;
      describe =
        "Object race detection (von Praun & Gross 2001): per-object \
         granularity, virtual calls count as writes to the receiver";
    };
    {
      name = "vclock";
      aliases = [ "hb"; "happens-before" ];
      detector = Config.HappensBefore;
      describe =
        "Vector-clock happens-before detection (Djit/TRaDe style): precise \
         for the observed order, misses schedule-hidden feasible races";
    };
  ]

let names () = List.map (fun e -> e.name) all

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> e.name = name || List.mem name e.aliases) all

let of_detector (d : Config.detector) =
  match d with
  | Config.NoDetect -> None
  | _ -> List.find_opt (fun e -> e.detector = d) all

(* The paper detector has no module here: runs drive it directly,
   through its specialized fast paths. *)
let baseline : Config.detector -> (module Detector_intf.S) option = function
  | Config.Eraser -> Some (module Drd_baselines.Eraser)
  | Config.ObjRace -> Some (module Drd_baselines.Objrace)
  | Config.HappensBefore -> Some (module Drd_baselines.Happens_before)
  | Config.Ours | Config.NoDetect -> None

(* The canonical harness configuration for running [e]: the paper
   detector keeps the caller's configuration when it already selects
   it (so `-c NoCache --detector paper` still means NoCache) and the
   baselines take their standard rows — everything instrumented, no
   static filtering, no join pseudo-locks, object granularity for
   objrace — with the caller's schedule parameters carried over. *)
let apply e (c : Config.t) =
  match e.detector with
  | Config.Ours ->
      if c.Config.detector = Config.Ours then c
      else
        {
          Config.full with
          Config.seed = c.Config.seed;
          quantum = c.Config.quantum;
          policy = c.Config.policy;
        }
  | det ->
      let row =
        match det with
        | Config.Eraser -> Config.eraser
        | Config.ObjRace -> Config.objrace
        | Config.HappensBefore -> Config.happens_before
        | Config.Ours | Config.NoDetect -> assert false
      in
      {
        row with
        Config.seed = c.Config.seed;
        quantum = c.Config.quantum;
        policy = c.Config.policy;
      }
