open Drd_core

(* The name-keyed detector registry: one row per race-detection
   technique the repo implements, and the only place that knows what a
   technique's configuration is.  `racedet run/detect/explore/arena
   --detector NAME` and the differential arena resolve techniques here;
   [Config] names only the paper pipeline's Table 2/3 rows. *)

type entry = {
  name : string;
  aliases : string list;
  detector : Config.detector; (* the Config variant the name denotes *)
  describe : string; (* one line for `racedet list` *)
}

let paper =
  {
    name = "paper";
    aliases = [ "ours" ];
    detector = Config.Ours;
    describe =
      "The paper's detector (Choi et al. 2002): trie histories, \
       weaker-than filtering, ownership model, join pseudo-locks";
  }

let eraser =
  {
    name = "eraser";
    aliases = [];
    detector = Config.Eraser;
    describe =
      "Eraser lockset discipline (Savage et al. 1997): one common lock \
       across all accesses, no fork/join modeling";
  }

let objrace =
  {
    name = "objrace";
    aliases = [ "objectrace" ];
    detector = Config.ObjRace;
    describe =
      "Object race detection (von Praun & Gross 2001): per-object \
       granularity, virtual calls count as writes to the receiver";
  }

let vclock =
  {
    name = "vclock";
    aliases = [ "hb"; "happens-before" ];
    detector = Config.HappensBefore;
    describe =
      "Vector-clock happens-before detection (Djit/TRaDe style): precise \
       for the observed order, misses schedule-hidden feasible races";
  }

let all = [ paper; eraser; objrace; vclock ]

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

(* A baseline's standard row (Section 9): everything instrumented — no
   static filtering, weaker-than elimination or peeling — no join
   pseudo-locks, and object granularity for objrace. *)
let baseline_row name detector =
  {
    Config.full with
    Config.name;
    detector;
    static_analysis = false;
    weaker_elim = false;
    loop_peel = false;
    pseudo_locks = false;
    granularity =
      (if detector = Config.ObjRace then Drd_vm.Memloc.Per_object
       else Drd_vm.Memloc.Per_field);
  }

(* The canonical harness configuration for running [e]: the paper
   detector keeps the caller's configuration when it already selects
   it (so `-c NoCache --detector paper` still means NoCache), otherwise
   it runs Full; a baseline runs its standard row.  The caller's
   schedule parameters are carried over either way. *)
let apply e (c : Config.t) =
  let row =
    match e.detector with
    | Config.Ours when c.Config.detector = Config.Ours -> c
    | Config.Ours | Config.NoDetect -> Config.full
    | Config.Eraser -> baseline_row "Eraser" Config.Eraser
    | Config.ObjRace -> baseline_row "ObjRace" Config.ObjRace
    | Config.HappensBefore -> baseline_row "HappensBefore" Config.HappensBefore
  in
  {
    row with
    Config.seed = c.Config.seed;
    quantum = c.Config.quantum;
    policy = c.Config.policy;
  }
