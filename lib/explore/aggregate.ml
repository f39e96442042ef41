(* Campaign-level aggregation: dedupe race reports across runs by
   (object, field, site-pair), remember the first schedule that produced
   each, keep the exploration statistics (distinct interleaving
   fingerprints, discovery decay, throughput inputs) — and, with a
   plateau window armed, decide when the campaign stopped discovering.

   The plateau decision lives here rather than in the runner so that it
   is a deterministic function of the row sequence in run-index order:
   parallel runners may overshoot the stop point (in-flight runs), and
   [racedet merge] re-folds rows recorded elsewhere; both get the same
   cutoff because this module ignores every row after the window
   trips. *)

type race_key = {
  k_object : string;
  k_site_a : string;
  k_site_b : string;
}

(* Heap ids are schedule-dependent ("TourElement#12.next" may be #14
   under another interleaving), so keys strip the "#id" component and
   dedupe on the class+field identity. *)
let normalize_object name =
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if name.[!i] = '#' then begin
      incr i;
      while !i < n && name.[!i] >= '0' && name.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

let key ~obj ~site_a ~site_b =
  let obj = normalize_object obj in
  if String.compare site_a site_b <= 0 then
    { k_object = obj; k_site_a = site_a; k_site_b = site_b }
  else { k_object = obj; k_site_a = site_b; k_site_b = site_a }

type sighting = {
  s_key : race_key;
  s_kinds : string; (* e.g. "write vs read" *)
}

type run_obs = {
  o_index : int;
  o_seed : int;
  o_spec : string; (* human description of the schedule *)
  o_repro : string; (* racedet run flags replaying it *)
  o_sightings : sighting list;
  o_fingerprint : int;
  o_hb_fingerprint : int option; (* happens-before class (hb campaigns) *)
  o_events : int;
  o_steps : int;
  o_wall : float; (* VM seconds for this run *)
}

type failure = { f_index : int; f_seed : int; f_error : string }

type row =
  | Run of run_obs
  | Failed of failure

let row_index = function Run o -> o.o_index | Failed f -> f.f_index

type deduped = {
  d_key : race_key;
  d_count : int;
  d_kinds : string;
  d_first_index : int;
  d_first_seed : int;
  d_first_spec : string;
  d_first_repro : string;
}

type stop_reason =
  | Exhausted
  | Plateau of { p_window : int; p_at : int }
  | Deadline

let describe_stop = function
  | Exhausted -> "budget exhausted"
  | Plateau { p_window; p_at } ->
      Printf.sprintf "discovery plateau: no new race for %d consecutive runs (tripped by run %d)"
        p_window p_at
  | Deadline -> "wall-clock budget expired"

type t = {
  plateau : int option;
  hb : bool; (* fold under happens-before equivalence *)
  mutable quiet : int; (* consecutive folded rows with no new race *)
  mutable plateau_stop : (int * int) option; (* window, tripping index *)
  mutable deadline_hit : bool;
  mutable runs : int;
  mutable failures : failure list; (* reverse order *)
  mutable obs : run_obs list; (* reverse fold order *)
  races : (race_key, deduped) Hashtbl.t;
  fingerprints : (int, int) Hashtbl.t; (* fingerprint -> runs showing it *)
  equiv_keys : (int, unit) Hashtbl.t; (* equivalence classes folded so far *)
  mutable pruned : int; (* runs whose class was already seen (hb only) *)
  mutable discovery : (int * int) list; (* (run idx, cumulative races), rev *)
  mutable events : int;
  mutable steps : int;
  mutable run_wall : float;
}

let create ?plateau ?(hb = false) () =
  {
    plateau;
    hb;
    quiet = 0;
    plateau_stop = None;
    deadline_hit = false;
    runs = 0;
    failures = [];
    obs = [];
    races = Hashtbl.create 32;
    fingerprints = Hashtbl.create 64;
    equiv_keys = Hashtbl.create 64;
    pruned = 0;
    discovery = [];
    events = 0;
    steps = 0;
    run_wall = 0.;
  }

let stopped t = t.plateau_stop <> None

(* A row brought no new distinct race; advance the plateau window. *)
let note_quiet t index =
  match t.plateau with
  | None -> ()
  | Some window ->
      t.quiet <- t.quiet + 1;
      if t.quiet >= window then t.plateau_stop <- Some (window, index)

(* Feed observations in run-index order for deterministic first-seen
   attribution and plateau decisions; the engine sorts merged worker
   results before folding. *)
let add_run t (o : run_obs) =
  if stopped t then ()
  else begin
    t.runs <- t.runs + 1;
    t.obs <- o :: t.obs;
    t.events <- t.events + o.o_events;
    t.steps <- t.steps + o.o_steps;
    t.run_wall <- t.run_wall +. o.o_wall;
    Hashtbl.replace t.fingerprints o.o_fingerprint
      (1 + Option.value (Hashtbl.find_opt t.fingerprints o.o_fingerprint) ~default:0);
    (* Equivalence-class accounting is done here, in fold order, rather
       than trusting the runner's replay cache: workers race to claim
       classes and shards each start cold, so runner-side counts are not
       deterministic — this fold is, which keeps merged reports
       byte-identical to single-process ones. *)
    let equiv_key =
      if t.hb then Option.value o.o_hb_fingerprint ~default:o.o_fingerprint
      else o.o_fingerprint
    in
    if Hashtbl.mem t.equiv_keys equiv_key then begin
      if t.hb then t.pruned <- t.pruned + 1
    end
    else Hashtbl.add t.equiv_keys equiv_key ();
    let new_race = ref false in
    (* A run can sight the same key through several racy locations (two
       objects of one class); count it once per run. *)
    let seen_this_run = Hashtbl.create 8 in
    List.iter
      (fun s ->
        if not (Hashtbl.mem seen_this_run s.s_key) then begin
          Hashtbl.add seen_this_run s.s_key ();
          match Hashtbl.find_opt t.races s.s_key with
          | Some d ->
              Hashtbl.replace t.races s.s_key { d with d_count = d.d_count + 1 }
          | None ->
              new_race := true;
              Hashtbl.add t.races s.s_key
                {
                  d_key = s.s_key;
                  d_count = 1;
                  d_kinds = s.s_kinds;
                  d_first_index = o.o_index;
                  d_first_seed = o.o_seed;
                  d_first_spec = o.o_spec;
                  d_first_repro = o.o_repro;
                }
        end)
      o.o_sightings;
    if !new_race then begin
      t.quiet <- 0;
      t.discovery <- (o.o_index, Hashtbl.length t.races) :: t.discovery
    end
    else note_quiet t o.o_index
  end

let add_failure t (f : failure) =
  if stopped t then ()
  else begin
    t.failures <- f :: t.failures;
    note_quiet t f.f_index
  end

let add_row t = function Run o -> add_run t o | Failed f -> add_failure t f

(* Rows from pool workers / merged shards arrive in completion order;
   re-establish run-index order here so the fold semantics (first-seen
   attribution, plateau cutoff) never depend on scheduling. *)
let add_rows t rows =
  List.sort (fun a b -> compare (row_index a) (row_index b)) rows
  |> List.iter (add_row t)

let note_deadline t = t.deadline_hit <- true

let races t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.races []
  |> List.sort (fun a b ->
         match compare b.d_count a.d_count with
         | 0 -> compare a.d_key b.d_key
         | c -> c)

let failures t =
  List.sort (fun a b -> compare a.f_index b.f_index) t.failures

let observations t = List.rev t.obs

type stats = {
  st_runs : int;
  st_failed : int;
  st_distinct_races : int;
  st_distinct_fingerprints : int;
  st_equiv_classes : int; (* distinct equivalence classes folded *)
  st_pruned_runs : int; (* runs that needed no detector replay (hb) *)
  st_events : int;
  st_steps : int;
  st_run_wall : float; (* summed per-run VM seconds (CPU view) *)
  st_discovery : (int * int) list; (* run index -> cumulative races *)
  st_stop : stop_reason;
}

let stats t =
  {
    st_runs = t.runs;
    st_failed = List.length t.failures;
    st_distinct_races = Hashtbl.length t.races;
    st_distinct_fingerprints = Hashtbl.length t.fingerprints;
    st_equiv_classes = Hashtbl.length t.equiv_keys;
    st_pruned_runs = t.pruned;
    st_events = t.events;
    st_steps = t.steps;
    st_run_wall = t.run_wall;
    st_discovery = List.rev t.discovery;
    st_stop =
      (match t.plateau_stop with
      | Some (p_window, p_at) -> Plateau { p_window; p_at }
      | None -> if t.deadline_hit then Deadline else Exhausted);
  }

let pp_key ppf k =
  Fmt.pf ppf "%s  [%s vs %s]" k.k_object k.k_site_a k.k_site_b
