(** Campaign-level aggregation of race reports and exploration
    statistics.

    Race reports are deduplicated across runs by (object, field,
    site-pair); heap ids are schedule-dependent, so the object component
    is the class+field identity with object ids stripped
    ("TourElement#12.next" → "TourElement.next").  The first run that
    sighted each deduped race is remembered with its full schedule spec
    so every reported race comes with a reproduction recipe.

    An aggregate is fed {!row}s — successful runs and failures — in
    run-index order.  With a plateau window (adaptive budget) it also
    {e decides} when the campaign stopped discovering: once the window
    trips, later rows are ignored, so the folded result is a
    deterministic function of the row sequence no matter how far the
    runner overshot. *)

type race_key = private {
  k_object : string;  (** Normalized object/static-field identity. *)
  k_site_a : string;  (** Site pair, sorted lexicographically. *)
  k_site_b : string;
}

val key : obj:string -> site_a:string -> site_b:string -> race_key

val normalize_object : string -> string
(** Strip ["#<digits>"] object ids ("Foo#12.f" → "Foo.f"). *)

type sighting = {
  s_key : race_key;
  s_kinds : string;  (** e.g. ["write vs read"]. *)
}

type run_obs = {
  o_index : int;
  o_seed : int;
  o_spec : string;  (** Human description of the schedule. *)
  o_repro : string;  (** [racedet run] flags replaying it. *)
  o_sightings : sighting list;
  o_fingerprint : int;  (** Raw interleaving fingerprint of the run. *)
  o_hb_fingerprint : int option;
      (** Happens-before class fingerprint ({!Hb_fingerprint}); [None]
          on raw-equivalence campaigns and pre-hb wire rows. *)
  o_events : int;
  o_steps : int;
  o_wall : float;  (** VM seconds for this run. *)
}

type failure = { f_index : int; f_seed : int; f_error : string }

(** One observed campaign run: what crosses the wire between shards and
    what an aggregate folds. *)
type row =
  | Run of run_obs
  | Failed of failure

val row_index : row -> int

type deduped = {
  d_key : race_key;
  d_count : int;  (** Runs that reported it. *)
  d_kinds : string;
  d_first_index : int;  (** Run index of the first sighting. *)
  d_first_seed : int;
  d_first_spec : string;
  d_first_repro : string;
}

(** Why aggregation stopped accepting rows. *)
type stop_reason =
  | Exhausted  (** The run budget (or strategy) ran out. *)
  | Plateau of { p_window : int; p_at : int }
      (** [p_window] consecutive runs brought no new distinct race; the
          row with index [p_at] tripped the window. *)
  | Deadline  (** The wall-clock budget expired (runner-reported). *)

val describe_stop : stop_reason -> string

type t

val create : ?plateau:int -> ?hb:bool -> unit -> t
(** [?plateau] arms the adaptive-budget rule: after that many
    consecutive rows (runs or failures) with no new distinct race, the
    aggregate stops folding and reports {!Plateau}.  [?hb] (default
    false) folds equivalence classes over the happens-before
    fingerprint instead of the raw one; pruned-run accounting happens
    here, in fold order, so it is identical across worker counts and
    shard layouts. *)

val add_run : t -> run_obs -> unit
(** Feed observations in run-index order: first-seen attribution, the
    discovery curve and the plateau decision depend on it.  The engine
    sorts merged worker results before folding.  Ignored once the
    plateau window has tripped. *)

val add_failure : t -> failure -> unit
(** A failed run: counts toward the plateau window (it discovered
    nothing) and is recorded for the report. *)

val add_row : t -> row -> unit

val add_rows : t -> row list -> unit
(** Sort by {!row_index} and fold: the entry point for rows collected in
    completion order (pool worker outboxes, merged shard files). *)

val note_deadline : t -> unit
(** Runner-only: mark that the wall-clock budget cut the campaign short.
    Reported as the stop reason unless a plateau already tripped. *)

val races : t -> deduped list
(** Sorted by sighting count (descending), then key. *)

val failures : t -> failure list
(** In run-index order. *)

val observations : t -> run_obs list
(** The folded observations in fold order — exactly the rows a shard
    re-emits on the wire (plateau-ignored rows excluded). *)

type stats = {
  st_runs : int;
  st_failed : int;
  st_distinct_races : int;
  st_distinct_fingerprints : int;
  st_equiv_classes : int;
      (** Distinct schedule-equivalence classes folded: equals
          [st_distinct_fingerprints] under raw equivalence, and the
          number of distinct happens-before fingerprints under hb. *)
  st_pruned_runs : int;
      (** Runs whose equivalence class had already been folded — the
          detector replays an hb campaign saved.  Always [0] under raw
          equivalence. *)
  st_events : int;
  st_steps : int;
  st_run_wall : float;  (** Summed per-run VM seconds. *)
  st_discovery : (int * int) list;
      (** (run index, cumulative distinct races) at each discovery —
          the new-races-per-run decay curve. *)
  st_stop : stop_reason;
}

val stats : t -> stats

val pp_key : race_key Fmt.t
