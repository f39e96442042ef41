(** The parallel schedule-exploration engine.

    Dynamic detection only covers the schedules it observes (paper
    Section 9).  A campaign drives the detector across many
    qualitatively different schedules — seed sweeps, quantum jitter,
    PCT-style priority scheduling — fanning runs out over OCaml 5
    domains, and aggregates the deduped race reports with a
    reproduction recipe for each.

    Determinism: run indices derive purely from the campaign {!spec}
    ({!Strategy.mix}), and results are folded in run-index order, so
    the same spec always yields the same report set regardless of
    worker scheduling.  That is also what makes campaigns {e shardable}:
    [run_campaign ~shard:(i, n)] executes only the indices congruent to
    [i mod n], and {!merge} re-folds rows recorded by any number of
    shards into the identical single-process report.  A wall-clock
    budget ({!budget.b_seconds}) trades determinism for boundedness; a
    plateau window ({!budget.b_plateau}) keeps it — the cutoff is a
    deterministic function of the row sequence (see {!Aggregate}). *)

module Config = Drd_harness.Config

(** {1 Campaign description}

    Re-exported from {!Campaign} (type equations, so record literals
    and [with]-updates keep working) with smart constructors — a spec
    is a pure, serializable value; see the wire codecs below. *)

type budget = Campaign.budget = {
  b_runs : int;  (** Maximum runs in the campaign. *)
  b_seconds : float option;  (** Optional wall-clock cap. *)
  b_plateau : int option;
      (** Adaptive budget: stop after this many consecutive runs with
          no new distinct race. *)
}

val budget : ?seconds:float -> ?plateau:int -> int -> budget

val runs_budget : int -> budget
(** [budget n] with no wall-clock cap and no plateau window. *)

val equal_budget : budget -> budget -> bool

val pp_budget : budget Fmt.t

(** Which schedules count as "the same interleaving" (re-exported from
    {!Campaign}). *)
type equiv = Campaign.equiv = Raw | Hb

val equiv_name : equiv -> string
(** ["raw"] or ["hb"]; the CLI/wire spelling. *)

val equiv_of_string : string -> (equiv, string) result

type spec = Campaign.spec = {
  e_config : Config.t;  (** Base detector configuration. *)
  e_strategy : Strategy.t;
  e_workers : int;  (** Domains to fan out over. *)
  e_budget : budget;
  e_pct_horizon : int;
      (** Step horizon for PCT priority-change points (ignored by other
          strategies). *)
  e_equiv : equiv;
      (** Schedule-equivalence mode.  Under {!Hb} each run is
          fingerprinted by its happens-before structure
          ({!Hb_fingerprint}) and detector replay is skipped for
          classes already seen — the run still counts, and its deduped
          races are identical to what the replay would have found. *)
}

val spec :
  ?strategy:Strategy.t ->
  ?workers:int ->
  ?budget:budget ->
  ?pct_horizon:int ->
  ?equiv:equiv ->
  Config.t ->
  spec
(** Defaults: Jitter strategy, 1 worker, 32 runs, horizon 20k, raw
    equivalence. *)

val default_spec : Config.t -> spec
(** [spec config] with all defaults. *)

val equal_spec : spec -> spec -> bool

val compatible : spec -> spec -> bool
(** Equal up to [e_workers]: do two specs describe the same campaign
    (the same deterministic run set)?  This is the merge-safety
    relation for shard files. *)

val pp_spec : spec Fmt.t

(** {1 Reports} *)

type report = {
  r_spec : spec;
  r_races : Aggregate.deduped list;
      (** Deduped by (object, field, site-pair); each with first-seen
          seed/schedule. *)
  r_objects : (string * int) list;
      (** Racy-object occurrence counts (the legacy sweep view). *)
  r_failures : Aggregate.failure list;
      (** Runs that crashed (deadlock, step limit, …) — isolated, never
          fatal to the campaign. *)
  r_obs : Aggregate.run_obs list;
      (** The folded per-run observations — what a shard emits on the
          wire ({!rows_of_report}). *)
  r_stats : Aggregate.stats;  (** Including {!Aggregate.stats.st_stop}. *)
  r_wall : float;  (** Campaign wall clock, worker compiles included. *)
}

val fingerprint_tap : unit -> Drd_vm.Sink.t * (unit -> int)
(** The raw order-sensitive interleaving fingerprint: an FNV-1a-style
    hash of the exact event stream.  Shares its constants (and the
    46-bit mask rationale) with {!Hb_fingerprint}.  The reference
    definition of [Pipeline.result.fingerprint], which every run folds
    itself, so a campaign attaches no tap for it.  Exposed for tests
    and benchmarks. *)

val observe_run :
  ?ctx:Drd_harness.Pipeline.Run_ctx.t ->
  Drd_harness.Pipeline.compiled ->
  Strategy.run_spec ->
  Aggregate.run_obs
(** Execute one schedule and summarize it (races sighted, interleaving
    fingerprint, throughput counters).  [?ctx] reuses a pooled run
    context (see {!Drd_harness.Pipeline.Run_ctx}); the observation is
    byte-identical with or without it.  Exposed for tests. *)

val run_campaign :
  ?shard:int * int ->
  ?batch:int ->
  ?reuse_ctx:bool ->
  spec ->
  source:string ->
  report
(** Execute the campaign on a persistent worker-domain pool: domains
    are spawned once (the calling domain is worker 0), each compiles
    its own program copy, claims {e chunks} of run indices from a
    batched work queue, and hands results back as pre-serialized wire
    rows through per-worker outboxes — the fold never contends with
    running workers.  [?batch] pins the chunk size (default: a few
    claims per worker, capped at 16); it is a pure throughput knob —
    every batch size yields the byte-identical report, because rows are
    re-sorted by run index before folding.  Raises [Invalid_argument]
    on [batch < 1].

    [?reuse_ctx] (default [true]) gives each worker domain one pooled
    {!Drd_harness.Pipeline.Run_ctx.t} for the whole campaign, reset in
    place between runs instead of re-allocating detector and VM state
    per run.  Like [?batch], it is a pure throughput knob: reports are
    byte-identical either way (the CLI's [--no-ctx-reuse] and CI's
    fresh-vs-reused diff enforce this).

    A source that fails to compile raises
    {!Drd_harness.Pipeline.Compile_error} before any domain is spawned:
    broken input fails the whole campaign up front instead of silently
    stranding its runs.  {e Run}-time exceptions still become
    {!Aggregate.failure} rows and never kill the campaign.

    [~shard:(i, n)] runs only the indices owned by shard [i] of [n]
    (those congruent to [i mod n]); raises [Invalid_argument] unless
    [0 <= i < n].

    A plateau window ({!budget.b_plateau}) is a campaign-wide property:
    a shard cannot evaluate it against only its own subsequence of the
    discovery curve.  In shard mode ([n > 1]) the window is therefore
    not applied locally — the shard runs its full owned slice and its
    report/rows contain every owned run — and {!merge} applies the
    window over the re-assembled index sequence, which is what keeps
    the merged report byte-identical to the single-process one. *)

val report_of_rows :
  ?wall:float ->
  ?deadline_hit:bool ->
  ?apply_plateau:bool ->
  spec ->
  Aggregate.row list ->
  report
(** Fold rows (sorted into run-index order internally) into a report,
    honoring the spec's plateau window unless [~apply_plateau:false]
    (shard-local folds, where the window must wait for the merge).
    This is the single folding path: {!run_campaign} and {!merge} both
    end here, which is why a merged report is byte-identical to a
    single-process one. *)

val merge : spec -> Aggregate.row list -> report
(** [report_of_rows spec rows] — fold rows collected from shard files
    ([r_wall] is 0; render with [~timing:false]). *)

val missing_indices : spec -> Aggregate.row list -> int list
(** Run indices in [0 .. total_runs - 1] (the campaign's deterministic
    index range, [total_runs] being the run budget capped by the
    strategy's intrinsic count) that no row covers, in ascending order.
    Non-empty input to {!merge} means an incomplete shard set: with a
    purely runs-based budget the merged report would silently differ
    from the single-process run.  Rows with negative indices (markers
    from older recorders) are ignored. *)

type shard_refusal =
  | Duplicate_index of int
      (** A run index appears in two rows (overlapping shards): the
          fold would double-count its sightings. *)
  | Missing_indices of int list
      (** Run indices no row covers under a purely runs-based budget:
          an incomplete shard set or a truncated stream. *)

val check_shard_set :
  spec -> Aggregate.row list -> (int list, shard_refusal) result
(** The one decision [racedet merge] and a serve obs session make
    before folding rows as campaign [spec] with {!merge}: which refusal
    applies, or [Ok] with the {!missing_indices} left under a
    wall-clock or plateau budget (runs that legitimately never
    executed; [merge] warns about them).  Failure rows (index -1) are
    exempt from the duplicate check. *)

val rows_of_report : report -> Aggregate.row list
(** The report's observations and failures as wire rows, in run-index
    order. *)

(** {1 Rendering}

    Shared by [racedet explore] and [racedet merge] so that a merged
    campaign reproduces the single-process report byte for byte.
    [~timing:false] omits everything that depends on wall clock or
    worker fan-out (use it when comparing shard-merged output against
    a single-process run). *)

val report_text : ?timing:bool -> target:string -> report -> string
(** [target] is what reproduction command lines name (a file path or
    ["-b NAME"]). *)

val report_json : ?timing:bool -> report -> string

(** {1 Wire (re-exported from {!Wire})}

    The versioned JSON-lines observation format for sharded campaigns. *)

val spec_to_json : ?target:string -> spec -> string

val spec_of_json : string -> (spec, string) result

val target_of_json : string -> (string, string) result

val obs_to_json : Aggregate.run_obs -> string

val obs_of_json : string -> (Aggregate.run_obs, string) result

val failure_to_json : Aggregate.failure -> string

val failure_of_json : string -> (Aggregate.failure, string) result

val row_to_json : Aggregate.row -> string

val row_of_json : string -> (Aggregate.row, string) result

val row_of_line : string -> (Aggregate.row, string) result
(** Line-at-a-time streaming decode; see {!Wire.row_of_line}. *)

val write_obs_channel :
  out_channel -> ?target:string -> spec -> Aggregate.row list -> unit

val read_obs_channel :
  in_channel -> (spec * string * Aggregate.row list, string) result

val fold_obs_channel :
  in_channel ->
  init:'a ->
  row:('a -> Aggregate.row -> 'a) ->
  (spec * string * 'a, string) result
(** Streaming fold over an observation file; see
    {!Wire.fold_obs_channel}. *)

(** {1 The legacy seed sweep} *)

type sweep_result = {
  sw_objects : (string * int) list;
      (** [(object, runs-that-reported-it)], sorted by frequency. *)
  sw_failures : (int * string) list;  (** [(seed, error)]. *)
}

val sweep :
  ?workers:int -> Config.t -> source:string -> seeds:int list -> sweep_result
(** The legacy schedule sweep (formerly [Pipeline.sweep]), rebased onto
    the engine: run once per scheduler seed and aggregate the racy
    objects. *)
