(** The end-to-end pipeline of the paper's Figure 1: static datarace
    analysis → optimized instrumentation → execution with the runtime
    optimizer and detector — assembled according to a {!Config.t}. *)

module Ir = Drd_ir.Ir
module Link = Drd_ir.Link
module Interp = Drd_vm.Interp
module Value = Drd_vm.Value
open Drd_core

type compiled = {
  prog : Ir.program;
  image : Link.image;
      (** The flat executable image the link phase produced; the VM runs
          this, never the block IR. *)
  config : Config.t;
  traces_inserted : int;  (** Trace statements after static filtering. *)
  traces_eliminated : int;  (** Removed by static weaker-than. *)
  static_stats : Drd_static.Race_set.stats option;
  race_set : Drd_static.Race_set.t option;
      (** The static analysis results, kept for the Section 2.6
          static-peer listing. *)
  compile_time : float;  (** Seconds spent in analysis + instrumentation. *)
}

type engine = [ `Linked | `Ref | `Spec ]
(** Which interpreter executes the program: [`Spec] is the production
    engine — the flat {!Link.image} with its link-time specialized trace
    sites taking their fast paths; [`Linked] runs the very same image
    with the fast paths disabled (specialized ops degrade to generic
    ones when the sink installs no [spec] handler); [`Ref] is the frozen
    pre-link block interpreter ({!Drd_vm.Interp_ref}), kept as the
    oracle of the golden byte-identity suite and CI's engine diff.  All
    three produce bit-identical schedules, event streams and reports;
    only detector-internal statistics may differ under [`Spec]. *)

exception Compile_error of string
(** A frontend failure (lexing, parsing or typechecking), with the
    source position rendered into the message.  Distinct from runtime
    failures: a program that does not compile fails the same way every
    run, so campaign runners treat it as fatal up front rather than as
    per-run failure rows, and the CLI maps it to its usage-error exit
    (the input is broken, not the data produced from it). *)

val frontend : source:string -> Drd_lang.Tast.tprogram
(** Parse and typecheck one program: the first step of {!compile}.
    Raises {!Compile_error} on invalid source. *)

val compile : Config.t -> source:string -> compiled
(** Parse, typecheck, (optionally) peel, lower, analyze, instrument and
    link one program.  Raises {!Compile_error} on invalid source and
    {!Drd_ir.Link.Link_error} on an unlinkable program.

    A [compiled] is freely reusable across runs ({!run} mutates no
    compiled state) but must stay on the domain that compiled it:
    instrumentation and linking mutate the IR in place and runs share
    the image's site tables, so pool workers each compile their own
    copy once and reuse it for every run they claim. *)

type result = {
  races : string list;
      (** Decoded racy location names, sorted (one per location). *)
  racy_objects : string list;
      (** Racy locations grouped to their object (or static field), the
          unit Table 3 counts. *)
  report : Report.collector option;  (** Our detector's reports. *)
  detector_stats : Detector.stats option;
  events : int;  (** Access events emitted by the program. *)
  prints : (string * Value.t option) list;
  steps : int;  (** Instructions executed. *)
  threads : int;  (** Dynamic thread count (Table 1). *)
  wall_time : float;  (** Seconds of VM execution. *)
  trie_nodes : int;
  locations_tracked : int;
  heap : Drd_vm.Heap.t;  (** Final heap, for decoding identities. *)
  deadlocks : Lock_order.report list;
      (** Potential deadlocks from the dynamic lock-order graph (the
          paper's Section 10 future work), when running our detector. *)
  immutability : Immutability.summary option;
      (** Dynamic immutability classification of the traced locations
          (Section 10 future work), when running our detector. *)
  spec_events : int;
      (** Events that arrived through specialized trace ops; 0 unless
          the [`Spec] engine ran an image with specialized sites. *)
  site_stats : (int array * int array) option;
      (** Per-site (events seen, fast-path drops), indexed by site id;
          present only under [~site_stats:true]. *)
  fingerprint : int;
      (** The raw schedule fingerprint: an order-sensitive FNV-1a fold of
          thread, location and kind per access, thread and lock per
          acquire and release, and parent and child per thread start.
          Computed by every run, for every engine, configuration and
          [?detect] mode, and equal to what [Explore.fingerprint_tap]
          (the reference definition) folds over the same run. *)
}

val vm_config_of : Config.t -> Interp.config
(** The VM configuration a harness configuration denotes (seed, quantum,
    granularity, pseudo-locks, scheduling policy). *)

val detector_config_of : Config.t -> Detector.config
(** The paper detector's knobs a harness configuration selects (cache,
    ownership): the one place a run, a post-mortem replay and a serve
    session get their detector configuration from. *)

(** A resettable per-worker run context: every piece of mutable state a
    {!run} needs — the VM context (heap, thread/monitor tables, PCT
    priorities), the detector with its tries, caches and ownership
    table, the report collector, lock-order graph, immutability tracker
    and (when the image carries static facts) the specialized-trace
    scratch — allocated once and reset in place at the start of each
    run.  A {!run} without a context runs on a fresh one, so a run with
    a context is byte-identical to one without; only the allocation
    behaviour differs.  Contexts are single-domain and bound to the
    [compiled] they were created from. *)
module Run_ctx : sig
  type t

  val create : compiled -> t
  (** Allocate a context sized for [compiled]'s configuration: the
      detector matching [config.detector], plus VM and spec state. *)
end

val run :
  ?ctx:Run_ctx.t ->
  ?vm:Interp.config ->
  ?tap:Drd_vm.Sink.t ->
  ?detect:bool ->
  ?engine:engine ->
  ?site_stats:bool ->
  compiled ->
  result
(** Execute the compiled program under its configuration's detector.
    [?vm] overrides the VM configuration (the exploration engine swaps
    seed/quantum/policy per run without recompiling); [?tap] receives a
    copy of every VM notification alongside the detector (the
    happens-before fingerprint, event logs); the raw fingerprint needs
    no tap, it is [result.fingerprint].  [?detect:false] runs the {e
    same} instrumented program — so the schedule is bit-identical — but
    skips all detector work, leaving only event counting, the raw
    fingerprint and the tap; the
    exploration engine uses it for fingerprint-only passes when replay
    pruning decides whether the detector pass is needed at all.
    [?engine] (default [`Spec]) selects the interpreter; [`Linked] and
    [`Ref] exist for golden-identity checking and benchmarking.
    [?site_stats:true] additionally counts events and fast-path drops
    per trace site (a small per-event cost; off by default).

    The configuration's detector decides what runs: the paper detector
    (with the specialized fast paths under [`Spec]), a baseline through
    its {!Registry} module ([result.races] holds its racy locations,
    [report] and [detector_stats] are [None]), or none.

    [?ctx] runs inside a pooled {!Run_ctx.t}: the context is reset at
    the start of the run.  Without it the run makes a fresh context for
    itself — under [~detect:false] one without the detector and the
    spec memos.  The returned [heap] and [report] alias the context's
    state — read them before the next run on the same context.  Raises
    [Invalid_argument] if [ctx] was created from a different
    [compiled].  If the run raises {!Interp.Runtime_error}, the context
    stays valid and fully resets on its next use. *)

val run_source : Config.t -> string -> compiled * result

val names_of : compiled -> result -> Names.t
(** A names registry for pretty-printing this run's reports. *)

val static_peers_of_site : compiled -> Drd_core.Event.site_id -> string list
(** For a dynamic report's source site, the statically-possible racing
    statements (paper Section 2.6), rendered as
    ["Class.method:line (write f)"].  Empty when static analysis was
    not run. *)

val record_log : ?engine:engine -> compiled -> Event_log.t * result
(** Post-mortem mode, phase 1 (paper Section 1): execute the
    instrumented program recording the full event stream instead of
    detecting online — a [~detect:false] {!run} with a recording tap,
    so the result carries the run's steps, threads, prints and
    fingerprint, and no races.  [?engine] as in {!run}; with the
    detector off, [`Spec] runs exactly like [`Linked]. *)

val detect_post_mortem :
  Config.t -> Event_log.t -> Report.collector * Detector.stats
(** Post-mortem mode, phase 2: run the detection phase off-line over a
    recorded log.  Produces exactly the online reports for the same
    configuration. *)

val replay_module :
  (module Detector_intf.S) -> Event_log.t -> Event.loc_id list * int
(** Post-mortem replay of a recorded log through any detector module:
    [(racy locations, events seen)].  The generic sibling of
    {!detect_post_mortem}. *)
