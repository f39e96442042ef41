(** The MiniJava virtual machine: a deterministic, seeded, preemptive
    interpreter with user-level threads, reentrant monitors, and
    access-event emission at [Trace] pseudo-instructions.  It executes
    the flat {!Link.image} the link phase produces — dense method ids,
    vtable dispatch, integer pcs, array-backed run-time tables — so the
    hot loop touches no string keys and allocates only frames.  Every
    value lives in a plain-int slot, unchecked at run time: the link
    phase has checked every operand's type.

    The scheduler interleaves threads at instruction granularity with
    randomized (but seed-deterministic) slice lengths, so a given seed
    always produces the same event stream — race reports are
    reproducible, and tests can sweep seeds.  Schedules, RNG draws and
    event streams are bit-identical to the frozen pre-link interpreter
    ({!Interp_ref}); the golden suite enforces this. *)

module Ir = Drd_ir.Ir
module Link = Drd_ir.Link

exception Runtime_error of string
(** Fatal execution error: null dereference, array bounds violation,
    division by zero, missing return, double thread start, illegal
    monitor state (wait/notify without owning the monitor), deadlock
    (including every remaining thread stuck in [wait()]), step-limit
    exhaustion, an allocation past the heap budget ({!Heap.max_slots}),
    a call nested deeper than {!max_call_depth}, or an unknown thread id
    reaching the scheduler. *)

val max_call_depth : int
(** Frames one thread may hold; the call that would push one more fails
    with ["StackOverflowError in M"], [M] the called method. *)

(** Pluggable scheduling policy.  Both policies draw every decision from
    the seeded RNG, so a (seed, policy) pair names one schedule exactly
    and any run is reproducible from its config. *)
type policy =
  | Random_walk
      (** The historical scheduler: a uniformly random ready thread runs
          a slice of 1..[quantum] instructions. *)
  | Pct of { depth : int; horizon : int }
      (** PCT-style priority scheduling (Burckhardt et al., ASPLOS
          2010): threads get random priorities; the highest-priority
          ready thread always runs; at [depth] random step counts drawn
          from [1..horizon] the running thread's priority drops below
          every initial priority.  Finds bugs of "depth" d with
          probability ≥ 1/(n·k^(d-1)) per run instead of relying on
          uniform noise. *)

type config = {
  seed : int;  (** Scheduler seed. *)
  quantum : int;  (** Maximum instructions per scheduling slice. *)
  max_steps : int;  (** Fail-safe bound on total instructions executed. *)
  all_accesses : bool;
      (** Emit events at every raw memory access in addition to [Trace]
          instructions (used by tests; baselines normally run on fully
          instrumented code instead). *)
  granularity : Memloc.granularity;
      (** Location granularity for event locations (Table 3's
          "FieldsMerged" uses [Per_object]). *)
  pseudo_locks : bool;
      (** Model thread join with per-thread dummy locks (Section 2.3).
          Disabled when driving baselines like Eraser that have no join
          handling. *)
  policy : policy;  (** Thread-choice discipline; see {!policy}. *)
}

val default_config : config
(** seed 42, quantum 20, 200M steps, trace-only events, per-field
    granularity, [Random_walk] scheduling. *)

type result = {
  r_prints : (string * Value.t option) list;
      (** Output of [print] statements, in execution order. *)
  r_steps : int;  (** Total instructions executed. *)
  r_max_threads : int;  (** Number of threads ever created (incl. main). *)
  r_heap : Heap.t;  (** Final heap, for decoding location names. *)
}

val run : ?config:config -> sink:Sink.t -> Link.image -> result
(** Execute a linked image from its [main] method until every thread
    terminates.  Raises {!Runtime_error} on fatal errors.  Equivalent
    to [run_ctx ?config ~sink (create_ctx image)]. *)

type ctx
(** A resettable run context: the heap, thread table, monitor table,
    side tables and PCT priority array one execution needs, allocated
    once and reused across runs.  Contexts are single-domain — use one
    per worker. *)

val create_ctx : Link.image -> ctx

val run_ctx : ?config:config -> sink:Sink.t -> ctx -> result
(** Like {!run}, but executes inside the given context, resetting it at
    the {e start} of the run.  A run on a reused context is
    byte-identical (schedule, RNG draws, heap/lock/location ids, event
    stream, errors) to one on a fresh context — only the allocation
    behaviour differs.  The returned [r_heap] aliases the context's
    heap: it stays readable until the next [run_ctx] on the same
    context begins.  If the run raises {!Runtime_error}, the context
    remains valid and fully resets on its next use — an aborted run
    leaks no state into the next one. *)
