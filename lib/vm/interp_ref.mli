(** The pre-link block interpreter, frozen when {!Interp} was rewritten
    against the linked image.  It executes an {!Ir.program} directly —
    string-keyed method lookup, [Tast.dispatch] hierarchy walks, block
    instruction lists — exactly as the VM did before the link phase
    existed.

    Kept for two consumers: the golden byte-identity suite (every
    report, event log and hb fingerprint of {!Interp} must match this
    engine exactly) and CI's engine diff, which compares
    [racedet run --engine ref] with the other engines end to end.  Do
    not modify its semantics.

    Shares {!Interp}'s config/policy/result types and raises
    {!Interp.Runtime_error}, so harness code drives either engine
    through one interface. *)

module Ir = Drd_ir.Ir

type policy = Interp.policy =
  | Random_walk
  | Pct of { depth : int; horizon : int }

type config = Interp.config = {
  seed : int;
  quantum : int;
  max_steps : int;
  all_accesses : bool;
  granularity : Memloc.granularity;
  pseudo_locks : bool;
  policy : policy;
}

val default_config : config

type result = Interp.result = {
  r_prints : (string * Value.t option) list;
  r_steps : int;
  r_max_threads : int;
  r_heap : Heap.t;
}

val run : ?config:config -> sink:Sink.t -> Ir.program -> result
(** Execute a program from its [main] method until every thread
    terminates.  Raises {!Interp.Runtime_error} on fatal errors. *)
