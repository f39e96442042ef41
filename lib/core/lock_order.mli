(** Potential-deadlock detection from lock acquisition orders — the
    first item of the paper's future work (Section 10: "we plan to
    broaden the static/dynamic coanalysis approach to tackle other
    problems such as deadlock detection").

    The classic lock-order-graph ("Goodlock") construction: an edge
    [l1 → l2] is recorded whenever a thread acquires [l2] while holding
    [l1]; a cycle acquired by at least two distinct threads is a
    potential deadlock even if the observed run never blocked.  The
    {e gate lock} refinement suppresses cycles whose participating
    acquisitions all happened under a common enclosing lock, which
    serializes them. *)

type report = {
  dl_locks : Event.lock_id list;  (** The locks on the cycle. *)
  dl_threads : Event.thread_id list;  (** Threads contributing edges. *)
}

type t

val create : unit -> t

val reset : t -> unit
(** Drop all held-lock stacks and recorded edges in place, keeping
    table capacity. *)

val on_acquire : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** Outermost acquisition (same contract as {!Detector.on_acquire});
    held locksets are tracked internally. *)

val on_release : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit

val potential_deadlocks : t -> report list
(** Two-lock cycles [l1 → l2 → l1] acquired by distinct threads with no
    common gate lock, each reported once (with [dl_locks] sorted).
    Longer cycles are reported conservatively (without the gate-lock
    refinement). *)
