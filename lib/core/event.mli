(** Access events and the weaker-than lattice (paper Sections 2.4 and 3.1).

    An access event is the 5-tuple [(m, t, L, a, s)]: memory location,
    thread, lockset, access kind and source site.  This module defines the
    event representation shared by the whole detector pipeline, together
    with the [IsRace] predicate and the weaker-than partial order that
    justifies discarding redundant events.

    The lockset component is an {e interned} {!Lockset_id.id}: the VM
    maintains each thread's current lockset id incrementally (recomputed
    only at lock acquire/release, never per access), so an event is five
    scalars and the lattice checks below — subset for weaker-than,
    disjointness for IsRace — are O(1) bitset tests or relation-table
    lookups instead of O(n log n) functional-set walks. *)

type thread_id = int
(** Identity of a program thread.  Thread ids are small non-negative
    integers assigned by the VM in creation order; id [0] is the main
    thread. *)

type lock_id = int
(** Identity of a lock.  Real locks are identified by the heap id of the
    monitor object; per-thread join pseudo-locks (Section 2.3) are
    hidden heap objects allocated by the VM, so they live in the same
    non-negative id space without colliding — see {!Pseudo_lock}. *)

type loc_id = int
(** Identity of a logical memory location: an (object, field) pair, a
    static field, or a whole array (the paper's footnote 1 merges all
    elements of an array into one location).  The mapping from concrete
    locations to ids is owned by the event source; see
    {!Names.register_loc}. *)

type site_id = int
(** Identity of a source location (statement) used only for race
    reporting, see {!Names.register_site}. *)

(** Access kind; the paper's [a] component. *)
type kind =
  | Read
  | Write

(** Thread lattice element stored in access-history trie nodes
    (Section 3.1/3.2).  [Bot] is the pseudothread [t_bot], "at least two
    distinct threads"; [Top] is [t_top], "no threads", used for internal
    trie nodes holding no access. *)
type thread_info =
  | Thread of thread_id
  | Bot
  | Top

module Lockset = Lockset
(** The reference set representation, for construction, rendering and
    tests.  Hot-path code works on {!Lockset_id.id} instead. *)

type t = {
  loc : loc_id;
  thread : thread_id;
  locks : Lockset_id.id;
  kind : kind;
  site : site_id;
}
(** An access event.  New events always carry a concrete thread; only
    stored history entries can degrade to {!Bot}. *)

val make :
  loc:loc_id ->
  thread:thread_id ->
  locks:Lockset.t ->
  kind:kind ->
  site:site_id ->
  t
(** Construct an event from a reference lockset, interning it.  Cold
    constructor for tests and boundaries; hot paths that already hold an
    interned id use {!make_interned}. *)

val make_interned :
  loc:loc_id ->
  thread:thread_id ->
  locks:Lockset_id.id ->
  kind:kind ->
  site:site_id ->
  t
(** Construct an event from an already-interned lockset id; allocates
    exactly the record. *)

val lockset : t -> Lockset.t
(** The event's lockset materialized as a reference set (O(1): the
    canonical hash-consed set). *)

val equal : t -> t -> bool
(** Componentwise equality (locksets compared by interned id, which by
    hash-consing coincides with set equality). *)

val is_race : t -> t -> bool
(** [is_race e1 e2] is the paper's [IsRace] predicate: same location,
    different threads, disjoint locksets, and at least one write. *)

val kind_leq : kind -> kind -> bool
(** [kind_leq a1 a2] is the access-kind order [a1 ⊑ a2]: [a1 = a2] or
    [a1 = Write].  A write is weaker than (covers) a read at the same
    location because it can race with strictly more future accesses. *)

val thread_leq : thread_info -> thread_info -> bool
(** [thread_leq t1 t2] is the thread order [t1 ⊑ t2]: [t1 = t2] or
    [t1 = Bot].  [Top] is weaker than nothing (it represents no access)
    and nothing but [Top] is weaker than it. *)

val kind_meet : kind -> kind -> kind
(** Meet in the access-kind lattice: equal kinds stay, differing kinds
    become [Write]. *)

val thread_meet : thread_info -> thread_info -> thread_info
(** Meet in the thread lattice: [Top] is the identity, differing concrete
    threads become [Bot]. *)

val weaker_than : t -> t -> bool
(** [weaker_than p q] is Definition 2: [p.m = q.m ∧ p.L ⊆ q.L ∧ p.t ⊑ q.t
    ∧ p.a ⊑ q.a], treating both events' threads as concrete.  When it
    holds, every future race with [q] is also a race with [p]
    (Theorem 1), so [q] carries no information for detection. *)

val pp_kind : kind Fmt.t

val pp_thread_info : thread_info Fmt.t

val pp : t Fmt.t
