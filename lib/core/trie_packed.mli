(** A packed access-history trie: one trie for {e all} memory locations.

    The paper's Section 8.2 mentions "a scheme for packing information
    for multiple locations into one trie which we cannot present due to
    space limitations"; this module is a faithful realization of that
    idea.  Programs hold few distinct locksets but touch many locations,
    so per-location tries duplicate the same lock paths thousands of
    times.  Here the lockset paths are shared: each node carries a small
    per-location summary table for the locations accessed with exactly
    that lockset.

    The per-event protocol is observationally identical to
    {!Trie.process} on a per-location trie (property-tested); only the
    space changes — see {!node_count} and the [--space] bench. *)

type t

val create : unit -> t

val process : t -> Event.t -> Trie.prior option * bool
(** Same contract as {!Trie.process}: the race check always runs; the
    history update is skipped when a stored weaker access exists;
    returns the race found and whether the event was redundant. *)

val node_count : t -> int
(** Trie nodes allocated — shared across all locations. *)

val clear : t -> unit
(** Return the packed trie to its freshly-created state in place: the
    root's summary table keeps its bucket capacity, so a reused trie
    observes identically to a fresh one but without the rebuild cost. *)

val locations : t -> int
(** Distinct locations with at least one stored summary. *)
