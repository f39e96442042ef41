(** Interned (hash-consed) locksets.

    Every distinct lockset is mapped to a small integer {!id}; two
    locksets are equal iff their ids are equal.  The lattice relations
    the detector evaluates on its hot path — subset (the weaker-than
    check) and disjointness (the IsRace check) — are answered in O(1):
    by an exact bitset test when all locks involved are {e dense} (see
    below), and by a lazily-filled relation table keyed by id pairs
    otherwise.  Derived sets ([add]/[remove]/[inter]/[union]) are
    memoized the same way, so a VM that maintains each thread's current
    lockset id incrementally allocates nothing after warm-up.

    {b Density.}  Lock identities are heap object ids and therefore
    sparse; each distinct lock is assigned the next {e dense index} in
    first-seen order.  While fewer than 62 distinct locks have been
    seen, every lockset is represented exactly by an immediate-int
    bitmask and the relation table is never consulted.  Programs with
    more locks degrade gracefully: sets containing only early-seen locks
    keep their masks, others fall back to the memo tables backed by a
    sorted-array merge.

    {b Domain-locality.}  The interning universe lives in domain-local
    storage: ids must not cross OCaml domains.  Materialize with
    {!set_of} (or render) before shipping data to another domain. *)

type id = int
(** Interned lockset identity.  Only meaningful inside the domain that
    created it. *)

val empty : id
(** The empty lockset; id [0] in every universe. *)

val intern : Lockset.t -> id

val of_list : int list -> id

(** {2 Lock sequences}

    A log decoder reads an access's locks one at a time, in written
    order.  These functions memoize each such sequence (per domain,
    like the universe) to the id {!of_list} gave it, so a decoder that
    meets a known sequence again interns it with one int-keyed probe
    per lock, building no set and no list.  A sequence becomes known
    when {!of_seq_list} interns it.  Sequences holding a lock outside
    [\[0, 2^31)] are never memoized (the memo key packs a lock into 31
    bits) and always take {!of_seq_list}. *)

type seq = private int

type seq_memo
(** This domain's memo, fetched once per decoded line. *)

val seq_memo : unit -> seq_memo

val seq_empty : seq
(** The sequence of no locks; known from the start. *)

val seq_add : seq_memo -> seq -> int -> seq
(** The sequence extended by one lock, or a negative value when that
    extension is not memoized.  Negative sequences are absorbing. *)

val seq_id : seq -> id
(** The id of a known sequence, read without a lookup; [-1] for a
    negative sequence or for one that is only a prefix of known
    sequences. *)

val of_seq_list : int list -> id
(** {!of_list}, also memoizing the list as a known sequence. *)

val set_of : id -> Lockset.t
(** The canonical {!Lockset.t} the id denotes; O(1), returns the shared
    hash-consed set. *)

val to_sorted_list : id -> int list

val sorted_array : id -> int array
(** The locks in strictly increasing order.  O(1); the returned array is
    the interning table's own storage — callers must not mutate it. *)

val mem : int -> id -> bool
(** Allocation-free membership: bitmask test when the set is dense,
    binary search otherwise. *)

val subset : id -> id -> bool

val disjoint : id -> id -> bool

val add : int -> id -> id

val remove : int -> id -> id

val singleton : int -> id

val inter : id -> id -> id

val union : id -> id -> id

val equal : id -> id -> bool

val compare : id -> id -> int

val is_empty : id -> bool

val cardinal : id -> int

val fold : (int -> 'a -> 'a) -> id -> 'a -> 'a

val uses_mask : id -> bool
(** Whether the id is represented by the dense bitmask fast path (for
    tests probing the density boundary). *)

val interned_count : unit -> int
(** Number of distinct locksets interned in this domain's universe. *)

val pp : id Fmt.t
