(** Happens-before interleaving fingerprints for partial-order reduction.

    A {!Drd_vm.Sink.t} tap that maintains per-thread vector clocks over
    the synchronization edges of a run (lock release→acquire, thread
    start/join) and folds every access event into an order-insensitive
    commutative hash of its [(loc, kind, tid, clock-snapshot)].  Two
    runs receive equal fingerprints iff they induce the same
    happens-before order on dependent events, so a campaign in
    [--equiv hb] mode can skip detector replay for a schedule whose
    fingerprint was already seen: equivalent schedules present the
    detector with identical per-location access orders and locksets and
    therefore produce identical race reports.

    The dependence relation is deliberately conservative — all accesses
    to the same location are ordered (reads included, matching the
    ownership filter's first-accessor semantics), and every lock
    hand-off counts as an edge even when no conflicting access crosses
    it — so pruning is always sound, at the cost of sometimes splitting
    an ideal Mazurkiewicz trace into several classes. *)

(** {1 Shared FNV-1a constants}

    Re-exported from {!Drd_vm.Sink}, where they are defined once for
    this tap and for the raw order-sensitive fingerprint that
    [Pipeline.run] computes (reference definition:
    {!Explore.fingerprint_tap}).  [mask] truncates to 46 bits so
    fingerprints survive the shard wire as exact JSON integers: well
    under the 2^53 limit of the IEEE doubles that off-the-shelf JSON
    consumers parse numbers into, with headroom for the commutative sum
    fold. *)

val fnv_offset : int
val fnv_prime : int
val mask : int

val mix : int -> int -> int
(** [mix fp v] is one FNV-1a step of [v] into [fp], truncated to
    {!mask}. *)

val tap : unit -> Drd_vm.Sink.t * (unit -> int)
(** [tap ()] is a fresh happens-before fingerprint tap and a function
    returning the fingerprint folded so far.  Feed it a whole run
    (typically as [Pipeline.run]'s [?tap], which folds the raw
    fingerprint itself) and read the fingerprint at the end. *)
