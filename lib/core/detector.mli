(** The on-the-fly datarace detector: runtime optimizer (per-thread
    caches), ownership filter and trie-based detection assembled into the
    pipeline of the paper's Figure 1 (right half).

    The event source (the instrumented VM) feeds it access events plus
    outermost lock acquire/release and thread-exit notifications; races
    are pushed into a {!Report.collector}. *)

(** Storage strategy for the access histories. *)
type history_impl =
  | Per_location  (** One trie per memory location (paper Section 3.2). *)
  | Packed
      (** One shared trie for all locations — the packing scheme alluded
          to in Section 8.2; observationally identical, smaller. *)

type config = {
  use_cache : bool;
      (** Enable the per-thread access caches of Section 4.  Disabling
          reproduces the paper's "NoCache" configuration. *)
  cache_size : int;  (** Entries per direct-mapped cache (power of two). *)
  use_ownership : bool;
      (** Enable the ownership filter of Section 7.  Disabling reproduces
          the "NoOwnership" configuration of Table 3. *)
  history : history_impl;
}

val default_config : config
(** Caches of 256 entries and the ownership model enabled — the paper's
    "Full" runtime configuration. *)

type stats = {
  events_in : int;  (** Access events received from the program. *)
  cache_hits : int;  (** Dropped by the runtime optimizer. *)
  ownership_filtered : int;  (** Dropped because the location was owned. *)
  weaker_filtered : int;
      (** Events found redundant by the trie weakness check: their
          history update was skipped (the race check still ran; see the
          fidelity note on {!Trie.process}). *)
  race_checks : int;  (** Events that reached the trie. *)
  races_reported : int;  (** Distinct racy locations reported. *)
  locations_tracked : int;  (** Locations with an allocated trie. *)
  trie_nodes : int;  (** Total trie nodes over all locations. *)
}

type eviction
(** Quiescent-location eviction policy for long-lived (serve-mode)
    detectors: when the number of tracked memory locations exceeds a
    high watermark, the least-recently-accessed locations are retired —
    trie, ownership state and cache entries together — down to a low
    watermark, bounding the detector's memory under indefinite event
    streams.

    Recency is the event count of the location's last access (any
    access, including cache-filtered ones).  Eviction never changes the
    report for a location that is never evicted: every piece of
    detector state is keyed per location (tries, ownership) or only
    produces hits for the location it was inserted under (the
    direct-mapped caches match on the location tag, so removing one
    location's entries can only turn that location's would-be hits into
    misses).  A retired location that is accessed again re-enters the
    detector as brand new — races spanning the eviction horizon for
    that location are the accepted precision loss, exactly as if the
    daemon had been restarted for it. *)

val eviction : ?low:int -> ?track:bool -> high:int -> unit -> eviction
(** [eviction ~high ()] retires locations once more than [high] are
    tracked, keeping the [low] (default [high / 2]) most recently
    accessed.  Raises [Invalid_argument] unless [0 <= low < high].
    [track] (default false) records every retired location so
    {!was_evicted} can answer — a test aid; tracking grows with the
    number of retirements, which an indefinite stream does not bound. *)

type t

val create : ?config:config -> ?eviction:eviction -> Report.collector -> t
(** [?eviction] requires the [Per_location] history (the packed trie
    shares nodes across locations and cannot retire one location's
    state); raises [Invalid_argument] with [Packed]. *)

type outcome =
  | Cache_hit  (** Dropped by the per-thread cache. *)
  | Owned_skip  (** Dropped by the ownership filter. *)
  | Reached
      (** Survived both filters: the trie now holds (or already held) a
          node covering this (thread, locks, kind) at [loc].  Only this
          outcome certifies trie coverage — the specialized VM fast
          paths memoize exclusively on it, because a cache entry is
          inserted {e before} the ownership check (a later identical
          event could hit the cache without the trie ever having seen
          the first one) and an owned-skip event never enters the trie
          at all. *)

val on_access_outcome :
  t ->
  loc:Event.loc_id ->
  thread:Event.thread_id ->
  locks:Lockset_id.id ->
  kind:Event.kind ->
  site:Event.site_id ->
  outcome
(** Exactly {!on_access_interned}, additionally reporting where the
    event stopped in the cache → ownership → trie pipeline. *)

val on_access_interned :
  t ->
  loc:Event.loc_id ->
  thread:Event.thread_id ->
  locks:Lockset_id.id ->
  kind:Event.kind ->
  site:Event.site_id ->
  unit
(** The primary entry point: process one access event end-to-end —
    cache, ownership, weakness check, race check, history update — from
    five scalars.  No [Event.t] is allocated unless the event survives
    both the cache and the ownership filter (i.e. reaches trie
    storage), so cache-hit and ownership-filtered events are processed
    allocation-free.  The baseline detectors ({!Drd_baselines}) expose
    the same shape. *)

val on_access : t -> Event.t -> unit
(** Convenience wrapper: {!on_access_interned} on the fields of a
    pre-built event. *)

val on_acquire : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** Outermost acquisition of a real lock by [thread] (reentrant
    re-acquisitions must not be reported). *)

val on_release : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** Outermost release of a real lock; triggers cache eviction. *)

val on_thread_exit : t -> thread:Event.thread_id -> unit
(** Discard the thread's caches (reset in place; the storage is kept
    for reuse by a pooled detector). *)

val reset : t -> unit
(** Return the detector to its freshly-created state {e in place}:
    access histories, caches, ownership, eviction bookkeeping and stats
    counters are emptied while every grown table and array keeps its
    capacity, so a reused detector allocates (almost) nothing on the
    next execution and observes byte-identically to a fresh one.  The
    attached {!Report.collector} is shared with the caller and is {e
    not} reset here; pooled pipelines call {!Report.reset} alongside.
    The hash-consed {!Lockset_id} interner deliberately survives: it is
    domain-local and append-only, so retained entries are a warm cache,
    never a behavioural difference. *)

val evictions : t -> int
(** Locations retired by the eviction policy so far (0 without one). *)

val live_locations : t -> int
(** Locations currently tracked: with an eviction policy, every
    location with live state of any kind (bounded by the high
    watermark); without one, the locations with an allocated trie. *)

val was_evicted : t -> Event.loc_id -> bool
(** Whether the location was ever retired.  Requires an eviction policy
    created with [~track:true]; raises [Invalid_argument] on an
    untracked policy and returns [false] without a policy. *)

val stats : t -> stats

val pp_stats : stats Fmt.t
