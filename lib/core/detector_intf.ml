(** The common shape of every race detector in the repo.

    [S] is the contract the harness ({!Drd_harness.Pipeline}) programs
    against for the baselines, online and post-mortem: one constructor,
    one scalar access entry point, the synchronization hooks the VM can
    emit, and report extraction.  The baselines in [Drd_baselines]
    satisfy it directly; {!Detector.Standard} packages the paper
    detector this way for the registry, though runs drive the paper
    detector itself, through its specialized fast paths.

    Hooks a detector does not use are required to be no-ops rather than
    absent — the driver installs every callback unconditionally and the
    detector ignores what it does not model (Eraser, for instance,
    ignores thread start/join, which is exactly its documented
    imprecision).  The single opt-in is [needs_call_events]: virtual
    call receiver events are only worth routing to detectors that treat
    a method invocation as an access (the object-granularity
    baseline). *)

module type S = sig
  type t

  val id : string
  (** Registry name, e.g. ["paper"] or ["eraser"]. *)

  val describe : string
  (** One-line human description for [racedet list]. *)

  val needs_call_events : bool
  (** Whether {!on_call} does anything: when [false] the driver may
      skip routing virtual-call receiver events entirely. *)

  val create : unit -> t

  val on_access_interned :
    t ->
    loc:Event.loc_id ->
    thread:Event.thread_id ->
    locks:Lockset_id.id ->
    kind:Event.kind ->
    site:Event.site_id ->
    unit
  (** The primary entry point: one access event as five scalars. *)

  val on_call :
    t ->
    thread:Event.thread_id ->
    obj_loc:Event.loc_id ->
    locks:Lockset_id.id ->
    site:Event.site_id ->
    unit
  (** Virtual method invocation on a receiver object (a write to the
      whole object under object-granularity detection).  No-op unless
      [needs_call_events]. *)

  val on_acquire : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit

  val on_release : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit

  val on_thread_start :
    t -> parent:Event.thread_id -> child:Event.thread_id -> unit

  val on_thread_join :
    t -> joiner:Event.thread_id -> joinee:Event.thread_id -> unit

  val on_thread_exit : t -> thread:Event.thread_id -> unit

  val reset : t -> unit
  (** Return the detector to its freshly-created state in place,
      keeping grown table/array capacity.  A reset instance must be
      observationally indistinguishable from [create ()]: pooled
      pipelines replay a new execution into the same instance and
      require byte-identical reports. *)

  val racy_locs : t -> Event.loc_id list
  (** Distinct racy locations, first report per location, in detection
      order. *)

  val events_seen : t -> int
end
