module Event = Drd_core.Event

(** Object race detection (von Praun & Gross — OOPSLA 2001), the
    baseline whose performance the paper matches and whose precision it
    improves on (Sections 8.3 and 9).

    Races are tracked per {e object} rather than per field — the caller
    must supply object-granularity location ids — and a virtual method
    invocation counts as a write to the receiver, which is what floods
    hedc with spurious reports in the paper's comparison.  The
    discipline itself is Eraser-style lockset refinement behind a
    first-owner phase. *)

type state =
  | Owned of Event.thread_id
  | Tracked of Drd_core.Lockset_id.id * bool
      (** Candidate lockset and whether a write has been seen. *)

type race = { loc : Event.loc_id; access : Event.t }

type t

val create : unit -> t

val reset : t -> unit
(** Return the detector to its freshly-created state in place (see
    {!Drd_core.Detector_intf.S}). *)

val on_access_interned :
  t ->
  loc:Event.loc_id ->
  thread:Event.thread_id ->
  locks:Drd_core.Lockset_id.id ->
  kind:Event.kind ->
  site:Event.site_id ->
  unit
(** The primary (hot-path) entry point, mirroring
    {!Drd_core.Detector.on_access_interned}: process one access as five
    scalars.  No [Event.t] is allocated unless the access reports a
    race. *)

val needs_call_events : bool
(** [true]: virtual-call receiver events are what distinguish the
    technique — the driver must route them to {!on_call}. *)

val on_call :
  t ->
  thread:Event.thread_id ->
  obj_loc:Event.loc_id ->
  locks:Drd_core.Lockset_id.id ->
  site:Event.site_id ->
  unit
(** A virtual method invocation on a receiver: treated as a write to the
    whole object. *)

val on_acquire : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** No-op ({!Drd_core.Detector_intf.S} conformance): the discipline is
    refined purely from the locksets carried by each access. *)

val on_release : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** No-op. *)

val on_thread_start :
  t -> parent:Event.thread_id -> child:Event.thread_id -> unit
(** No-op. *)

val on_thread_join :
  t -> joiner:Event.thread_id -> joinee:Event.thread_id -> unit
(** No-op. *)

val on_thread_exit : t -> thread:Event.thread_id -> unit
(** No-op. *)

val races : t -> race list

val racy_locs : t -> Event.loc_id list

val race_count : t -> int

val events_seen : t -> int
