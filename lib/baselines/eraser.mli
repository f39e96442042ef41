module Event = Drd_core.Event

(** The Eraser lockset algorithm (Savage, Burrows, Nelson, Sobalvarro,
    Anderson — TOCS 1997), the principal dynamic baseline of the paper's
    Sections 8.3 and 9.

    Eraser enforces a stricter discipline than the paper's detector: a
    single lock must be held consistently across {e all} accesses to a
    shared location.  Mutually-intersecting locksets with no common
    member (the mtrt join idiom) are therefore reported as races, and
    Eraser has no join modeling at all — feed it locksets without the
    join pseudo-locks. *)

type state =
  | Virgin  (** Never accessed. *)
  | Exclusive of Event.thread_id
      (** Only one thread has touched it (initialization is exempt). *)
  | Shared of Drd_core.Lockset_id.id
      (** Read by a second thread; the candidate set is refined but an
          empty set is not yet an error (read-shared data). *)
  | Shared_modified of Drd_core.Lockset_id.id
      (** Written while shared: an empty candidate set reports a race. *)

type race = {
  loc : Event.loc_id;
  access : Event.t;  (** The access that emptied the candidate set. *)
}

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
(** [false]: Eraser ignores virtual-call receiver events. *)

val on_call :
  t ->
  thread:Event.thread_id ->
  obj_loc:Event.loc_id ->
  locks:Drd_core.Lockset_id.id ->
  site:Event.site_id ->
  unit
(** No-op ({!Drd_core.Detector_intf.S} conformance). *)

val on_acquire : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** No-op: Eraser takes its ordering-free view of the program from the
    locksets carried by each access alone. *)

val on_release : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit
(** No-op. *)

val on_thread_start :
  t -> parent:Event.thread_id -> child:Event.thread_id -> unit
(** No-op: the absence of fork edges is Eraser's documented
    imprecision. *)

val on_thread_join :
  t -> joiner:Event.thread_id -> joinee:Event.thread_id -> unit
(** No-op: likewise for join edges. *)

val on_thread_exit : t -> thread:Event.thread_id -> unit
(** No-op. *)

val races : t -> race list
(** First report per location, in detection order. *)

val racy_locs : t -> Event.loc_id list

val race_count : t -> int

val events_seen : t -> int
