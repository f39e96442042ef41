(** Daemon-wide observability counters for [racedet serve].

    One {!t} lives for the whole daemon.  Cheap mutable counters are
    bumped on the ingest path; {!stats_json} renders a machine-readable
    snapshot — the periodic stats line and the reply to a [stats]
    control request — including instantaneous (since the previous
    snapshot) and cumulative events/s.

    Totals for evictions, races and live locations are split between
    what closed sessions contributed (absorbed via {!absorb_session})
    and what the currently open sessions hold; the server passes the
    live part to {!stats_json} at snapshot time. *)

type t

val create : now:float -> t

val on_line : t -> unit
(** One payload or control line ingested. *)

val on_events : t -> int -> unit
(** [n] access/sync events fed to a session's detector. *)

val on_session_open : t -> unit

val on_error : t -> unit
(** One protocol or payload error was answered with an error frame. *)

val absorb_session :
  t -> events:int -> races:int -> evictions:int -> unit
(** Fold a closing session's totals into the daemon-lifetime counters
    (and count the close).  [events] is only sanity-checked against the
    running event counter, which already saw them via {!on_events}. *)

val live_sessions : t -> int

val sample_heap : t -> unit
(** Record the current major-heap size; {!stats_json} reports the
    running maximum, the number the soak test watches for flatness. *)

val stats_json :
  t ->
  now:float ->
  live_locations:int ->
  live_races:int ->
  live_evictions:int ->
  Drd_explore.Wire.json
(** Snapshot and reset the instantaneous window.  The [live_*] values
    are the sums over currently open sessions; they are added to the
    closed-session totals. *)
