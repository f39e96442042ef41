(** QCheck generation of well-typed concurrent MiniJava programs with
    seeded races and known-safe twins.

    A generated program composes 1–4 independent {e units}, each an
    instance of one synchronization {!idiom} over its own slice of the
    shared statics (named by the unit's stable [u_id], so shrinking
    never renames the cells a reproducer mentions).  Every unit carries
    ground truth: the {!cell}s it touches, each labelled racy or safe,
    and racy cells labelled {e guaranteed} (reported by every detector
    in every schedule — the cells the CI gate may fail on) or merely
    {e feasible} (schedule-dependent; counted toward recall only). *)

type rw = Ww  (** both sides write *) | Rw  (** one side reads into a sink *)

type idiom =
  | Sync_counter  (** safe: shared counter under a common lock *)
  | Rendezvous_race of rw
      (** racy (guaranteed): unsynchronized accesses on both sides of a
          symmetric wait/notify rendezvous *)
  | Join_handoff
      (** safe: main writes, thread writes unlocked, main reads after
          join — the fork/join idiom Eraser and objrace false-report *)
  | Start_chain
      (** safe: T1 writes then starts T2, which writes then starts T3 —
          ordered by start edges; every lockset technique (the paper
          detector included) false-reports *)
  | Ping_pong
      (** safe: monitor-ordered write alternation; lockset techniques
          false-report, vector clocks stay quiet *)
  | Oneshot_handoff
      (** safe: single producer→consumer handoff; only Eraser
          false-reports *)
  | Mixed_object
      (** safe: one immutable field read unlocked beside one
          lock-protected field; objrace's object granularity merges
          them and false-reports *)
  | Worker_pool of bool
      (** safe queue drain through synchronized virtual calls (objrace
          false-reports the queue object); [true] adds a guaranteed
          rendezvous race after the drain *)
  | Hidden_race
      (** racy (feasible): the paper Section 2.2 shape — unlocked
          writes hidden behind an accidental lock-order edge.  Eraser
          and objrace always report; paper and vclock only in some
          schedules. *)

type unit_spec = {
  u_id : int;  (** stable cell-naming key, preserved by shrinking *)
  u_idiom : idiom;
  u_iters : int;  (** loop trip count, [>= min_iters u_idiom] *)
}

type spec = { sp_index : int; sp_units : unit_spec list }

val min_iters : idiom -> int
val make_unit : id:int -> idiom:idiom -> iters:int -> unit_spec

val idiom_name : idiom -> string
val all_idioms : idiom list
val pp_unit : Format.formatter -> unit_spec -> unit
val pp_spec : Format.formatter -> spec -> unit

(** {1 Ground truth} *)

type cell = {
  c_marker : string;
      (** What the cell looks like in a detector report: an exact
          static-field name (["G.d0r"]) or an object-identity prefix
          (["Mix0#"]). *)
  c_prefix : bool;
  c_racy : bool;
  c_guaranteed : bool;
      (** Racy cells only: reported by every detector in every
          schedule, so silence is unambiguously a miss. *)
}

val cell_matches : cell -> string -> bool
(** Does a decoded report location denote this cell? *)

val truth : spec -> cell list
(** Every ground-truth cell of the program, in unit order. *)

(** {1 Emission and generation} *)

val emit : spec -> string
(** The MiniJava source text for a spec — always well-typed and
    terminating (the only loops are bounded [for]s and monitor waits
    that a peer's notify releases). *)

val spec_gen : ?max_units:int -> index:int -> unit -> spec QCheck.Gen.t

val generate : ?seed:int -> count:int -> ?max_units:int -> unit -> spec list
(** [generate ~seed ~count ()] — the deterministic corpus named by
    [(seed, count, max_units)]: one [Random.State] seeded from [seed]
    drives every program in order. *)
