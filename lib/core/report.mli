(** Race reports (paper Sections 2.5 and 2.6).

    The detector guarantees that for every memory location involved in a
    datarace, at least one participating access is reported
    (Definition 1).  A report carries the racing access itself — the race
    is announced at the moment it occurs, so a debugger could suspend the
    program — plus the lockset (and, when known, the thread and site) of
    an earlier conflicting access. *)

type race = {
  loc : Event.loc_id;  (** The racy memory location. *)
  current : Event.t;  (** The access being performed when the race was found. *)
  prior : Trie.prior;  (** An earlier access it races with. *)
}

val pp_race : Names.t -> race Fmt.t

type collector
(** Accumulates races, deduplicating per memory location as the paper's
    tool does when counting reported objects. *)

val collector : unit -> collector

val reset : collector -> unit
(** Drop every recorded race in place; equivalent to a fresh
    {!collector} but keeps the dedup table's bucket capacity. *)

val add : collector -> race -> unit

val races : collector -> race list
(** All recorded reports in order of detection (first report per
    location only). *)

val races_from : collector -> int -> race list
(** [races_from c i] is the suffix of {!races} after its first [i]
    elements, in time proportional to its length: a streaming consumer
    that has seen [i] races takes the new ones without walking the
    rest. *)

val count : collector -> int
(** Number of distinct racy locations reported. *)

val racy_locs : collector -> Event.loc_id list

val pp : Names.t -> collector Fmt.t
