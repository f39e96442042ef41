(** Hash tables keyed by OCaml ints.

    The detector's per-location tables (history tries, eviction clocks,
    ownership, report dedup), the lockset interner's memos and the
    hb-fingerprint clocks are all keyed by plain ints and probed once or
    more per event.  The polymorphic [Hashtbl] hashes every probe with a
    C call and compares keys structurally; this table hashes with one
    multiply and compares with [=], stores keys and values in two flat
    arrays (open addressing, linear probing, backward-shift deletion),
    and allocates nothing on a probe or an in-place update.

    Every int is a valid key.  Iteration order is unspecified: callers
    must not let it reach their output.  The table must not be modified
    during {!iter} or {!fold}. *)

type 'a t

val create : int -> 'a -> 'a t
(** [create n filler] is an empty table sized for about [n] bindings
    before its first resize.  [filler] occupies free value slots (it is
    never returned); pass a value that is cheap to keep alive. *)

val length : 'a t -> int

val clear : 'a t -> unit
(** Remove every binding, keeping the grown capacity. *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** Raises [Not_found]. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its previous binding if any. *)

val remove : 'a t -> int -> unit
(** No-op for an unbound key. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
