(** Post-mortem detection support (paper Section 1: "our approach could
    be easily modified to perform post-mortem datarace detection by
    creating a log of access events during program execution and
    performing the final datarace detection phase off-line").

    A log records the full interleaved stream the detector would have
    consumed online — access events plus the outermost lock transitions
    and thread lifecycle the runtime optimizer needs — and can be
    replayed into any detector later, or serialized to a file for
    off-host analysis. *)

type entry =
  | Access of Event.t
  | Acquire of Event.thread_id * Event.lock_id
  | Release of Event.thread_id * Event.lock_id
  | Thread_start of Event.thread_id * Event.thread_id  (** parent, child *)
  | Thread_join of Event.thread_id * Event.thread_id  (** joiner, joinee *)
  | Thread_exit of Event.thread_id

type t

val create : unit -> t

val record : t -> entry -> unit

val length : t -> int

val entries : t -> entry list
(** In recording order.  Allocates a fresh list; use {!iter} where a
    traversal suffices. *)

val iter : (entry -> unit) -> t -> unit
(** Iterate in recording order without materializing a list. *)

val replay : t -> Detector.t -> unit
(** Feed the log through a detector, reproducing exactly the online
    behaviour (modulo the detector's own configuration). *)

val to_channel : out_channel -> t -> unit
(** Serialize in a line-oriented text format. *)

val entry_to_line : entry -> string
(** One entry in the serialized text format, without the newline. *)

val entry_of_line : string -> (entry option, string) result
(** Parse one line of the text format: [Ok None] for a blank line,
    [Ok (Some e)] for an entry, [Error msg] (naming the offending field
    and quoting the line) for malformed input.  This is the streaming
    entry point — the serve daemon decodes each line as it arrives
    without buffering the stream; {!of_channel} is a fold over it. *)

val entry_of_substring : string -> int -> int -> (entry option, string) result
(** [entry_of_substring s pos len] is [entry_of_line (String.sub s pos
    len)] without the copy: the daemon decodes lines where they lie in
    its connection buffer.  The line is only read during the call. *)

val of_channel : in_channel -> t
(** Parse a log serialized by {!to_channel}.  Raises [Failure] on
    malformed input, with a message naming the 1-based line number,
    the offending field and the line itself. *)

val equal_entry : entry -> entry -> bool
(** Structural equality with set semantics for locksets. *)

val pp_entry : entry Fmt.t
