(** The [racedet serve] daemon loop.

    Two transports over the same framing ({!Protocol}) and the same
    line reader:

    - {!serve_channels} — one connection on a channel pair, for
      [cat events.log | racedet serve] and for tests.  Sequential
      sessions; EOF closes the open session and emits its report.
    - {!serve_socket} — a Unix-domain socket accepting many concurrent
      connections, multiplexed with [select] on a single domain (the
      detector hot path is sequential per session anyway; one domain
      keeps every session's trie access unsynchronized).

    On both, a line longer than 1 MiB (1,048,576 bytes before its
    newline), complete or not, is an input error, so a peer cannot grow
    the daemon without bound; and at the end of a stream a final line
    without a newline is still handled as a line.

    Both tick the daemon {!Metrics} and print a periodic
    machine-readable stats line — a [{"t":"stats",...}] JSON object —
    to [stderr], never mixing it into the protocol stream. *)

type conf = {
  sv_config : Drd_harness.Config.t;
      (** Default detector configuration for sessions whose [hello]
          names none (and for implicit sessions). *)
  sv_eviction : Drd_core.Detector.eviction option;
      (** Quiescent-location eviction shared by every events session;
          [None] means unbounded (one-shot semantics). *)
  sv_stats_every : float;
      (** Seconds between periodic stats lines; [0.] disables them. *)
}

val serve_channels : conf -> in_channel -> out_channel -> (unit, string) result
(** Serve one connection reading frames from [ic], writing response
    frames to [oc].  Both are used through their file descriptors (one
    write per frame), so [ic] must not have been read from.  Returns
    [Error msg] on malformed input (protocol or payload, or an
    over-long line) — the CLI maps this to the data-error exit code —
    after answering with an [error] frame. *)

val serve_socket :
  conf -> path:string -> ?ready:(unit -> unit) -> unit -> (unit, string) result
(** Bind [path] (unlinking any stale socket first), call [ready] once
    listening (test/bench synchronization), and serve until a
    [shutdown] control frame arrives.  Connection-level input errors,
    an over-long line among them, answer with an [error] frame and drop
    that connection only.  [SIGPIPE] is ignored, so a peer that hangs
    up costs only its own connection.  [Error] is reserved for failures
    to establish the socket. *)
