module Config = Drd_harness.Config
module Wire = Drd_explore.Wire

type conf = {
  sv_config : Config.t;
  sv_eviction : Drd_core.Detector.eviction option;
  sv_stats_every : float;
}

(* ---- one connection's protocol state, transport-agnostic ---- *)

type conn = {
  c_send : string -> unit;
  mutable c_session : Session.t option;
  c_pool : Session.pool;
      (* connection-lifetime detector state, reset per session *)
}

(* What one inbound line did to the connection. *)
type outcome =
  | Continue
  | Shutdown_req
  | Fatal of string  (** input error: error frame sent, drop the peer *)

(* The length of the line [s.[pos..pos+len)] without a trailing CR. *)
let chomp_cr s pos len =
  if len > 0 && s.[pos + len - 1] = '\r' then len - 1 else len

let absorb metrics s =
  Metrics.absorb_session metrics ~events:(Session.events s)
    ~races:(Session.races s) ~evictions:(Session.evictions s)

(* Abandon an open session without a report (error paths). *)
let abandon metrics conn =
  match conn.c_session with
  | None -> ()
  | Some s ->
      conn.c_session <- None;
      ignore (Session.close s : (string, string) result);
      absorb metrics s

(* Close the open session and send its report frame.  [Ok false] when
   there was nothing to close. *)
let close_session metrics conn =
  match conn.c_session with
  | None -> Ok false
  | Some s -> (
      conn.c_session <- None;
      let r = Session.close s in
      (* Obs races are only known after [close]. *)
      absorb metrics s;
      match r with
      | Ok body ->
          conn.c_send (Protocol.report_frame ~session:(Session.id s) ~body);
          Ok true
      | Error m ->
          Metrics.on_error metrics;
          conn.c_send (Protocol.error_frame ~msg:m);
          Error m)

let stats_json_now metrics ~live =
  let locs, races, evs = live () in
  Metrics.stats_json metrics ~now:(Unix.gettimeofday ()) ~live_locations:locs
    ~live_races:races ~live_evictions:evs

(* The periodic observability line: the stats snapshot tagged like a
   frame, but on stderr — never interleaved with the protocol stream. *)
let emit_stats_stderr metrics ~live =
  let j =
    match stats_json_now metrics ~live with
    | Wire.Obj fields -> Wire.Obj (("t", Wire.String "stats") :: fields)
    | j -> j
  in
  Printf.eprintf "%s\n%!" (Wire.json_to_string j)

let fatal metrics conn msg =
  Metrics.on_error metrics;
  conn.c_send (Protocol.error_frame ~msg);
  abandon metrics conn;
  Fatal msg

let handle_control conf metrics conn ~live = function
  | Protocol.Hello { c_session; c_kind; c_config } -> (
      match conn.c_session with
      | Some s ->
          fatal metrics conn
            (Printf.sprintf "session %S already open; close it first"
               (Session.id s))
      | None -> (
          let config =
            if c_config = "" then Some conf.sv_config
            else Config.by_name c_config
          in
          match config with
          | None ->
              fatal metrics conn
                (Printf.sprintf "unknown detector configuration %S" c_config)
          | Some config -> (
              match (c_kind, Session.events_config config) with
              | Protocol.Events, Error m -> fatal metrics conn m
              | _ ->
                  let id = if c_session = "" then "default" else c_session in
                  Metrics.on_session_open metrics;
                  conn.c_session <-
                    Some
                      (Session.create ~pool:conn.c_pool ~id ~kind:c_kind
                         ~config ~eviction:conf.sv_eviction ());
                  conn.c_send (Protocol.hello_frame ~session:id ~kind:c_kind);
                  Continue)))
  | Protocol.Stats_req ->
      conn.c_send (Protocol.stats_frame (stats_json_now metrics ~live));
      Continue
  | Protocol.Close -> (
      match close_session metrics conn with
      | Ok true -> Continue
      | Ok false -> fatal metrics conn "no open session to close"
      | Error m -> Fatal m)
  | Protocol.Shutdown -> Shutdown_req

(* The line is [s.[pos..pos+len)]; [s] is only read during the call. *)
let handle_line conf metrics conn ~live s pos len =
  Metrics.on_line metrics;
  match Protocol.classify_substring s pos len with
  | Error m -> fatal metrics conn m
  | Ok (Protocol.Control c) -> handle_control conf metrics conn ~live c
  | Ok Protocol.Payload -> (
      let sess =
        match conn.c_session with
        | Some sess -> sess
        | None ->
            (* Payload before any hello: implicitly open the default
               events session, so [cat events.log | racedet serve]
               needs no framing at all. *)
            Metrics.on_session_open metrics;
            let sess =
              Session.create ~pool:conn.c_pool ~id:"default"
                ~kind:Protocol.Events ~config:conf.sv_config
                ~eviction:conf.sv_eviction ()
            in
            conn.c_session <- Some sess;
            sess
      in
      let before = Session.events sess in
      match Session.feed_substring sess s pos len with
      | Ok frames ->
          Metrics.on_events metrics (Session.events sess - before);
          List.iter conn.c_send frames;
          Continue
      | Error m -> fatal metrics conn m)

let live_of_conn conn () =
  match conn.c_session with
  | None -> (0, 0, 0)
  | Some s -> (Session.live_locations s, Session.races s, Session.evictions s)

(* ---- stdin/stdout transport ---- *)

let serve_channels conf ic oc =
  let metrics = Metrics.create ~now:(Unix.gettimeofday ()) in
  let send frame =
    output_string oc frame;
    output_char oc '\n';
    flush oc
  in
  let conn = { c_send = send; c_session = None; c_pool = Session.pool () } in
  let live = live_of_conn conn in
  let next_stats =
    ref
      (if conf.sv_stats_every > 0. then
         Unix.gettimeofday () +. conf.sv_stats_every
       else infinity)
  in
  let since_check = ref 0 in
  let result = ref (Ok ()) in
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line ->
        (match
           handle_line conf metrics conn ~live line 0
             (chomp_cr line 0 (String.length line))
         with
        | Continue -> ()
        | Shutdown_req -> continue := false
        | Fatal m ->
            result := Error m;
            continue := false);
        incr since_check;
        (* The time check is a syscall; amortize it over the hot loop. *)
        if !since_check >= 4096 then begin
          since_check := 0;
          Metrics.sample_heap metrics;
          let now = Unix.gettimeofday () in
          if now >= !next_stats then begin
            emit_stats_stderr metrics ~live;
            next_stats := now +. conf.sv_stats_every
          end
        end
  done;
  (match !result with
  | Ok () -> (
      (* EOF closes the open session, exactly like a close frame. *)
      match close_session metrics conn with
      | Ok _ -> ()
      | Error m -> result := Error m)
  | Error _ -> ());
  if conf.sv_stats_every > 0. then emit_stats_stderr metrics ~live;
  !result

(* ---- Unix-socket transport ---- *)

(* Socket framing keeps one growable buffer per connection: bytes
   [sc_start, sc_fill) are read but not yet consumed, and [sc_start,
   sc_scan) is known to hold no newline, so each byte is scanned once
   however many reads a line straddles.  Lines are handed to the decoder
   where they lie; only a partial line is ever moved (to the front, to
   make room), and a line longer than [max_line_bytes] ends the
   connection, so a long line costs time linear in its length and a
   peer that never sends a newline cannot grow the daemon without
   bound. *)

let max_line_bytes = 1 lsl 20

let initial_buffer = 65536

(* Room a read should have before the buffer is compacted or grown. *)
let min_room = 4096

type sconn = {
  sc_fd : Unix.file_descr;
  mutable sc_buf : Bytes.t;
  mutable sc_start : int;  (** first byte of the pending line *)
  mutable sc_scan : int;  (** [sc_start, sc_scan) holds no newline *)
  mutable sc_fill : int;  (** end of the bytes read *)
  sc_alive : bool ref;  (** cleared when a write hits a gone peer *)
  sc_conn : conn;
}

let rec write_all fd s pos len =
  if len > 0 then
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)

let make_sconn fd =
  let alive = ref true in
  let send frame =
    if !alive then
      try
        let line = frame ^ "\n" in
        write_all fd line 0 (String.length line)
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        alive := false
  in
  {
    sc_fd = fd;
    sc_buf = Bytes.create initial_buffer;
    sc_start = 0;
    sc_scan = 0;
    sc_fill = 0;
    sc_alive = alive;
    sc_conn = { c_send = send; c_session = None; c_pool = Session.pool () };
  }

let rec index_newline b i e =
  if i >= e then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else index_newline b (i + 1) e

(* Make room for the next read: drop the consumed bytes, and grow only
   when the pending line itself fills the buffer. *)
let make_room sc =
  let cap = Bytes.length sc.sc_buf in
  if sc.sc_start = sc.sc_fill && cap > initial_buffer then begin
    (* Everything consumed after a long line: give the space back. *)
    sc.sc_buf <- Bytes.create initial_buffer;
    sc.sc_start <- 0;
    sc.sc_scan <- 0;
    sc.sc_fill <- 0
  end
  else if cap - sc.sc_fill < min_room then begin
    let pending = sc.sc_fill - sc.sc_start in
    let buf =
      if cap - pending < min_room then Bytes.create (2 * cap) else sc.sc_buf
    in
    Bytes.blit sc.sc_buf sc.sc_start buf 0 pending;
    sc.sc_buf <- buf;
    sc.sc_scan <- sc.sc_scan - sc.sc_start;
    sc.sc_start <- 0;
    sc.sc_fill <- pending
  end

let serve_socket conf ~path ?ready () =
  match
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind srv (Unix.ADDR_UNIX path);
    Unix.listen srv 64;
    srv
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))
  | srv ->
      (* A peer that hangs up must cost its own connection only: writes
         to it then fail with EPIPE, which [send] absorbs, instead of
         killing the daemon. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (match ready with Some f -> f () | None -> ());
      let metrics = Metrics.create ~now:(Unix.gettimeofday ()) in
      let conns : (Unix.file_descr, sconn) Hashtbl.t = Hashtbl.create 16 in
      let live () =
        Hashtbl.fold
          (fun _ sc (l, r, e) ->
            match sc.sc_conn.c_session with
            | None -> (l, r, e)
            | Some s ->
                ( l + Session.live_locations s,
                  r + Session.races s,
                  e + Session.evictions s ))
          conns (0, 0, 0)
      in
      let running = ref true in
      let finish_conn sc ~report =
        if Hashtbl.mem conns sc.sc_fd then begin
          Hashtbl.remove conns sc.sc_fd;
          if report then
            (* EOF ≡ close: emit the report; the send silently no-ops
               if the peer is fully gone. *)
            ignore (close_session metrics sc.sc_conn : (bool, string) result)
          else abandon metrics sc.sc_conn;
          try Unix.close sc.sc_fd with Unix.Unix_error _ -> ()
        end
      in
      let too_long sc =
        ignore
          (fatal metrics sc.sc_conn
             (Printf.sprintf "line longer than %d bytes" max_line_bytes)
            : outcome);
        finish_conn sc ~report:false
      in
      (* Hand every complete line to the protocol, in place. *)
      let process_buffer sc =
        let s = Bytes.unsafe_to_string sc.sc_buf in
        let stop = ref false in
        while not !stop do
          let nl = index_newline sc.sc_buf sc.sc_scan sc.sc_fill in
          let pos = sc.sc_start in
          if (if nl < 0 then sc.sc_fill else nl) - pos > max_line_bytes then begin
            too_long sc;
            stop := true
          end
          else if nl < 0 then begin
            sc.sc_scan <- sc.sc_fill;
            stop := true
          end
          else begin
            sc.sc_start <- nl + 1;
            sc.sc_scan <- nl + 1;
            match
              handle_line conf metrics sc.sc_conn ~live s pos
                (chomp_cr s pos (nl - pos))
            with
            | Continue -> ()
            | Shutdown_req ->
                running := false;
                stop := true
            | Fatal _ ->
                finish_conn sc ~report:false;
                stop := true
          end
        done
      in
      let read_conn sc =
        make_room sc;
        match
          Unix.read sc.sc_fd sc.sc_buf sc.sc_fill
            (Bytes.length sc.sc_buf - sc.sc_fill)
        with
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            finish_conn sc ~report:false
        | 0 -> finish_conn sc ~report:true
        | n ->
            sc.sc_fill <- sc.sc_fill + n;
            process_buffer sc
      in
      let next_stats =
        ref
          (if conf.sv_stats_every > 0. then
             Unix.gettimeofday () +. conf.sv_stats_every
           else infinity)
      in
      while !running do
        let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
        let timeout =
          if conf.sv_stats_every > 0. then
            Float.max 0.05 (!next_stats -. Unix.gettimeofday ())
          else -1.
        in
        let readable, _, _ =
          try Unix.select fds [] [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            if fd == srv then (
              match Unix.accept srv with
              | exception Unix.Unix_error _ -> ()
              | cfd, _ -> Hashtbl.replace conns cfd (make_sconn cfd))
            else
              match Hashtbl.find_opt conns fd with
              | None -> () (* dropped earlier in this round *)
              | Some sc -> read_conn sc)
          readable;
        Metrics.sample_heap metrics;
        if conf.sv_stats_every > 0. then begin
          let now = Unix.gettimeofday () in
          if now >= !next_stats then begin
            emit_stats_stderr metrics ~live;
            next_stats := now +. conf.sv_stats_every
          end
        end
      done;
      (* Shutdown: finish every connection as if its stream ended. *)
      let all = Hashtbl.fold (fun _ sc acc -> sc :: acc) conns [] in
      List.iter (fun sc -> finish_conn sc ~report:true) all;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      if conf.sv_stats_every > 0. then emit_stats_stderr metrics ~live;
      Ok ()
