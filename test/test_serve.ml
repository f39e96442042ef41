(* The serve daemon: protocol framing, session semantics (byte-identity
   with the one-shot replay, incremental race frames, streaming obs
   merge), the stdin transport, and the Unix-socket transport from a
   smoke test up to a concurrent soak with eviction. *)

module H = Drd_harness
module E = Drd_explore
module S = Drd_serve
module W = Drd_explore.Wire
open Drd_core

let contains = Astring_contains.contains

(* ---- protocol framing ---- *)

let test_classify () =
  let payload l =
    match S.Protocol.classify_line l with
    | Ok S.Protocol.Payload -> ()
    | Ok (S.Protocol.Control _) -> Alcotest.fail (l ^ ": classified control")
    | Error m -> Alcotest.fail (l ^ ": " ^ m)
  in
  (* Event-log lines and blank lines are payload without JSON parsing. *)
  payload "A 1 2 W 3 4";
  payload "L 1 5";
  payload "";
  (* Observation wire lines are JSON payload. *)
  payload "{\"v\":2,\"t\":\"run\",\"index\":0}";
  payload "{\"v\":2,\"t\":\"spec\"}";
  payload "{\"v\":2,\"t\":\"failure\"}";
  (* Control frames round-trip through their encoder. *)
  List.iter
    (fun c ->
      match S.Protocol.classify_line (S.Protocol.control_to_line c) with
      | Ok (S.Protocol.Control c') when c = c' -> ()
      | Ok (S.Protocol.Control _) -> Alcotest.fail "control decoded differently"
      | Ok S.Protocol.Payload -> Alcotest.fail "control classified as payload"
      | Error m -> Alcotest.fail m)
    [
      S.Protocol.Hello
        { c_session = "s1"; c_kind = S.Protocol.Events; c_config = "Full" };
      S.Protocol.Hello
        { c_session = ""; c_kind = S.Protocol.Obs; c_config = "" };
      S.Protocol.Stats_req;
      S.Protocol.Close;
      S.Protocol.Shutdown;
    ];
  let err l =
    match S.Protocol.classify_line l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (l ^ ": should be rejected")
  in
  err "{not json";
  err "{\"v\":1,\"t\":\"frobnicate\"}";
  err "{\"v\":99,\"t\":\"hello\"}";
  (* future protocol version *)
  err "{\"t\":\"hello\"}" (* control without a version *)

(* ---- events sessions ---- *)

let feed_ok s line =
  match S.Session.feed_line s line with
  | Ok frames -> frames
  | Error m -> Alcotest.fail ("feed: " ^ m)

let log_lines log =
  let acc = ref [] in
  Event_log.iter (fun e -> acc := Event_log.entry_to_line e :: !acc) log;
  List.rev !acc

let test_session_byte_identity () =
  let compiled =
    H.Pipeline.compile H.Config.full ~source:(H.Programs.figure2 ())
  in
  let log, _ = H.Pipeline.record_log compiled in
  let coll, stats = H.Pipeline.detect_post_mortem H.Config.full log in
  let expected =
    S.Protocol.events_report_body ~races:(Report.races coll) ~stats
      ~evictions:0
  in
  let run ~eviction =
    let s =
      S.Session.create ~id:"t" ~kind:S.Protocol.Events ~config:H.Config.full
        ~eviction ()
    in
    List.iter (fun l -> ignore (feed_ok s l)) (log_lines log);
    match S.Session.close s with
    | Ok body -> body
    | Error m -> Alcotest.fail ("close: " ^ m)
  in
  Alcotest.(check string) "no eviction: identical to one-shot" expected
    (run ~eviction:None);
  (* An eviction policy whose watermark is never reached must not
     perturb a single byte either. *)
  Alcotest.(check string) "idle eviction policy: still identical" expected
    (run ~eviction:(Some (Detector.eviction ~high:100_000 ())))

let test_incremental_race_frames () =
  let s =
    S.Session.create ~id:"inc" ~kind:S.Protocol.Events ~config:H.Config.full
      ~eviction:None ()
  in
  Alcotest.(check (list string)) "owned write: quiet" [] (feed_ok s "A 1 1 W 5");
  Alcotest.(check (list string)) "sharing read: quiet" [] (feed_ok s "A 1 2 R 6");
  (match feed_ok s "A 1 1 W 5" with
  | [ frame ] ->
      Alcotest.(check bool) "race frame" true (contains frame "\"t\":\"race\"");
      Alcotest.(check bool) "session id" true (contains frame "\"session\":\"inc\"");
      Alcotest.(check bool) "seq 0" true (contains frame "\"seq\":0")
  | frames ->
      Alcotest.failf "expected exactly one race frame, got %d"
        (List.length frames));
  (* The same location racing again is deduped, like the collector. *)
  Alcotest.(check (list string)) "dedup per location" []
    (feed_ok s "A 1 2 W 6");
  Alcotest.(check int) "one distinct race" 1 (S.Session.races s);
  Alcotest.(check int) "events counted" 4 (S.Session.events s)

(* Race frames are built from the new races only: a session where every
   location races must not re-walk the whole race list per line.  At
   20k racy locations the quadratic version allocated ~10k minor words
   per line. *)
let test_race_frames_linear () =
  let s =
    S.Session.create ~id:"many" ~kind:S.Protocol.Events ~config:H.Config.full
      ~eviction:None ()
  in
  let n = 20_000 in
  (* Owned write, sharing write, then a racing write per location. *)
  let lines =
    Array.init (3 * n) (fun i ->
        Printf.sprintf "A %d %d W 0" (i / 3) (if i mod 3 = 1 then 2 else 1))
  in
  let frames = ref 0 in
  let w0 = Gc.minor_words () in
  Array.iter (fun l -> frames := !frames + List.length (feed_ok s l)) lines;
  let per_line = (Gc.minor_words () -. w0) /. float_of_int (3 * n) in
  Alcotest.(check int) "one race frame per location" n !frames;
  Alcotest.(check int) "every location racy" n (S.Session.races s);
  if per_line > 1000. then
    Alcotest.failf "%.0f minor words per line (bound 1000)" per_line

let test_session_feed_errors () =
  let s =
    S.Session.create ~id:"bad" ~kind:S.Protocol.Events ~config:H.Config.full
      ~eviction:None ()
  in
  (match S.Session.feed_line s "A nope" with
  | Error m ->
      Alcotest.(check bool) "names the line" true (contains m "A nope")
  | Ok _ -> Alcotest.fail "malformed entry accepted")

(* ---- obs sessions: a streaming merge ---- *)

let needle_campaign () =
  let b = Option.get (H.Programs.find "needle") in
  let sp =
    E.Explore.spec ~strategy:(E.Strategy.Pct 3)
      ~budget:(E.Explore.runs_budget 6) H.Config.full
  in
  let r = E.Explore.run_campaign sp ~source:b.H.Programs.b_source in
  (sp, r)

let test_obs_session_matches_merge () =
  let sp, r = needle_campaign () in
  let rows = E.Explore.rows_of_report r in
  let expected =
    E.Explore.report_json ~timing:false (E.Explore.merge sp rows)
  in
  let s =
    S.Session.create ~id:"obs" ~kind:S.Protocol.Obs ~config:H.Config.full
      ~eviction:None ()
  in
  ignore (feed_ok s (E.Explore.spec_to_json ~target:"-b needle" sp));
  List.iter (fun row -> ignore (feed_ok s (E.Explore.row_to_json row))) rows;
  (match S.Session.close s with
  | Ok body ->
      Alcotest.(check string) "streamed fold = racedet merge" expected body
  | Error m -> Alcotest.fail ("close: " ^ m));
  ()

let test_obs_session_errors () =
  (* Closing before the header is refused. *)
  let s =
    S.Session.create ~id:"o1" ~kind:S.Protocol.Obs ~config:H.Config.full
      ~eviction:None ()
  in
  (match S.Session.close s with
  | Error m -> Alcotest.(check bool) "names the header" true (contains m "header")
  | Ok _ -> Alcotest.fail "headerless close accepted");
  (* A truncated stream under a purely runs-based budget is refused,
     like racedet merge. *)
  let sp, r = needle_campaign () in
  let rows = E.Explore.rows_of_report r in
  let s =
    S.Session.create ~id:"o2" ~kind:S.Protocol.Obs ~config:H.Config.full
      ~eviction:None ()
  in
  ignore (feed_ok s (E.Explore.spec_to_json sp));
  (match rows with
  | row :: _ -> ignore (feed_ok s (E.Explore.row_to_json row))
  | [] -> Alcotest.fail "campaign produced no rows");
  (match S.Session.close s with
  | Error m -> Alcotest.(check bool) "truncation refused" true (contains m "missing")
  | Ok _ -> Alcotest.fail "truncated obs stream folded");
  (* A row fed twice would double-count its sightings: refused, like
     racedet merge refuses overlapping shards. *)
  let s =
    S.Session.create ~id:"o3" ~kind:S.Protocol.Obs ~config:H.Config.full
      ~eviction:None ()
  in
  ignore (feed_ok s (E.Explore.spec_to_json sp));
  List.iter
    (fun row -> ignore (feed_ok s (E.Explore.row_to_json row)))
    (List.hd rows :: rows);
  match S.Session.close s with
  | Error m ->
      Alcotest.(check bool) "duplicate refused" true
        (contains m "run index 0 appears more than once")
  | Ok _ -> Alcotest.fail "duplicated obs row folded"

(* ---- the stdin/stdout transport ---- *)

let serve_string conf input =
  let in_path = Filename.temp_file "drd_serve_in" ".txt" in
  let out_path = Filename.temp_file "drd_serve_out" ".txt" in
  let oc = open_out in_path in
  output_string oc input;
  close_out oc;
  let ic = open_in in_path and oc = open_out out_path in
  let r = S.Server.serve_channels conf ic oc in
  close_in ic;
  close_out oc;
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  (r, List.rev !lines)

let default_conf =
  {
    S.Server.sv_config = H.Config.full;
    sv_eviction = None;
    sv_stats_every = 0.;
  }

let test_serve_channels_implicit_session () =
  let compiled =
    H.Pipeline.compile H.Config.full ~source:(H.Programs.figure2 ())
  in
  let log, _ = H.Pipeline.record_log compiled in
  let input = String.concat "\n" (log_lines log) ^ "\n" in
  let r, out = serve_string default_conf input in
  Alcotest.(check bool) "clean exit" true (r = Ok ());
  match List.rev out with
  | last :: _ ->
      Alcotest.(check bool) "final frame is the report" true
        (contains last "\"t\":\"report\"");
      Alcotest.(check bool) "implicit session is 'default'" true
        (contains last "\"session\":\"default\"")
  | [] -> Alcotest.fail "no output frames"

let test_serve_channels_framed_sessions () =
  (* Two sequential sessions on one connection; stats in between. *)
  let hello id =
    S.Protocol.control_to_line
      (S.Protocol.Hello
         { c_session = id; c_kind = S.Protocol.Events; c_config = "" })
  in
  let close = S.Protocol.control_to_line S.Protocol.Close in
  let stats = S.Protocol.control_to_line S.Protocol.Stats_req in
  let input =
    String.concat "\n"
      [
        hello "one"; "A 1 1 W 0"; stats; close;
        hello "two"; "A 2 1 W 0"; close;
      ]
    ^ "\n"
  in
  let r, out = serve_string default_conf input in
  Alcotest.(check bool) "clean exit" true (r = Ok ());
  let count p = List.length (List.filter (fun l -> contains l p) out) in
  Alcotest.(check int) "two hello acks" 2 (count "\"t\":\"hello\"");
  Alcotest.(check int) "one stats frame" 1 (count "\"t\":\"stats\"");
  Alcotest.(check int) "two reports" 2 (count "\"t\":\"report\"");
  Alcotest.(check bool) "sessions named" true
    (count "\"session\":\"one\"" >= 1 && count "\"session\":\"two\"" >= 1)

let test_serve_channels_errors () =
  (* Malformed payload: error frame, Error result (exit code 2 at the
     CLI). *)
  let r, out = serve_string default_conf "A bogus line\n" in
  (match r with
  | Error m -> Alcotest.(check bool) "error names the tag" true (contains m "bogus")
  | Ok () -> Alcotest.fail "malformed payload accepted");
  Alcotest.(check bool) "error frame emitted" true
    (List.exists (fun l -> contains l "\"t\":\"error\"") out);
  (* Unknown config in hello.  Configurations name Table 2/3 rows only,
     so a baseline's retired configuration name is unknown too, never
     silently run as the paper detector. *)
  List.iter
    (fun c_config ->
      let hello =
        S.Protocol.control_to_line
          (S.Protocol.Hello
             { c_session = "x"; c_kind = S.Protocol.Events; c_config })
      in
      let r, out = serve_string default_conf (hello ^ "\nA 1 1 W 0\n") in
      (match r with
      | Error m ->
          Alcotest.(check bool) (c_config ^ ": unknown config refused") true
            (contains m
               (Printf.sprintf "unknown detector configuration %S" c_config))
      | Ok () -> Alcotest.fail (c_config ^ ": unknown config accepted"));
      Alcotest.(check bool) (c_config ^ ": error frame, no session") true
        (List.exists (fun l -> contains l "\"t\":\"error\"") out
        && not (List.exists (fun l -> contains l "\"t\":\"hello\"") out)))
    [ "NoSuch"; "HappensBefore" ];
  (* Double hello. *)
  let h =
    S.Protocol.control_to_line
      (S.Protocol.Hello
         { c_session = "x"; c_kind = S.Protocol.Events; c_config = "" })
  in
  let r, _ = serve_string default_conf (h ^ "\n" ^ h ^ "\n") in
  match r with
  | Error m -> Alcotest.(check bool) "double hello refused" true (contains m "already open")
  | Ok () -> Alcotest.fail "double hello accepted"

(* The stdin transport frames lines like the socket: a line over the
   1 MiB cap is an error, answered with a short error frame (the line
   is never quoted back), not read whole. *)
let test_serve_channels_line_cap () =
  let r, out = serve_string default_conf (String.make (2 lsl 20) 'A' ^ "\n") in
  (match r with
  | Error m ->
      Alcotest.(check string) "error names the cap"
        "line longer than 1048576 bytes" m
  | Ok () -> Alcotest.fail "2 MiB line accepted");
  Alcotest.(check bool) "error frame names the cap" true
    (List.exists
       (fun l -> contains l "\"t\":\"error\"" && contains l "1048576 bytes")
       out);
  Alcotest.(check bool) "frames stay short" true
    (List.for_all (fun l -> String.length l < 1024) out)

(* ---- Unix-socket transport ---- *)

(* A daemon on a fresh socket in its own domain; [shutdown] stops it
   and checks it exited cleanly. *)
let start_socket_server ?(conf = default_conf) () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "drd-serve-test-%d.sock" (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        S.Server.serve_socket conf ~path
          ~ready:(fun () -> Atomic.set ready true)
          ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    (* A daemon that never answers fails the test instead of hanging it. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let shutdown () =
    let _, _, oc = connect () in
    output_string oc (S.Protocol.control_to_line S.Protocol.Shutdown);
    output_char oc '\n';
    flush oc;
    (match Domain.join server with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("server: " ^ m));
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)
  in
  (connect, shutdown)

let hello_line id =
  S.Protocol.control_to_line
    (S.Protocol.Hello { c_session = id; c_kind = S.Protocol.Events; c_config = "" })

let rec find_frame ic tag =
  let l = input_line ic in
  if contains l (Printf.sprintf "\"t\":\"%s\"" tag) then l else find_frame ic tag

let test_socket_smoke () =
  let connect, shutdown = start_socket_server () in
  let session_report id =
    let _, ic, oc = connect () in
    output_string oc (hello_line id ^ "\nA 1 1 W 0\nA 1 2 R 0\nA 1 1 W 0\n");
    output_string oc (S.Protocol.control_to_line S.Protocol.Close ^ "\n");
    flush oc;
    let report = find_frame ic "report" in
    close_out oc;
    report
  in
  (* Two client connections, each with its own session and race. *)
  let r1 = session_report "a" and r2 = session_report "b" in
  Alcotest.(check bool) "session a reported" true (contains r1 "\"session\":\"a\"");
  Alcotest.(check bool) "session b reported" true (contains r2 "\"session\":\"b\"");
  Alcotest.(check bool) "a found its race" true (contains r1 "\"races\":[{");
  shutdown ()

let racedet =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/racedet.exe"

(* [racedet detect FILE --json] as a separate process: its stdout line. *)
let detect_json text =
  let file = Filename.temp_file "drd_serve_log" ".log" in
  let oc = open_out_bin file in
  output_string oc text;
  close_out oc;
  let ic = Unix.open_process_args_in racedet [| racedet; "detect"; file; "--json" |] in
  let out = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "racedet detect failed");
  Sys.remove file;
  out

let tsp_log_lines () =
  let b = Option.get (H.Programs.find "tsp") in
  let compiled = H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source in
  let log, _ = H.Pipeline.record_log compiled in
  log_lines log

(* The recorded tsp log is larger than one 64 KiB read, so sent in
   odd-sized writes its lines straddle reads at every offset; some lines
   end in CRLF.  The report must still be byte-identical to one-shot
   detection of the clean log. *)
let test_socket_framing () =
  let lines = tsp_log_lines () in
  let clean = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  Alcotest.(check bool) "log exceeds one read" true (String.length clean > 65536);
  let expected = detect_json clean in
  let payload =
    String.concat ""
      (List.mapi (fun i l -> l ^ if i mod 3 = 0 then "\r\n" else "\n") lines)
  in
  let connect, shutdown = start_socket_server () in
  let fd, ic, _ = connect () in
  let send s =
    let rec go pos =
      if pos < String.length s then
        go (pos + Unix.write_substring fd s pos (String.length s - pos))
    in
    go 0
  in
  send (hello_line "framed" ^ "\n");
  let sizes = [| 1; 7; 4093; 13; 65537; 2; 999; 70001 |] in
  let rec write_odd pos k =
    if pos < String.length payload then begin
      let n = min sizes.(k mod Array.length sizes) (String.length payload - pos) in
      send (String.sub payload pos n);
      write_odd (pos + n) (k + 1)
    end
  in
  write_odd 0 0;
  send (S.Protocol.control_to_line S.Protocol.Close ^ "\n");
  let report = find_frame ic "report" in
  Unix.close fd;
  let prefix = "{\"v\":1,\"t\":\"report\",\"session\":\"framed\",\"report\":" in
  let pl = String.length prefix in
  Alcotest.(check string) "report prefix" prefix (String.sub report 0 pl);
  Alcotest.(check string) "body equals detect --json" expected
    (String.sub report pl (String.length report - pl - 1));
  shutdown ()

(* A peer that sends a line longer than the 1 MiB cap without a newline
   gets an error frame and is dropped; other clients are unaffected. *)
let test_socket_line_cap () =
  let connect, shutdown = start_socket_server () in
  let fd, ic, _ = connect () in
  let chunk = Bytes.make 65536 'A' in
  let hung_up = function
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> true
    | _ -> false
  in
  let rec flood sent =
    if sent < 2 lsl 20 then
      match Unix.write fd chunk 0 (Bytes.length chunk) with
      | n -> flood (sent + n)
      | exception e when hung_up e -> ()
    else
      (* The daemon did not hang up mid-flood: a newline makes it
         answer, so the test fails instead of hanging. *)
      try ignore (Unix.write_substring fd "\n" 0 1) with e when hung_up e -> ()
  in
  flood 0;
  let err = find_frame ic "error" in
  Alcotest.(check bool) "error names the cap" true (contains err "1048576 bytes");
  Unix.close fd;
  let _, ic2, oc2 = connect () in
  output_string oc2 (hello_line "after" ^ "\nA 1 1 W 0\nA 1 2 R 0\nA 1 1 W 0\n");
  output_string oc2 (S.Protocol.control_to_line S.Protocol.Close ^ "\n");
  flush oc2;
  let report = find_frame ic2 "report" in
  Alcotest.(check bool) "second client still reports" true
    (contains report "\"session\":\"after\"" && contains report "\"races\":[{");
  output_string oc2 (S.Protocol.control_to_line S.Protocol.Stats_req ^ "\n");
  flush oc2;
  Alcotest.(check bool) "the error is counted" true
    (contains (find_frame ic2 "stats") "\"errors\":1");
  close_out oc2;
  shutdown ()

(* At the end of a client's stream, a final event line without a
   newline is still a line: the report counts it, as on stdin. *)
let test_socket_final_unterminated_line () =
  let connect, shutdown = start_socket_server () in
  let fd, ic, oc = connect () in
  output_string oc (hello_line "tail" ^ "\nA 1 1 W 0\nA 1 2 R 0\nA 1 1 W 0");
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let report = find_frame ic "report" in
  Unix.close fd;
  let events_in =
    match W.json_of_string report with
    | Ok j -> (
        match
          Option.bind (W.member "report" j) (W.member "stats")
          |> Fun.flip Option.bind (W.member "events_in")
        with
        | Some (W.Int n) -> n
        | _ -> Alcotest.failf "no report.stats.events_in in %s" report)
    | Error m -> Alcotest.failf "bad frame %s: %s" report m
  in
  Alcotest.(check int) "all three events counted" 3 events_in;
  Alcotest.(check bool) "the race the last line makes is reported" true
    (contains report "\"races\":[{");
  shutdown ()

(* An int field of a frame's [outer] object. *)
let frame_int frame outer key =
  match W.json_of_string frame with
  | Ok j -> (
      match Option.bind (W.member outer j) (W.member key) with
      | Some (W.Int n) -> n
      | _ -> failwith (Printf.sprintf "no %s.%s in %s" outer key frame))
  | Error m -> failwith ("bad frame: " ^ m)

(* Four clients stream at once into a daemon whose eviction watermark
   (4096 locations) is above tsp's location count but far below a churn
   session's.  Each client's tsp session must match one-shot detection
   and evict nothing; its churn sessions must evict, with daemon-wide
   live locations at most clients x watermark. *)
let test_socket_soak () =
  let clients = 4 and high = 4096 in
  let churn_lines = 100_000 and churn_window = 20_000 in
  let events_per_client = 250_000 in
  let lines = tsp_log_lines () in
  let log_text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let expected = detect_json log_text in
  (* Two threads touch every location under lock 7: the tries fill
     without races, so no race frame waits on a client still writing. *)
  let churn =
    let b = Buffer.create (churn_lines * 16) in
    for i = 0 to churn_lines - 1 do
      let thread = 1 + (i / churn_window mod 2) in
      Printf.bprintf b "A %d %d %c 7 5\n" (1 + (i mod churn_window)) thread
        (if thread = 1 then 'W' else 'R')
    done;
    Buffer.contents b
  in
  let conf =
    {
      default_conf with
      S.Server.sv_eviction = Some (Detector.eviction ~high ());
    }
  in
  let connect, shutdown = start_socket_server ~conf () in
  let client c =
    let _, ic, oc = connect () in
    let session j ?(stats = false) payload =
      let id = Printf.sprintf "c%d-s%d" c j in
      output_string oc (hello_line id ^ "\n");
      output_string oc payload;
      if stats then
        output_string oc
          (S.Protocol.control_to_line S.Protocol.Stats_req ^ "\n");
      output_string oc (S.Protocol.control_to_line S.Protocol.Close ^ "\n");
      flush oc;
      (* The stats request precedes the close, so its frame comes first. *)
      let live =
        if stats then frame_int (find_frame ic "stats") "stats" "live_locations"
        else 0
      in
      let report = find_frame ic "report" in
      let prefix =
        Printf.sprintf
          "{\"v\":1,\"t\":\"report\",\"session\":\"%s\",\"report\":" id
      in
      let pl = String.length prefix in
      if not (String.starts_with ~prefix report) then failwith report;
      ( String.sub report pl (String.length report - pl - 1),
        frame_int report "report" "evictions",
        live )
    in
    let body, ev0, _ = session 0 log_text in
    let rec churn_sessions j sent live evictions =
      if sent >= events_per_client then (live, evictions)
      else
        let _, ev, l = session j ~stats:true churn in
        churn_sessions (j + 1) (sent + churn_lines) (max live l)
          (evictions + ev)
    in
    let live, evictions = churn_sessions 1 (List.length lines) 0 0 in
    close_out oc;
    (body, ev0, live, evictions)
  in
  let results =
    List.init clients (fun c -> Domain.spawn (fun () -> client c))
    |> List.map Domain.join
  in
  shutdown ();
  List.iteri
    (fun c (body, ev0, _, _) ->
      Alcotest.(check string)
        (Printf.sprintf "client %d: tsp report equals detect --json" c)
        expected body;
      Alcotest.(check int)
        (Printf.sprintf "client %d: tsp evicts nothing" c)
        0 ev0)
    results;
  let max_live = List.fold_left (fun m (_, _, l, _) -> max m l) 0 results in
  let evictions = List.fold_left (fun n (_, _, _, e) -> n + e) 0 results in
  Alcotest.(check bool)
    (Printf.sprintf "max live locations %d, at most %d" max_live
       (clients * high))
    true
    (max_live <= clients * high);
  Alcotest.(check bool)
    (Printf.sprintf "churn evicted (%d evictions)" evictions)
    true (evictions > 0)

let suite =
  [
    Alcotest.test_case "protocol classify and round-trip" `Quick (fun () ->
        test_classify ());
    Alcotest.test_case "events session is byte-identical to one-shot" `Quick
      (fun () -> test_session_byte_identity ());
    Alcotest.test_case "incremental race frames" `Quick (fun () ->
        test_incremental_race_frames ());
    Alcotest.test_case "race frames cost per new race" `Quick (fun () ->
        test_race_frames_linear ());
    Alcotest.test_case "malformed payload is an error" `Quick (fun () ->
        test_session_feed_errors ());
    Alcotest.test_case "obs session equals racedet merge" `Quick (fun () ->
        test_obs_session_matches_merge ());
    Alcotest.test_case "obs session refusals" `Quick (fun () ->
        test_obs_session_errors ());
    Alcotest.test_case "stdin transport: implicit session" `Quick (fun () ->
        test_serve_channels_implicit_session ());
    Alcotest.test_case "stdin transport: framed sessions" `Quick (fun () ->
        test_serve_channels_framed_sessions ());
    Alcotest.test_case "stdin transport: input errors" `Quick (fun () ->
        test_serve_channels_errors ());
    Alcotest.test_case "stdin transport: line cap" `Quick (fun () ->
        test_serve_channels_line_cap ());
    Alcotest.test_case "unix socket smoke" `Quick (fun () ->
        test_socket_smoke ());
    Alcotest.test_case "socket framing: odd writes, CRLF, long log" `Quick
      (fun () -> test_socket_framing ());
    Alcotest.test_case "socket line cap drops only the offender" `Quick
      (fun () -> test_socket_line_cap ());
    Alcotest.test_case "socket: final unterminated line counts" `Quick
      (fun () -> test_socket_final_unterminated_line ());
    Alcotest.test_case "socket soak: concurrent clients, bounded eviction"
      `Quick (fun () -> test_socket_soak ());
  ]
