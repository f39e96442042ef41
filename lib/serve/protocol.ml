module Wire = Drd_explore.Wire
module Report = Drd_core.Report
module Event = Drd_core.Event
module Trie = Drd_core.Trie
module Detector = Drd_core.Detector
module Lockset_id = Drd_core.Lockset_id

let protocol_version = 1

type kind = Events | Obs

let kind_name = function Events -> "events" | Obs -> "obs"

let kind_of_string = function
  | "events" -> Ok Events
  | "obs" -> Ok Obs
  | k -> Error (Printf.sprintf "unknown session kind %S (events|obs)" k)

type control =
  | Hello of { c_session : string; c_kind : kind; c_config : string }
  | Stats_req
  | Close
  | Shutdown

type inbound = Control of control | Payload

(* Tags of the v2 observation wire lines: they are JSON too, but they
   are payload for an obs session, not control. *)
let obs_payload_tags = [ "spec"; "run"; "failure" ]

let classify_substring s pos len =
  if len = 0 || s.[pos] <> '{' then Ok Payload
  else
    match Wire.json_of_string (String.sub s pos len) with
    | Error m -> Error ("bad control frame: " ^ m)
    | Ok j -> (
        match Wire.member "t" j with
        | Some (Wire.String t) when List.mem t obs_payload_tags -> Ok Payload
        | Some (Wire.String t) -> (
            (* Control frames carry the serve protocol version. *)
            match Wire.member "v" j with
            | Some (Wire.Int v) when v >= 1 && v <= protocol_version -> (
                match t with
                | "hello" ->
                    let str k default =
                      match Wire.member k j with
                      | Some (Wire.String s) -> Ok s
                      | None -> Ok default
                      | Some _ ->
                          Error
                            (Printf.sprintf "hello field %S: expected string" k)
                    in
                    (* "" = use the daemon's default configuration *)
                    Result.bind (str "session" "") (fun c_session ->
                        Result.bind (str "config" "") (fun c_config ->
                            Result.bind
                              (Result.bind (str "kind" "events")
                                 kind_of_string)
                              (fun c_kind ->
                                Ok
                                  (Control
                                     (Hello { c_session; c_kind; c_config })))))
                | "stats" -> Ok (Control Stats_req)
                | "close" -> Ok (Control Close)
                | "shutdown" -> Ok (Control Shutdown)
                | t ->
                    Error
                      (Printf.sprintf
                         "unknown control frame type %S \
                          (hello|stats|close|shutdown)"
                         t))
            | Some (Wire.Int v) ->
                Error
                  (Printf.sprintf
                     "serve protocol version %d not supported (this build \
                      speaks versions 1-%d)"
                     v protocol_version)
            | _ -> Error "control frame has no protocol version")
        | _ -> Error "control frame has no type tag")

let classify_line line = classify_substring line 0 (String.length line)

let line tag fields =
  Wire.json_to_string
    (Wire.Obj
       (("v", Wire.Int protocol_version) :: ("t", Wire.String tag) :: fields))

let control_to_line = function
  | Hello { c_session; c_kind; c_config } ->
      line "hello"
        [
          ("session", Wire.String c_session);
          ("kind", Wire.String (kind_name c_kind));
          ("config", Wire.String c_config);
        ]
  | Stats_req -> line "stats" []
  | Close -> line "close" []
  | Shutdown -> line "shutdown" []

let hello_frame ~session ~kind =
  line "hello"
    [
      ("session", Wire.String session); ("kind", Wire.String (kind_name kind));
    ]

let kind_json = function
  | Event.Read -> Wire.String "read"
  | Event.Write -> Wire.String "write"

let lockset_json ls =
  Wire.List (List.map (fun l -> Wire.Int l) (Lockset_id.to_sorted_list ls))

(* The id-level twin of the CLI's named race JSON: the daemon only sees
   the event stream, never the program, so sites/locks/locations stay
   integers exactly as they appear in the log. *)
let race_json (race : Report.race) =
  let e = race.Report.current in
  let p = race.Report.prior in
  Wire.Obj
    [
      ("location", Wire.Int race.Report.loc);
      ( "current",
        Wire.Obj
          [
            ("thread", Wire.Int e.Event.thread);
            ("kind", kind_json e.Event.kind);
            ("site", Wire.Int e.Event.site);
            ("locks", lockset_json e.Event.locks);
          ] );
      ( "prior",
        Wire.Obj
          [
            ( "thread",
              match p.Trie.p_thread with
              | Event.Thread t -> Wire.Int t
              | _ -> Wire.String "multiple" );
            ("kind", kind_json p.Trie.p_kind);
            ("site", Wire.Int p.Trie.p_site);
            ("locks", lockset_json p.Trie.p_locks);
          ] );
    ]

let race_frame ~session ~seq race =
  line "race"
    [
      ("session", Wire.String session);
      ("seq", Wire.Int seq);
      ("race", race_json race);
    ]

let stats_json (s : Detector.stats) =
  Wire.Obj
    [
      ("events_in", Wire.Int s.Detector.events_in);
      ("cache_hits", Wire.Int s.Detector.cache_hits);
      ("ownership_filtered", Wire.Int s.Detector.ownership_filtered);
      ("weaker_filtered", Wire.Int s.Detector.weaker_filtered);
      ("race_checks", Wire.Int s.Detector.race_checks);
      ("races_reported", Wire.Int s.Detector.races_reported);
      ("locations_tracked", Wire.Int s.Detector.locations_tracked);
      ("trie_nodes", Wire.Int s.Detector.trie_nodes);
    ]

(* live-location counts deliberately stay out of the body: they are an
   instantaneous daemon metric (stats frames), and their definition
   depends on whether an eviction policy is present — including them
   would break the byte-identity of an evicting-but-never-evicted
   session's report against the one-shot replay. *)
let events_report_body ~races ~stats ~evictions =
  Wire.json_to_string
    (Wire.Obj
       [
         ("kind", Wire.String "events");
         ("races", Wire.List (List.map race_json races));
         ("stats", stats_json stats);
         ("evictions", Wire.Int evictions);
       ])

let report_frame ~session ~body =
  Printf.sprintf "{\"v\":%d,\"t\":\"report\",\"session\":%s,\"report\":%s}"
    protocol_version
    (Wire.json_to_string (Wire.String session))
    body

let stats_frame j = line "stats" [ ("stats", j) ]
let error_frame ~msg = line "error" [ ("msg", Wire.String msg) ]
