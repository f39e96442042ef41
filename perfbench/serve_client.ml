(* Client side of the serve workloads: the daemon as a child process, a
   blocking line-oriented connection, session exchange and the session
   payloads themselves (recorded benchmark logs and churn streams). *)

module SP = Drd_serve.Protocol
module Session = Drd_serve.Session
module W = Drd_explore.Wire
module P = Drd_harness.Pipeline
module C = Drd_harness.Config

(* The daemon's eviction watermark.  Every recorded benchmark log
   touches far fewer locations (at most ~110), so their reports are
   never affected by eviction; every churn session touches at least
   twice as many. *)
let evict_high = 1024

(* ---- the daemon process ---- *)

type daemon = { pid : int; path : string }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter reap !live)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      None

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c s =
  output_string c.oc s;
  output_char c.oc '\n'

(* Spawn [racedet serve --socket] and wait until it has accepted a
   connection and answered a stats request.  Returns the daemon and the
   set-up time: spawn to first served connection. *)
let start ~racedet ~path =
  (try Sys.remove path with Sys_error _ -> ());
  let t0 = Util.now () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process racedet
      [|
        racedet; "serve"; "--socket"; path; "--evict-high";
        string_of_int evict_high; "--stats-every"; "0";
      |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  let rec wait tries =
    match connect path with
    | Some c -> c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve daemon exited during start-up");
        if tries > 10_000 then failwith "serve daemon did not start listening";
        Unix.sleepf 0.0005;
        wait (tries + 1)
  in
  let c = wait 0 in
  send_line c (SP.control_to_line SP.Stats_req);
  flush c.oc;
  ignore (input_line c.ic);
  let setup = Util.now () -. t0 in
  disconnect c;
  ({ pid; path }, setup)

let stop d =
  (match connect d.path with
  | Some c ->
      send_line c (SP.control_to_line SP.Shutdown);
      flush c.oc;
      disconnect c
  | None -> ());
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries < 2000 ->
        Unix.sleepf 0.005;
        wait (tries + 1)
    | 0, _ -> reap d.pid
    | _ -> ()
  in
  wait 0;
  live := List.filter (( <> ) d.pid) !live;
  try Sys.remove d.path with Sys_error _ -> ()

(* ---- payloads ---- *)

type kind = Log of string (* benchmark name *) | Churn

type payload = {
  p_kind : kind;
  p_text : string; (* newline-terminated event-log lines *)
  p_lines : string array;
  p_events : int;
  p_expected : string option;
      (* recorded logs: the one-shot [racedet detect --json] body *)
}

let kind_name = function Log _ -> "log" | Churn -> "churn"

let payload kind text expected =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "") |> Array.of_list
  in
  { p_kind = kind; p_text = text; p_lines = lines; p_events = Array.length lines;
    p_expected = expected }

let log_benchmarks = [ "mtrt"; "tsp"; "sor2"; "elevator"; "hedc"; "needle" ]

(* Record a program's event log as `racedet record` does, write it
   under the output directory, and take the reference report from a
   separate `racedet detect --json` process. *)
let recorded_log ~racedet ~name ~source =
  let compiled = P.compile C.full ~source in
  let log, _ = P.record_log compiled in
  let buf = Buffer.create (1 lsl 16) in
  Drd_core.Event_log.iter
    (fun e ->
      Buffer.add_string buf (Drd_core.Event_log.entry_to_line e);
      Buffer.add_char buf '\n')
    log;
  let text = Buffer.contents buf in
  let file = Util.out_path ("log-" ^ name ^ ".log") in
  Util.write_file file text;
  let ic =
    Unix.open_process_args_in racedet [| racedet; "detect"; file; "--json" |]
  in
  let expected = try input_line ic with End_of_file -> "" in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("racedet detect failed on " ^ file));
  (payload (Log name) text (Some expected), log)

let benchmark_source name =
  (Option.get (Drd_harness.Programs.find name)).Drd_harness.Programs.b_source

(* A churn session: every location is written by thread 1 and then read
   by thread 2 under one common lock, so nothing races, and the session
   touches 2-4x the eviction watermark in distinct locations, so the
   daemon must evict. *)
let churn ~seed ~index =
  let st = Random.State.make [| seed; index; 0xc4 |] in
  let nlocs = (2 * evict_high) + Random.State.int st (2 * evict_high) in
  let base = 2 * Random.State.int st 1_000_000 in
  let lock = 1 + Random.State.int st 64 in
  let site = Random.State.int st 256 in
  let buf = Buffer.create (nlocs * 40) in
  for i = 0 to nlocs - 1 do
    let loc = base + (2 * i) in
    Printf.bprintf buf "A %d 1 W %d %d\nA %d 2 R %d %d\n" loc site lock loc site lock
  done;
  payload Churn (Buffer.contents buf) None

(* ---- one session over a connection ---- *)

type outcome = {
  o_ok : bool;
  o_latency : float; (* hello sent -> report frame received, seconds *)
}

let report_prefix id =
  Printf.sprintf "{\"v\":%d,\"t\":\"report\",\"session\":%s,\"report\":"
    SP.protocol_version
    (W.json_to_string (W.String id))

(* Check a report body against the payload's reference.  Recorded logs:
   byte-equal to one-shot detection.  Churn: no races, some evictions. *)
let check_body (p : payload) body =
  match (p.p_expected, W.json_of_string body) with
  | _, Error m -> Error ("unparsable report body: " ^ m)
  | Some expected, Ok _ ->
      if body = expected then Ok () else Error "report differs from one-shot detect --json"
  | None, Ok j -> (
      match (W.member "races" j, W.member "evictions" j) with
      | Some (W.List []), Some (W.Int n) when n > 0 -> Ok ()
      | Some (W.List []), _ -> Error "churn session evicted nothing"
      | _ -> Error "churn session reported races")

let session c ~id (p : payload) =
  let t0 = Util.now () in
  send_line c
    (SP.control_to_line
       (SP.Hello { c_session = id; c_kind = SP.Events; c_config = "" }));
  output_string c.oc p.p_text;
  send_line c (SP.control_to_line SP.Close);
  flush c.oc;
  let prefix = report_prefix id in
  let plen = String.length prefix in
  (* Race frames may precede the report; an error frame fails it. *)
  let rec read () =
    let line = input_line c.ic in
    let n = String.length line in
    if n > plen && String.sub line 0 plen = prefix then
      (String.sub line plen (n - plen - 1), Util.now ())
    else
      match W.json_of_string line with
      | Ok j -> (
          match W.member "t" j with
          | Some (W.String "error") -> failwith ("error frame: " ^ line)
          | _ -> read ())
      | Error m -> failwith ("bad frame: " ^ m)
  in
  match read () with
  | exception e ->
      Check.problem "session %s (%s): %s" id (kind_name p.p_kind)
        (Printexc.to_string e);
      raise e
  | body, t1 -> (
      match check_body p body with
      | Ok () -> { o_ok = true; o_latency = t1 -. t0 }
      | Error m ->
          Check.problem "session %s (%s): %s" id (kind_name p.p_kind) m;
          { o_ok = false; o_latency = t1 -. t0 })

(* The daemon's eviction policy, for sessions run in process. *)
let eviction () = Some (Drd_core.Detector.eviction ~high:evict_high ())
