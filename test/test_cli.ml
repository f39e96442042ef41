(* End-to-end exit-code and stream-hygiene tests against the installed
   binary.  The contract (documented in racedet's man page): 0 success,
   2 malformed input data, 124 CLI misuse, 125 internal error — and
   under --json, stdout carries only machine-readable output while
   diagnostics go to stderr. *)

(* The binary is declared as a dune dep of the test, so it lives next
   to us in _build regardless of where the runner was started from. *)
let racedet =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/racedet.exe"

let contains = Astring_contains.contains

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Run [racedet args], feeding [stdin] if given; return exit code and
   captured stdout/stderr.  With [vmem_kb], racedet runs in a shell
   under that address-space ceiling ([ulimit -v]). *)
let run ?(stdin = "") ?vmem_kb args =
  let in_path = Filename.temp_file "drd_cli_in" ".txt" in
  let out_path = Filename.temp_file "drd_cli_out" ".txt" in
  let err_path = Filename.temp_file "drd_cli_err" ".txt" in
  write_file in_path stdin;
  let fd_in = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let fd_out =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let fd_err =
    Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let pid =
    match vmem_kb with
    | None ->
        Unix.create_process racedet
          (Array.of_list (racedet :: args))
          fd_in fd_out fd_err
    | Some kb ->
        let script = Printf.sprintf "ulimit -v %d && exec \"$0\" \"$@\"" kb in
        Unix.create_process "/bin/sh"
          (Array.of_list ("/bin/sh" :: "-c" :: script :: racedet :: args))
          fd_in fd_out fd_err
  in
  Unix.close fd_in;
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> Alcotest.failf "racedet killed by signal %d" s
    | Unix.WSTOPPED _ -> Alcotest.fail "racedet stopped"
  in
  let out = read_file out_path and err = read_file err_path in
  Sys.remove in_path;
  Sys.remove out_path;
  Sys.remove err_path;
  (code, out, err)

let good_log = "A 1 1 W 5\nA 1 2 R 6\nA 1 1 W 5\n"
let bad_log = "A 1 1 W 5\nA bogus line\n"

let with_log contents f =
  let path = Filename.temp_file "drd_cli_log" ".log" in
  write_file path contents;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_detect_json_success () =
  with_log good_log (fun log ->
      let code, out, err = run [ "detect"; log; "--json" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "stdout is the JSON body" true
        (String.length out > 0 && out.[0] = '{');
      Alcotest.(check bool) "a race was found" true
        (contains out "\"races\":[{");
      Alcotest.(check string) "stderr silent on success" "" err)

let test_detect_malformed_is_exit_2 () =
  with_log bad_log (fun log ->
      let code, out, err = run [ "detect"; log; "--json" ] in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check string) "no partial JSON on stdout" "" out;
      Alcotest.(check bool) "diagnostic on stderr" true
        (contains err "racedet:");
      Alcotest.(check bool) "diagnostic names the bad line" true
        (contains err "bogus"))

let test_cli_misuse_is_exit_124 () =
  (* A missing log file is caught by argument validation, not treated
     as a data error. *)
  let code, _, err = run [ "detect"; "/no/such/file.log"; "--json" ] in
  Alcotest.(check int) "missing file: exit 124" 124 code;
  Alcotest.(check bool) "usage diagnostic" true (String.length err > 0);
  let code, _, _ = run [ "frobnicate" ] in
  Alcotest.(check int) "unknown command: exit 124" 124 code;
  let code, _, _ = run [ "serve"; "--evict-high"; "2"; "--evict-low"; "5" ] in
  Alcotest.(check int) "inverted watermarks: exit 124" 124 code;
  let code, _, _ = run [ "serve"; "--evict-low"; "3" ] in
  Alcotest.(check int) "low without high: exit 124" 124 code;
  (* serve runs the paper detector: a baseline configuration is refused,
     not silently replaced. *)
  let code, out, err = run ~stdin:good_log [ "serve"; "-c"; "Eraser" ] in
  Alcotest.(check int) "serve -c Eraser: exit 124" 124 code;
  Alcotest.(check string) "serve -c Eraser: nothing served" "" out;
  Alcotest.(check bool) "serve -c Eraser: racedet: diagnostic" true
    (contains err "racedet: configuration Eraser");
  let code, _, err = run [ "run"; "-b"; "figure2"; "--detector"; "nosuch" ] in
  Alcotest.(check int) "unknown detector: exit 124" 124 code;
  Alcotest.(check bool) "diagnostic lists the registry" true
    (contains err "paper");
  let code, _, _ = run [ "arena"; "-n"; "1"; "--fail-on-miss"; "bogus" ] in
  Alcotest.(check int) "unknown --fail-on-miss detector: exit 124" 124 code

let with_source source f =
  let path = Filename.temp_file "drd_cli_src" ".java" in
  write_file path source;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_compile_error_is_exit_124 () =
  (* A program that fails to compile is command-line misuse — the user
     pointed the tool at bad source — never a data error (2), an
     internal crash (125), or a silent per-run failure row.  The
     campaign compiles up-front, so the multi-domain pool must not
     start at all: the diagnostic appears exactly once, not once per
     worker. *)
  with_source "class Bad { int x\n" (fun src ->
      let code, out, err = run [ "run"; src ] in
      Alcotest.(check int) "run: exit 124" 124 code;
      Alcotest.(check string) "run: stdout clean" "" out;
      Alcotest.(check bool) "run: diagnostic names the parse error" true
        (contains err "parse error");
      let code, out, err =
        run [ "explore"; src; "-n"; "8"; "-w"; "2"; "--json" ]
      in
      Alcotest.(check int) "explore -w 2: exit 124" 124 code;
      Alcotest.(check string) "explore: no partial JSON on stdout" "" out;
      Alcotest.(check bool) "explore: diagnostic names the parse error" true
        (contains err "parse error");
      let occurrences needle hay =
        let n = String.length needle in
        let count = ref 0 in
        for i = 0 to String.length hay - n do
          if String.sub hay i n = needle then incr count
        done;
        !count
      in
      Alcotest.(check int) "explore: diagnostic appears exactly once" 1
        (occurrences "parse error" err))

let test_int_literal_out_of_range () =
  (* A literal above max_int is a lex error at its position, so every
     command that compiles the source takes the compile-error exit. *)
  with_source "class Main { static void main() { int x = 99999999999999999999999; } }\n"
    (fun src ->
      List.iter
        (fun cmd ->
          let code, out, err = run [ cmd; src ] in
          Alcotest.(check int) (cmd ^ ": exit 124") 124 code;
          Alcotest.(check string) (cmd ^ ": stdout clean") "" out;
          Alcotest.(check bool)
            (cmd ^ ": racedet: diagnostic names the literal")
            true
            (contains err "racedet: lex error at line 1, col 43: integer literal out of range"))
        [ "run"; "analyze"; "ir" ])

let test_runtime_error_is_exit_124 () =
  (* A program that compiles but fails while running is the user's
     program at fault: exit 124 with the VM's diagnostic, never an
     internal error (125), and nothing on stdout even under --json. *)
  with_source
    "class Main { static void main() { int z = 0; int y = 5 / z; print(\"y\", y); } }\n"
    (fun src ->
      let expect what (code, out, err) =
        Alcotest.(check int) (what ^ ": exit 124") 124 code;
        Alcotest.(check string) (what ^ ": stdout clean") "" out;
        Alcotest.(check bool) (what ^ ": runtime diagnostic") true
          (contains err "racedet: runtime error: division by zero at line 1")
      in
      expect "run" (run [ "run"; src ]);
      expect "run --json" (run [ "run"; src; "--json" ]);
      let log = Filename.temp_file "drd_cli_log" ".log" in
      Sys.remove log;
      expect "record" (run [ "record"; src; "-o"; log ]);
      Alcotest.(check bool) "record: no log written" false (Sys.file_exists log))

let test_resource_limits_are_exit_124 () =
  (* A program that asks for more heap or call depth than the VM gives
     fails as a run-time error, exit 124, in every engine.  The
     address-space ceiling keeps a regression from exhausting the
     host. *)
  List.iter
    (fun (what, source, diagnostic) ->
      with_source source (fun src ->
          List.iter
            (fun engine ->
              let what = what ^ " --engine " ^ engine in
              let code, out, err =
                run ~vmem_kb:4194304 [ "run"; src; "--engine"; engine ]
              in
              Alcotest.(check int) (what ^ ": exit 124") 124 code;
              Alcotest.(check string) (what ^ ": stdout clean") "" out;
              Alcotest.(check bool)
                (what ^ ": runtime diagnostic") true
                (contains err ("racedet: runtime error: " ^ diagnostic)))
            [ "ref"; "linked"; "specialized" ]))
    [
      ( "oversized array",
        "class Main { static void main() { int[] a = new \
         int[4611686018427387903]; } }\n",
        "heap limit exceeded" );
      ( "nested array",
        "class Main { static void main() { int n = 1000000; int[][] a = new \
         int[n][n]; } }\n",
        "heap limit exceeded" );
      ( "unbounded recursion",
        "class Main { static int f(int n) { return f(n + 1); } static void \
         main() { print(\"r\", f(0)); } }\n",
        "StackOverflowError in Main.f" );
    ]

let test_explore_batch_flag () =
  (* --batch is a hand-off granularity knob, never an output knob: any
     batch size gives byte-identical JSON (timing suppressed), and a
     nonsensical one is CLI misuse. *)
  let args batch =
    [
      "explore"; "-b"; "needle"; "-n"; "12"; "-w"; "3"; "--batch"; batch;
      "--no-timing"; "--json";
    ]
  in
  let code1, out1, _ = run (args "1") in
  let code2, out2, _ = run (args "5") in
  Alcotest.(check int) "batch 1 exit 0" 0 code1;
  Alcotest.(check int) "batch 5 exit 0" 0 code2;
  Alcotest.(check string) "batch size never reaches the report" out1 out2;
  let code, _, _ = run (args "0") in
  Alcotest.(check int) "--batch 0 is exit 124" 124 code

let test_run_detector_flag () =
  let code, out, _ =
    run [ "run"; "-b"; "figure2"; "--detector"; "eraser" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "baseline row selected by name" true
    (contains out "Dataraces reported by Eraser");
  (* The alias goes through the same registry row. *)
  let code, out_alias, _ =
    run [ "run"; "-b"; "figure2"; "--detector"; "hb" ]
  in
  Alcotest.(check int) "alias exit 0" 0 code;
  Alcotest.(check bool) "hb alias selects HappensBefore" true
    (contains out_alias "Dataraces reported by HappensBefore")

let test_arena_json_deterministic () =
  let args = [ "arena"; "-n"; "12"; "--seed"; "7"; "--json" ] in
  let code1, out1, err1 = run args in
  let code2, out2, _ = run args in
  Alcotest.(check int) "exit 0" 0 code1;
  Alcotest.(check int) "exit 0 again" 0 code2;
  Alcotest.(check string) "stderr silent" "" err1;
  Alcotest.(check bool) "stdout is the JSON report" true
    (String.length out1 > 0 && out1.[0] = '{');
  Alcotest.(check string) "byte-identical across invocations" out1 out2

let test_serve_stdin_matches_detect () =
  with_log good_log (fun log ->
      let code, detect_out, _ = run [ "detect"; log; "--json" ] in
      Alcotest.(check int) "detect exit 0" 0 code;
      let body = String.trim detect_out in
      let code, serve_out, _ = run ~stdin:good_log [ "serve" ] in
      Alcotest.(check int) "serve exit 0" 0 code;
      let lines = String.split_on_char '\n' (String.trim serve_out) in
      let report =
        match List.rev lines with
        | last :: _ -> last
        | [] -> Alcotest.fail "serve produced no frames"
      in
      Alcotest.(check bool) "final frame is the report" true
        (contains report "\"t\":\"report\"");
      Alcotest.(check bool)
        "report body is byte-identical to the one-shot replay" true
        (contains report body);
      (* The race was also streamed incrementally, before the report. *)
      Alcotest.(check bool) "incremental race frame" true
        (List.exists (fun l -> contains l "\"t\":\"race\"") lines))

let test_serve_stdin_malformed_is_exit_2 () =
  let code, out, err = run ~stdin:bad_log [ "serve" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "client saw an error frame" true
    (contains out "\"t\":\"error\"");
  Alcotest.(check bool) "diagnostic on stderr" true (contains err "racedet:")

(* A recorded figure2 log in a temporary file. *)
let with_recorded_log f =
  let path = Filename.temp_file "drd_cli_fig2" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, _ = run [ "record"; "-b"; "figure2"; "-o"; path ] in
      Alcotest.(check int) "record exit 0" 0 code;
      f path)

let test_detect_config_selects_baseline () =
  (* [-c NAME] and [--detector name] resolve to one configuration, so a
     baseline named either way replays the same registry module. *)
  with_recorded_log (fun log ->
      List.iter
        (fun (config, detector) ->
          let code, by_config, _ =
            run [ "detect"; log; "-c"; config; "--json" ]
          in
          Alcotest.(check int) (config ^ ": exit 0") 0 code;
          let code, by_detector, _ =
            run [ "detect"; log; "--detector"; detector; "--json" ]
          in
          Alcotest.(check int) (detector ^ ": exit 0") 0 code;
          Alcotest.(check string)
            ("-c " ^ config ^ " = --detector " ^ detector)
            by_detector by_config)
        [
          ("Eraser", "eraser");
          ("ObjRace", "objrace");
          ("HappensBefore", "vclock");
        ])

let test_merge_refuses_duplicate_index () =
  let obs = Filename.temp_file "drd_cli_shard" ".obs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove obs)
    (fun () ->
      let code, _, _ =
        run
          [ "explore"; "-b"; "needle"; "-s"; "pct"; "-n"; "4"; "--emit-obs"; obs ]
      in
      Alcotest.(check int) "explore exit 0" 0 code;
      let code, out, err = run [ "merge"; obs; obs ] in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check string) "no report" "" out;
      Alcotest.(check bool) "names the index" true
        (contains err "run index 0 appears in more than one input"))

let suite =
  [
    Alcotest.test_case "detect --json: clean stdout, exit 0" `Quick (fun () ->
        test_detect_json_success ());
    Alcotest.test_case "malformed log data is exit 2" `Quick (fun () ->
        test_detect_malformed_is_exit_2 ());
    Alcotest.test_case "CLI misuse is exit 124" `Quick (fun () ->
        test_cli_misuse_is_exit_124 ());
    Alcotest.test_case "serve over stdin matches one-shot detect" `Quick
      (fun () -> test_serve_stdin_matches_detect ());
    Alcotest.test_case "serve rejects malformed payload with exit 2" `Quick
      (fun () -> test_serve_stdin_malformed_is_exit_2 ());
    Alcotest.test_case "compile failure is exit 124, campaign-fatal" `Quick
      (fun () -> test_compile_error_is_exit_124 ());
    Alcotest.test_case "explore --batch: invariant and validated" `Quick
      (fun () -> test_explore_batch_flag ());
    Alcotest.test_case "run --detector selects registry rows" `Quick
      (fun () -> test_run_detector_flag ());
    Alcotest.test_case "arena --json is byte-deterministic" `Quick (fun () ->
        test_arena_json_deterministic ());
    Alcotest.test_case "integer literal out of range is exit 124" `Quick
      (fun () -> test_int_literal_out_of_range ());
    Alcotest.test_case "runtime error in run/record is exit 124" `Quick
      (fun () -> test_runtime_error_is_exit_124 ());
    Alcotest.test_case "heap and call-depth limits are exit 124" `Quick
      (fun () -> test_resource_limits_are_exit_124 ());
    Alcotest.test_case "detect -c BASELINE replays that baseline" `Quick
      test_detect_config_selects_baseline;
    Alcotest.test_case "merge refuses a duplicated run index" `Quick
      test_merge_refuses_duplicate_index;
  ]
