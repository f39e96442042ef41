(* The campaign wire format (lib/explore/wire.ml): specs, run
   observations and failure rows must survive encode/decode exactly —
   including hostile strings — whole observation files must round-trip
   through channels, and lines from a future schema version must be
   rejected rather than guessed at. *)

module H = Drd_harness
module E = Drd_explore
module Wire = E.Wire
module Aggregate = E.Aggregate
module Campaign = E.Campaign
module Strategy = E.Strategy
module Interp = Drd_vm.Interp

let contains_sub sub s = Astring_contains.contains s sub

(* ---- generators ---- *)

(* Strings with every class of character the encoder must escape. *)
let gen_string =
  QCheck.Gen.(
    oneof
      [
        small_string ~gen:printable;
        oneofl
          [
            "";
            "plain";
            "with \"quotes\" and \\backslash\\";
            "newline\nand\ttab\rand\x0cfeed";
            "control\x01\x1f chars";
            "unicode \xc3\xa9 \xe2\x82\xac";
            "TourElement#12.next";
            "--seed 7 --quantum 20";
          ];
      ])

let gen_float =
  QCheck.Gen.(
    oneof
      [
        return 0.;
        return 1.0;
        return 123456789.0;
        return 1.5e-9;
        return 123.456789012345678;
        map (fun f -> Float.abs f) float;
      ])
  |> QCheck.Gen.map (fun f -> if Float.is_nan f || f = Float.infinity then 0. else f)

let gen_policy =
  QCheck.Gen.(
    oneof
      [
        return Interp.Random_walk;
        map2
          (fun depth horizon -> Interp.Pct { depth; horizon })
          (int_range 1 8) (int_range 100 50_000);
      ])

(* The Table 2/3 rows, then each baseline's registry row. *)
let configs =
  H.Config.all
  @ List.map
      (fun e -> H.Registry.apply e H.Config.full)
      H.Registry.[ eraser; objrace; vclock ]

let gen_config =
  QCheck.Gen.(
    map
      (fun (base, seed, quantum, policy) ->
        { base with H.Config.seed; quantum; policy })
      (quad (oneofl configs) (int_range 0 10_000) (int_range 1 500) gen_policy))

let gen_strategy =
  QCheck.Gen.(
    oneof
      [
        return Strategy.Sweep;
        return Strategy.Jitter;
        map (fun d -> Strategy.Pct d) (int_range 1 8);
      ])

let gen_budget =
  QCheck.Gen.(
    map
      (fun (runs, seconds, plateau) ->
        Campaign.
          {
            b_runs = runs;
            b_seconds = seconds;
            b_plateau = plateau;
          })
      (triple (int_range 1 1000)
         (opt (map (fun f -> f +. 0.25) (float_bound_exclusive 100.)))
         (opt (int_range 1 50))))

let gen_spec =
  QCheck.Gen.(
    map
      (fun ((config, strategy, workers, bdg, horizon), equiv) ->
        {
          Campaign.e_config = config;
          e_strategy = strategy;
          e_workers = workers;
          e_budget = bdg;
          e_pct_horizon = horizon;
          e_equiv = equiv;
        })
      (pair
         (tup5 gen_config gen_strategy (int_range 1 16) gen_budget
            (int_range 100 100_000))
         (oneofl [ Campaign.Raw; Campaign.Hb ])))

let gen_sighting =
  QCheck.Gen.(
    map
      (fun (obj, site_a, site_b, kinds) ->
        { Aggregate.s_key = Aggregate.key ~obj ~site_a ~site_b; s_kinds = kinds })
      (quad gen_string gen_string gen_string
         (oneofl [ ""; "read vs write"; "write vs write" ])))

let gen_obs =
  QCheck.Gen.(
    map
      (fun (((index, seed, spec, repro, sightings), (fp, events, steps, wall)), hb) ->
        Aggregate.
          {
            o_index = index;
            o_seed = seed;
            o_spec = spec;
            o_repro = repro;
            o_sightings = sightings;
            o_fingerprint = fp;
            o_hb_fingerprint = hb;
            o_events = events;
            o_steps = steps;
            o_wall = wall;
          })
      (pair
         (pair
            (tup5 (int_range 0 100_000) int gen_string gen_string
               (list_size (int_bound 4) gen_sighting))
            (quad int (int_range 0 1_000_000) (int_range 0 10_000_000)
               gen_float))
         (opt (int_range 0 0x3FFFFFFFFFFF))))

let gen_failure =
  QCheck.Gen.(
    map
      (fun (index, seed, error) ->
        Aggregate.{ f_index = index; f_seed = seed; f_error = error })
      (triple (int_range (-1) 100_000) int gen_string))

let arb gen = QCheck.make gen

(* ---- round-trip properties ---- *)

let prop_spec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"spec round-trips"
    (QCheck.pair (arb gen_spec) (QCheck.make gen_string))
    (fun (spec, target) ->
      let line = Wire.spec_to_json ~target spec in
      (match Wire.spec_of_json line with
      | Ok spec' ->
          if not (Campaign.equal_spec spec spec') then
            QCheck.Test.fail_report "decoded spec differs"
      | Error m -> QCheck.Test.fail_report ("spec decode failed: " ^ m));
      (match Wire.target_of_json line with
      | Ok t when t = target -> ()
      | Ok t -> QCheck.Test.fail_report ("target mangled: " ^ t)
      | Error m -> QCheck.Test.fail_report ("target decode failed: " ^ m));
      true)

let prop_obs_roundtrip =
  QCheck.Test.make ~count:300 ~name:"run_obs round-trips" (arb gen_obs)
    (fun obs ->
      match Wire.obs_of_json (Wire.obs_to_json obs) with
      | Ok obs' -> obs = obs'
      | Error m -> QCheck.Test.fail_report ("obs decode failed: " ^ m))

let prop_failure_roundtrip =
  QCheck.Test.make ~count:300 ~name:"failure round-trips" (arb gen_failure)
    (fun f ->
      match Wire.failure_of_json (Wire.failure_to_json f) with
      | Ok f' -> f = f'
      | Error m -> QCheck.Test.fail_report ("failure decode failed: " ^ m))

let prop_row_roundtrip =
  QCheck.Test.make ~count:300 ~name:"row round-trips (tag dispatch)"
    (QCheck.make
       QCheck.Gen.(
         oneof
           [
             map (fun o -> Aggregate.Run o) gen_obs;
             map (fun f -> Aggregate.Failed f) gen_failure;
           ]))
    (fun row ->
      match Wire.row_of_json (Wire.row_to_json row) with
      | Ok row' -> row = row'
      | Error m -> QCheck.Test.fail_report ("row decode failed: " ^ m))

let prop_json_value_roundtrip =
  (* The JSON layer itself: print-then-parse is the identity on values
     the codecs produce (no NaN/infinity, ints distinct from floats). *)
  let gen_json =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              let leaf =
                oneof
                  [
                    return Wire.Null;
                    map (fun b -> Wire.Bool b) bool;
                    map (fun i -> Wire.Int i) int;
                    map (fun f -> Wire.Float f) gen_float;
                    map (fun s -> Wire.String s) gen_string;
                  ]
              in
              if n <= 0 then leaf
              else
                oneof
                  [
                    leaf;
                    map
                      (fun l -> Wire.List l)
                      (list_size (int_bound 4) (self (n / 2)));
                    map
                      (fun fields -> Wire.Obj fields)
                      (list_size (int_bound 4)
                         (pair gen_string (self (n / 2))));
                  ])
            (min n 6)))
  in
  QCheck.Test.make ~count:500 ~name:"json print/parse identity"
    (QCheck.make gen_json) (fun v ->
      match Wire.json_of_string (Wire.json_to_string v) with
      | Ok v' -> v = v'
      | Error m -> QCheck.Test.fail_report ("parse failed: " ^ m))

(* ---- schema-version and malformed-input rejection ---- *)

let test_future_version_rejected () =
  let check_rejected what = function
    | Error m ->
        Alcotest.(check bool)
          (what ^ " error mentions the schema version")
          true
          (contains_sub "version" m)
    | Ok _ -> Alcotest.failf "%s from the future was accepted" what
  in
  check_rejected "spec"
    (Wire.spec_of_json {|{"v":4,"t":"spec","target":"","spec":{}}|});
  check_rejected "obs" (Wire.obs_of_json {|{"v":99,"t":"run","obs":{}}|});
  check_rejected "row" (Wire.row_of_json {|{"v":4,"t":"run","obs":{}}|});
  (* A current-version line is still fine through the same path. *)
  let f = { Aggregate.f_index = 3; f_seed = 4; f_error = "boom" } in
  Alcotest.(check bool) "current version accepted" true
    (Wire.failure_of_json (Wire.failure_to_json f) = Ok f)

(* ---- cross-version compatibility (schema 1 <-> 2) ---- *)

(* A v1 run row as the first release wrote it: no "hb_fingerprint"
   field, and the "objects" list schema 3 dropped. *)
let v1_row =
  {|{"v":1,"t":"run","obs":{"index":3,"seed":91,"spec":"seed 91, quantum 17","repro":"--seed 91 --quantum 17","sightings":[{"object":"Account.amt","site_a":"a","site_b":"b","kinds":"write vs read"}],"objects":["Account.amt"],"fingerprint":123456789,"events":42,"steps":400,"wall":0.5}}|}

(* The v1 row must decode through the current decoder with
   [o_hb_fingerprint = None] and re-encode losslessly. *)
let test_v1_obs_row_decodes () =
  match Wire.obs_of_json v1_row with
  | Error m -> Alcotest.failf "v1 obs row rejected: %s" m
  | Ok o ->
      Alcotest.(check int) "index" 3 o.Aggregate.o_index;
      Alcotest.(check int) "fingerprint" 123456789 o.Aggregate.o_fingerprint;
      Alcotest.(check bool) "hb fingerprint absent means None" true
        (o.Aggregate.o_hb_fingerprint = None);
      Alcotest.(check int) "events" 42 o.Aggregate.o_events;
      (* Re-encoding a None-hb row omits the field, so the v1 payload
         survives the round-trip byte-unchanged (modulo the envelope
         version). *)
      Alcotest.(check bool) "round-trips through the current encoder" true
        (Wire.obs_of_json (Wire.obs_to_json o) = Ok o)

(* The field names of a run line's "obs" object. *)
let obs_keys line =
  match Wire.json_of_string line with
  | Ok j -> (
      match Wire.member "obs" j with
      | Some (Wire.Obj fields) -> List.map fst fields
      | _ -> Alcotest.failf "no obs object in %s" line)
  | Error m -> Alcotest.failf "bad line %s: %s" line m

(* Schema 3 dropped the run rows' racy-object names: the encoder writes
   no "objects" key, and a v1 or v2 row that has one still decodes, the
   field ignored like any unknown one. *)
let test_rows_carry_no_objects () =
  let o =
    {
      Aggregate.o_index = 0;
      o_seed = 1;
      o_spec = "s";
      o_repro = "-r";
      o_sightings =
        [
          {
            Aggregate.s_key = Aggregate.key ~obj:"G.x" ~site_a:"a" ~site_b:"b";
            s_kinds = "write vs write";
          };
        ];
      o_fingerprint = 7;
      o_hb_fingerprint = None;
      o_events = 1;
      o_steps = 10;
      o_wall = 0.1;
    }
  in
  Alcotest.(check bool) "encoded row has no objects key" false
    (List.mem "objects" (obs_keys (Wire.obs_to_json o)));
  Alcotest.(check bool) "the v1 fixture has one" true
    (List.mem "objects" (obs_keys v1_row));
  List.iter
    (fun v ->
      let row =
        Astring_contains.replace ~sub:{|{"v":1|} ~by:(Printf.sprintf {|{"v":%d|} v)
          v1_row
      in
      match Wire.obs_of_json row with
      | Ok o ->
          Alcotest.(check int) (Printf.sprintf "v%d row decodes" v) 3
            o.Aggregate.o_index;
          Alcotest.(check bool)
            (Printf.sprintf "v%d row re-encodes without objects" v)
            false
            (List.mem "objects" (obs_keys (Wire.obs_to_json o)))
      | Error m -> Alcotest.failf "v%d row with objects rejected: %s" v m)
    [ 1; 2 ]

(* The "seeds" strategy (an explicit seed list) went with the seed sweep
   that built it: a spec header naming it is an unknown strategy,
   whatever its version stamp. *)
let test_seeds_strategy_refused () =
  let line =
    Wire.spec_to_json ~target:"-b needle" (Campaign.default_spec H.Config.full)
  in
  let seeds =
    Astring_contains.replace ~sub:{|"strategy":{"kind":"jitter"}|}
      ~by:{|"strategy":{"kind":"seeds","seeds":[1,2,3]}|} line
  in
  Alcotest.(check bool) "rewrite names the seeds strategy" true
    (contains_sub {|"kind":"seeds"|} seeds);
  List.iter
    (fun v ->
      let header =
        Astring_contains.replace ~sub:{|{"v":3|} ~by:(Printf.sprintf {|{"v":%d|} v)
          seeds
      in
      match Wire.spec_of_json header with
      | Ok _ -> Alcotest.failf "v%d seeds header accepted" v
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "v%d refusal names the strategy: %s" v m)
            true
            (contains_sub "unknown strategy" m && contains_sub "seeds" m))
    [ 2; 3 ]

(* A v1 spec header (predating the "equiv" field) must decode as a
   raw-equivalence campaign. *)
let test_v1_spec_decodes_as_raw () =
  let spec =
    { (Campaign.default_spec H.Config.full) with Campaign.e_equiv = Campaign.Raw }
  in
  let v2_line = Wire.spec_to_json ~target:"-b needle" spec in
  (* Rewrite the current header into its v1 form: drop the equiv field
     and stamp the old version.  This is exactly what a v1 writer
     emitted for this spec. *)
  let v1_line =
    Astring_contains.replace ~sub:{|,"equiv":"raw"|} ~by:"" v2_line
    |> Astring_contains.replace ~sub:{|{"v":3|} ~by:{|{"v":1|}
  in
  Alcotest.(check bool) "rewrite removed the equiv field" false
    (contains_sub "equiv" v1_line);
  match Wire.spec_of_json v1_line with
  | Error m -> Alcotest.failf "v1 spec header rejected: %s" m
  | Ok spec' ->
      Alcotest.(check bool) "decodes equal to the raw-equivalence spec" true
        (Campaign.equal_spec spec spec')

(* The previous release's envelope check, frozen: it accepted only
   v = 1.  New rows must bounce off it with the future-version error —
   that error message (and the re-record advice) is the forward-compat
   contract for old readers in the field. *)
let frozen_v1_decode_line s =
  match Wire.json_of_string s with
  | Error m -> Error ("bad wire line: " ^ m)
  | Ok j -> (
      match Wire.member "v" j with
      | Some (Wire.Int 1) -> Ok j
      | Some (Wire.Int v) ->
          Error
            (Printf.sprintf
               "wire schema version %d not supported (this build reads \
                version 1); re-record the shard or upgrade"
               v)
      | _ -> Error "wire line has no schema version")

let test_v2_rows_rejected_by_frozen_v1_decoder () =
  let spec = Campaign.default_spec H.Config.full in
  let obs =
    {
      Aggregate.o_index = 0;
      o_seed = 1;
      o_spec = "s";
      o_repro = "-r";
      o_sightings = [];
      o_fingerprint = 7;
      o_hb_fingerprint = Some 9;
      o_events = 1;
      o_steps = 10;
      o_wall = 0.1;
    }
  in
  List.iter
    (fun (what, line) ->
      match frozen_v1_decode_line line with
      | Ok _ -> Alcotest.failf "frozen v1 decoder accepted a v3 %s" what
      | Error m ->
          Alcotest.(check bool)
            (what ^ " rejection names the version") true
            (contains_sub "version 3" m))
    [
      ("spec header", Wire.spec_to_json ~target:"" spec);
      ("run row", Wire.obs_to_json obs);
      ( "failure row",
        Wire.failure_to_json
          { Aggregate.f_index = 0; f_seed = 1; f_error = "x" } );
    ]

let test_malformed_rejected () =
  let bad s =
    match Wire.row_of_json s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed line %S" s
  in
  bad "";
  bad "not json";
  bad "{\"v\":1}";
  bad {|{"v":1,"t":"spec","target":"x","spec":{}}|};
  (* wrong tag for row *)
  bad {|{"v":1,"t":"run"}|};
  (* missing body *)
  bad {|{"v":1,"t":"run","obs":{"index":1}} trailing|};
  match Wire.json_of_string "{\"a\":1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unterminated object"

let test_unicode_escapes () =
  Alcotest.(check bool) "BMP escape decodes to UTF-8" true
    (Wire.json_of_string "\"\\u20AC\"" = Ok (Wire.String "\xe2\x82\xac"));
  (* A surrogate pair is ONE supplementary code point (4-byte UTF-8),
     not two 3-byte CESU-8 sequences. *)
  Alcotest.(check bool) "surrogate pair combines (U+1F600)" true
    (Wire.json_of_string "\"\\uD83D\\uDE00\""
    = Ok (Wire.String "\xf0\x9f\x98\x80"));
  let rejected what s =
    match Wire.json_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s: %s" what s
  in
  rejected "lone high surrogate" "\"\\uD83D\"";
  rejected "high surrogate then plain text" "\"\\uD83D rest\"";
  rejected "lone low surrogate" "\"\\uDE00\"";
  rejected "high surrogate then non-surrogate escape" "\"\\uD83D\\u0041\""

let test_nonfinite_floats_rejected_at_encode () =
  (* "%g" would print "nan"/"inf" — invalid JSON that fails to re-parse
     and poisons a shard file; the encoder must refuse instead. *)
  let raises what v =
    match Wire.json_to_string v with
    | exception Invalid_argument _ -> ()
    | s -> Alcotest.failf "encoded %s as %s" what s
  in
  raises "nan" (Wire.Float Float.nan);
  raises "inf" (Wire.Float Float.infinity);
  raises "-inf" (Wire.Float Float.neg_infinity);
  raises "nested nan" (Wire.Obj [ ("wall", Wire.Float Float.nan) ])

let test_int_float_distinction () =
  Alcotest.(check bool) "int parses as Int" true
    (Wire.json_of_string "42" = Ok (Wire.Int 42));
  Alcotest.(check bool) "1.0 parses as Float" true
    (Wire.json_of_string "1.0" = Ok (Wire.Float 1.0));
  Alcotest.(check bool) "1e3 parses as Float" true
    (Wire.json_of_string "1e3" = Ok (Wire.Float 1000.0));
  Alcotest.(check string) "integral float keeps .0" "1.0"
    (Wire.json_to_string (Wire.Float 1.0))

(* ---- whole files through channels ---- *)

let test_channel_roundtrip () =
  let spec = Campaign.default_spec H.Config.full in
  let rows =
    [
      Aggregate.Run
        {
          Aggregate.o_index = 0;
          o_seed = 42;
          o_spec = "seed 42, quantum 20";
          o_repro = "--seed 42";
          o_sightings =
            [
              {
                Aggregate.s_key =
                  Aggregate.key ~obj:"G.data[]" ~site_a:"a" ~site_b:"b";
                s_kinds = "write vs read";
              };
            ];
          o_fingerprint = 123456;
          o_hb_fingerprint = Some 654321;
          o_events = 10;
          o_steps = 100;
          o_wall = 0.25;
        };
      Aggregate.Failed { Aggregate.f_index = 1; f_seed = 7; f_error = "kaboom" };
    ]
  in
  let path = Filename.temp_file "drd_wire" ".obs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Wire.write_obs_channel oc ~target:"-b needle" spec rows;
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Wire.read_obs_channel ic with
          | Error m -> Alcotest.failf "read back failed: %s" m
          | Ok (spec', target', rows') ->
              Alcotest.(check bool) "spec" true
                (Campaign.equal_spec spec spec');
              Alcotest.(check string) "target" "-b needle" target';
              Alcotest.(check bool) "rows" true (rows = rows')))

let test_channel_errors_carry_line_numbers () =
  let spec = Campaign.default_spec H.Config.full in
  let path = Filename.temp_file "drd_wire" ".obs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Wire.spec_to_json ~target:"x" spec);
      output_string oc "\n{\"v\":1,\"t\":\"run\"}\n";
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Wire.read_obs_channel ic with
          | Ok _ -> Alcotest.fail "accepted a broken row"
          | Error m ->
              Alcotest.(check bool) "error names line 2" true
                (contains_sub "line 2" m)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_spec_roundtrip;
      prop_obs_roundtrip;
      prop_failure_roundtrip;
      prop_row_roundtrip;
      prop_json_value_roundtrip;
    ]
  @ [
      Alcotest.test_case "future schema version rejected" `Quick
        test_future_version_rejected;
      Alcotest.test_case "v1 obs rows decode (no hb field)" `Quick
        test_v1_obs_row_decodes;
      Alcotest.test_case "v1 spec headers decode as raw equivalence" `Quick
        test_v1_spec_decodes_as_raw;
      Alcotest.test_case "v2 rows bounce off a frozen v1 decoder" `Quick
        test_v2_rows_rejected_by_frozen_v1_decoder;
      Alcotest.test_case "run rows carry no objects field" `Quick
        test_rows_carry_no_objects;
      Alcotest.test_case "seeds strategy headers refused" `Quick
        test_seeds_strategy_refused;
      Alcotest.test_case "malformed lines rejected" `Quick
        test_malformed_rejected;
      Alcotest.test_case "int/float distinction" `Quick
        test_int_float_distinction;
      Alcotest.test_case "unicode escapes (surrogate pairs)" `Quick
        test_unicode_escapes;
      Alcotest.test_case "non-finite floats rejected at encode" `Quick
        test_nonfinite_floats_rejected_at_encode;
      Alcotest.test_case "observation files round-trip" `Quick
        test_channel_roundtrip;
      Alcotest.test_case "read errors carry line numbers" `Quick
        test_channel_errors_carry_line_numbers;
    ]
