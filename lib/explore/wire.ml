(* The versioned JSON-lines wire format for sharded campaigns: the
   campaign spec (header), run observations and failure rows.

   No JSON library ships in the sealed environment, so the module
   carries its own minimal JSON value with a deterministic printer and
   a recursive-descent parser.  Determinism matters: merged reports
   must be byte-identical to single-process ones, so object fields are
   printed in construction order and floats with the shortest
   representation that parses back to the same double. *)

module Config = Drd_harness.Config
module Interp = Drd_vm.Interp
module Memloc = Drd_vm.Memloc

(* Version history:
   1 — initial format (spec without equiv mode, obs without hb field).
   2 — spec carries "equiv", run obs optionally carry "hb_fingerprint".
   3 — run obs no longer carry "objects"; the "seeds" strategy is gone.
   All three are decoded: a missing equiv field means Raw, a missing hb
   field means None, exactly the semantics v1 writers had, and an
   "objects" field on a v1 or v2 row is ignored like any unknown
   field. *)
let schema_version = 3
let min_schema_version = 1

(* ------------------------------------------------------------------ *)
(* JSON values *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Shortest decimal rendering that parses back to the same double; the
   ".0" suffix keeps integral floats distinct from Ints on re-parse.
   JSON has no encoding for NaN/infinity ("%g" would print "nan"/"inf",
   which fails to re-parse and poisons the shard file), so non-finite
   values are an encode-time error rather than a corrupt line. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg
      (Printf.sprintf
         "Wire.json_to_string: non-finite float %h has no JSON encoding" f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let json_to_buffer b v =
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            go x)
          fields;
        Buffer.add_char b '}'
  in
  go v

let json_to_string v =
  let b = Buffer.create 256 in
  json_to_buffer b v;
  Buffer.contents b

exception Parse of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected '%c' at offset %d, found '%c'" c !pos c'
    | None -> fail "expected '%c' at offset %d, found end of input" c !pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  (* UTF-8 encode a code point (BMP or, via a surrogate pair,
     supplementary plane) from \uXXXX escapes. *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             let hex4 () =
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               pos := !pos + 4;
               try int_of_string ("0x" ^ hex)
               with _ -> fail "bad \\u escape \\u%s" hex
             in
             let cp = hex4 () in
             if cp >= 0xD800 && cp <= 0xDBFF then begin
               (* A high surrogate is only half a code point: it must
                  pair with a following \u low surrogate, the two
                  combining into one supplementary-plane code point
                  (emitting them separately would produce CESU-8, not
                  UTF-8). *)
               if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
               then
                 fail "high surrogate \\u%04X not followed by \\u escape" cp;
               pos := !pos + 2;
               let lo = hex4 () in
               if lo < 0xDC00 || lo > 0xDFFF then
                 fail "high surrogate \\u%04X followed by \\u%04X (not a low \
                       surrogate)"
                   cp lo;
               add_utf8 b
                 (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
             end
             else if cp >= 0xDC00 && cp <= 0xDFFF then
               fail "lone low surrogate \\u%04X" cp
             else add_utf8 b cp
         | e -> fail "bad escape '\\%c'" e);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number %S" tok
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "bad number %S" tok
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          elements ();
          List (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character '%c' at offset %d" c !pos
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse m -> Error m

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ---- decode combinators (exception-based internally, result at the
   API boundary) ---- *)

exception Decode of string

let dfail fmt = Printf.ksprintf (fun m -> raise (Decode m)) fmt

let field k j =
  match member k j with
  | Some v -> v
  | None -> dfail "missing field %S" k

let d_int k j =
  match field k j with Int n -> n | _ -> dfail "field %S: expected int" k

let d_float k j =
  (* Integral floats may have been printed by an older hand that wrote
     them bare; accept Int where a float is expected. *)
  match field k j with
  | Float f -> f
  | Int n -> float_of_int n
  | _ -> dfail "field %S: expected number" k

let d_bool k j =
  match field k j with Bool b -> b | _ -> dfail "field %S: expected bool" k

let d_string k j =
  match field k j with
  | String s -> s
  | _ -> dfail "field %S: expected string" k

let d_list k j =
  match field k j with List l -> l | _ -> dfail "field %S: expected list" k

let d_opt conv k j =
  match member k j with
  | None | Some Null -> None
  | Some _ -> Some (conv k j)

(* ------------------------------------------------------------------ *)
(* Domain codecs *)

let policy_to_json = function
  | Interp.Random_walk -> Obj [ ("kind", String "random_walk") ]
  | Interp.Pct { depth; horizon } ->
      Obj
        [ ("kind", String "pct"); ("depth", Int depth); ("horizon", Int horizon) ]

let policy_of_json j =
  match d_string "kind" j with
  | "random_walk" -> Interp.Random_walk
  | "pct" -> Interp.Pct { depth = d_int "depth" j; horizon = d_int "horizon" j }
  | k -> dfail "unknown scheduling policy %S" k

let granularity_to_json = function
  | Memloc.Per_field -> String "per_field"
  | Memloc.Per_object -> String "per_object"

let granularity_of_json = function
  | String "per_field" -> Memloc.Per_field
  | String "per_object" -> Memloc.Per_object
  | _ -> dfail "bad granularity"

let detector_to_json = function
  | Config.Ours -> String "ours"
  | Config.Eraser -> String "eraser"
  | Config.ObjRace -> String "objrace"
  | Config.HappensBefore -> String "happens_before"
  | Config.NoDetect -> String "nodetect"

let detector_of_json = function
  | String "ours" -> Config.Ours
  | String "eraser" -> Config.Eraser
  | String "objrace" -> Config.ObjRace
  | String "happens_before" -> Config.HappensBefore
  | String "nodetect" -> Config.NoDetect
  | _ -> dfail "bad detector"

let config_to_json (c : Config.t) =
  Obj
    [
      ("name", String c.Config.name);
      ("static_analysis", Bool c.Config.static_analysis);
      ("weaker_elim", Bool c.Config.weaker_elim);
      ("loop_peel", Bool c.Config.loop_peel);
      ("use_cache", Bool c.Config.use_cache);
      ("use_ownership", Bool c.Config.use_ownership);
      ("granularity", granularity_to_json c.Config.granularity);
      ("detector", detector_to_json c.Config.detector);
      ("pseudo_locks", Bool c.Config.pseudo_locks);
      ("ir_optimize", Bool c.Config.ir_optimize);
      ("seed", Int c.Config.seed);
      ("quantum", Int c.Config.quantum);
      ("policy", policy_to_json c.Config.policy);
    ]

let config_of_json j =
  {
    Config.name = d_string "name" j;
    static_analysis = d_bool "static_analysis" j;
    weaker_elim = d_bool "weaker_elim" j;
    loop_peel = d_bool "loop_peel" j;
    use_cache = d_bool "use_cache" j;
    use_ownership = d_bool "use_ownership" j;
    granularity = granularity_of_json (field "granularity" j);
    detector = detector_of_json (field "detector" j);
    pseudo_locks = d_bool "pseudo_locks" j;
    ir_optimize = d_bool "ir_optimize" j;
    seed = d_int "seed" j;
    quantum = d_int "quantum" j;
    policy = policy_of_json (field "policy" j);
  }

let strategy_to_json = function
  | Strategy.Sweep -> Obj [ ("kind", String "sweep") ]
  | Strategy.Jitter -> Obj [ ("kind", String "jitter") ]
  | Strategy.Pct depth -> Obj [ ("kind", String "pct"); ("depth", Int depth) ]

let strategy_of_json j =
  match d_string "kind" j with
  | "sweep" -> Strategy.Sweep
  | "jitter" -> Strategy.Jitter
  | "pct" -> Strategy.Pct (d_int "depth" j)
  | k -> dfail "unknown strategy %S" k

let budget_to_json (b : Campaign.budget) =
  Obj
    [
      ("runs", Int b.Campaign.b_runs);
      ( "seconds",
        match b.Campaign.b_seconds with Some s -> Float s | None -> Null );
      ( "plateau",
        match b.Campaign.b_plateau with Some k -> Int k | None -> Null );
    ]

let budget_of_json j =
  {
    Campaign.b_runs = d_int "runs" j;
    b_seconds = d_opt d_float "seconds" j;
    b_plateau = d_opt d_int "plateau" j;
  }

let spec_body_to_json (s : Campaign.spec) =
  Obj
    [
      ("config", config_to_json s.Campaign.e_config);
      ("strategy", strategy_to_json s.Campaign.e_strategy);
      ("workers", Int s.Campaign.e_workers);
      ("budget", budget_to_json s.Campaign.e_budget);
      ("pct_horizon", Int s.Campaign.e_pct_horizon);
      ("equiv", String (Campaign.equiv_name s.Campaign.e_equiv));
    ]

let spec_body_of_json j =
  {
    Campaign.e_config = config_of_json (field "config" j);
    e_strategy = strategy_of_json (field "strategy" j);
    e_workers = d_int "workers" j;
    e_budget = budget_of_json (field "budget" j);
    e_pct_horizon = d_int "pct_horizon" j;
    e_equiv =
      (* Absent on v1 spec headers, which predate equivalence modes and
         always meant raw. *)
      (match member "equiv" j with
      | None -> Campaign.Raw
      | Some (String s) -> (
          match Campaign.equiv_of_string s with
          | Ok e -> e
          | Error m -> dfail "%s" m)
      | Some _ -> dfail "field \"equiv\": expected string");
  }

let sighting_to_json (s : Aggregate.sighting) =
  Obj
    [
      ("object", String s.Aggregate.s_key.Aggregate.k_object);
      ("site_a", String s.Aggregate.s_key.Aggregate.k_site_a);
      ("site_b", String s.Aggregate.s_key.Aggregate.k_site_b);
      ("kinds", String s.Aggregate.s_kinds);
    ]

(* Encoded keys are already normalized and site-sorted; Aggregate.key is
   idempotent on them, so decoding through it is exact. *)
let sighting_of_json j =
  {
    Aggregate.s_key =
      Aggregate.key ~obj:(d_string "object" j) ~site_a:(d_string "site_a" j)
        ~site_b:(d_string "site_b" j);
    s_kinds = d_string "kinds" j;
  }

let obs_body_to_json (o : Aggregate.run_obs) =
  Obj
    ([
       ("index", Int o.Aggregate.o_index);
       ("seed", Int o.Aggregate.o_seed);
       ("spec", String o.Aggregate.o_spec);
       ("repro", String o.Aggregate.o_repro);
       ("sightings", List (List.map sighting_to_json o.Aggregate.o_sightings));
       ("fingerprint", Int o.Aggregate.o_fingerprint);
     ]
    @ (match o.Aggregate.o_hb_fingerprint with
      | Some hb -> [ ("hb_fingerprint", Int hb) ]
      | None -> [])
    @ [
        ("events", Int o.Aggregate.o_events);
        ("steps", Int o.Aggregate.o_steps);
        ("wall", Float o.Aggregate.o_wall);
      ])

let obs_body_of_json j =
  {
    Aggregate.o_index = d_int "index" j;
    o_seed = d_int "seed" j;
    o_spec = d_string "spec" j;
    o_repro = d_string "repro" j;
    o_sightings = d_list "sightings" j |> List.map sighting_of_json;
    o_fingerprint = d_int "fingerprint" j;
    (* Absent on v1 rows and on raw-equivalence campaigns. *)
    o_hb_fingerprint = d_opt d_int "hb_fingerprint" j;
    o_events = d_int "events" j;
    o_steps = d_int "steps" j;
    o_wall = d_float "wall" j;
  }

let failure_body_to_json (f : Aggregate.failure) =
  Obj
    [
      ("index", Int f.Aggregate.f_index);
      ("seed", Int f.Aggregate.f_seed);
      ("error", String f.Aggregate.f_error);
    ]

let failure_body_of_json j =
  {
    Aggregate.f_index = d_int "index" j;
    f_seed = d_int "seed" j;
    f_error = d_string "error" j;
  }

(* ------------------------------------------------------------------ *)
(* Envelopes: every line carries the schema version and a type tag. *)

let line_to_buffer b tag fields =
  json_to_buffer b
    (Obj (("v", Int schema_version) :: ("t", String tag) :: fields))

let line tag fields =
  let b = Buffer.create 256 in
  line_to_buffer b tag fields;
  Buffer.contents b

let decode_line expected_tags s =
  match json_of_string s with
  | Error m -> Error ("bad wire line: " ^ m)
  | Ok j -> (
      match member "v" j with
      | Some (Int v) when v >= min_schema_version && v <= schema_version -> (
          match member "t" j with
          | Some (String t) when List.mem t expected_tags -> Ok (t, j)
          | Some (String t) ->
              Error
                (Printf.sprintf "unexpected wire line type %S (wanted %s)" t
                   (String.concat "|" expected_tags))
          | _ -> Error "wire line has no type tag")
      | Some (Int v) ->
          Error
            (Printf.sprintf
               "wire schema version %d not supported (this build reads \
                versions %d-%d); re-record the shard or upgrade"
               v min_schema_version schema_version)
      | _ -> Error "wire line has no schema version")

let wrap f = try Ok (f ()) with Decode m -> Error m

let spec_to_json ?(target = "") spec =
  line "spec" [ ("target", String target); ("spec", spec_body_to_json spec) ]

let spec_of_json s =
  Result.bind (decode_line [ "spec" ] s) (fun (_, j) ->
      wrap (fun () -> spec_body_of_json (field "spec" j)))

let target_of_json s =
  Result.bind (decode_line [ "spec" ] s) (fun (_, j) ->
      Ok (match member "target" j with Some (String t) -> t | _ -> ""))

let obs_to_json o = line "run" [ ("obs", obs_body_to_json o) ]

let obs_of_json s =
  Result.bind (decode_line [ "run" ] s) (fun (_, j) ->
      wrap (fun () -> obs_body_of_json (field "obs" j)))

let failure_to_json f = line "failure" [ ("failure", failure_body_to_json f) ]

let failure_of_json s =
  Result.bind (decode_line [ "failure" ] s) (fun (_, j) ->
      wrap (fun () -> failure_body_of_json (field "failure" j)))

let row_to_json = function
  | Aggregate.Run o -> obs_to_json o
  | Aggregate.Failed f -> failure_to_json f

(* The pool workers' hand-off path: serialize into a reusable
   domain-local scratch buffer instead of allocating a fresh one per
   row.  Byte-identical to {!row_to_json} by construction — both funnel
   through {!line_to_buffer}. *)
let row_to_buffer b = function
  | Aggregate.Run o -> line_to_buffer b "run" [ ("obs", obs_body_to_json o) ]
  | Aggregate.Failed f ->
      line_to_buffer b "failure" [ ("failure", failure_body_to_json f) ]

let row_of_json s =
  Result.bind (decode_line [ "run"; "failure" ] s) (fun (t, j) ->
      wrap (fun () ->
          match t with
          | "run" -> Aggregate.Run (obs_body_of_json (field "obs" j))
          | _ -> Aggregate.Failed (failure_body_of_json (field "failure" j))))

(* ------------------------------------------------------------------ *)
(* Whole observation files *)

let write_obs_channel oc ?target spec rows =
  output_string oc (spec_to_json ?target spec);
  output_char oc '\n';
  List.iter
    (fun row ->
      output_string oc (row_to_json row);
      output_char oc '\n')
    rows

let row_of_line = row_of_json

let fold_obs_channel ic ~init ~row =
  let err lineno m = Error (Printf.sprintf "line %d: %s" lineno m) in
  let rec fold_rows lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok acc
    | "" -> fold_rows (lineno + 1) acc
    | l -> (
        match row_of_line l with
        | Ok r -> fold_rows (lineno + 1) (row acc r)
        | Error m -> err lineno m)
  in
  match input_line ic with
  | exception End_of_file -> Error "empty observation file (no spec header)"
  | header -> (
      match spec_of_json header with
      | Error m -> err 1 m
      | Ok spec -> (
          let target =
            match target_of_json header with Ok t -> t | Error _ -> ""
          in
          match fold_rows 2 init with
          | Ok acc -> Ok (spec, target, acc)
          | Error m -> Error m))

let read_obs_channel ic =
  match
    fold_obs_channel ic ~init:[] ~row:(fun acc r -> r :: acc)
  with
  | Ok (spec, target, rev_rows) -> Ok (spec, target, List.rev rev_rows)
  | Error _ as e -> e
