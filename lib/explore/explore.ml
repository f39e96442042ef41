module Pipeline = Drd_harness.Pipeline
module Config = Drd_harness.Config
module Registry = Drd_harness.Registry
module Interp = Drd_vm.Interp
module Sink = Drd_vm.Sink
module Memloc = Drd_vm.Memloc
module Site_table = Drd_ir.Site_table
module Ir = Drd_ir.Ir
open Drd_core

(* ---- the campaign description (re-exported from Campaign) ---- *)

type budget = Campaign.budget = {
  b_runs : int;
  b_seconds : float option;
  b_plateau : int option;
}

let budget = Campaign.budget
let runs_budget = Campaign.runs_budget
let equal_budget = Campaign.equal_budget
let pp_budget = Campaign.pp_budget

type equiv = Campaign.equiv = Raw | Hb

let equiv_name = Campaign.equiv_name
let equiv_of_string = Campaign.equiv_of_string

type spec = Campaign.spec = {
  e_config : Config.t;
  e_strategy : Strategy.t;
  e_workers : int;
  e_budget : budget;
  e_pct_horizon : int;
  e_equiv : equiv;
}

let spec = Campaign.spec
let default_spec = Campaign.default_spec
let equal_spec = Campaign.equal_spec
let compatible = Campaign.compatible
let pp_spec = Campaign.pp_spec

type report = {
  r_spec : spec;
  r_races : Aggregate.deduped list;
  r_failures : Aggregate.failure list;
  r_obs : Aggregate.run_obs list;
  r_stats : Aggregate.stats;
  r_wall : float; (* campaign wall clock, compiles included *)
}

let runs_per_sec r =
  float_of_int r.r_stats.Aggregate.st_runs /. Float.max r.r_wall 1e-9

let events_per_sec r =
  float_of_int r.r_stats.Aggregate.st_events /. Float.max r.r_wall 1e-9

let events_per_sec_per_worker r =
  events_per_sec r /. float_of_int (max r.r_spec.e_workers 1)

(* ---- single run ---- *)

(* A raw interleaving fingerprint: an order-sensitive FNV-1a-style hash
   of the event stream (thread, location, kind per access, plus lock and
   lifecycle transitions).  Two runs with the same fingerprint consumed
   the same detector-visible schedule.  The constants — and the 46-bit
   wire-int-safety rationale for the mask — live in Sink, shared with
   the happens-before tap.  This tap is the reference definition: a
   campaign reads the same value from [Pipeline.result.fingerprint],
   which every run folds itself, and the golden suite checks the two
   agree. *)
let fingerprint_tap () =
  let fp = ref Sink.fnv_offset in
  let mixin v = fp := Sink.mix !fp v in
  let tap =
    {
      Sink.null with
      Sink.access =
        (fun ~tid ~loc ~kind ~locks:_ ~site:_ ->
          mixin tid;
          mixin loc;
          mixin (match kind with Event.Read -> 17 | Event.Write -> 23));
      acquire =
        (fun ~tid ~lock ->
          mixin (tid + 101);
          mixin lock);
      release =
        (fun ~tid ~lock ->
          mixin (tid + 211);
          mixin lock);
      thread_start = (fun ~parent ~child -> mixin ((parent * 31) + child));
    }
  in
  (tap, fun () -> !fp)

(* Constant strings: this runs once per sighting per run in the
   campaign hot loop, so no formatting machinery. *)
let kinds_of (race : Report.race) =
  match (race.Report.current.Event.kind, race.Report.prior.Trie.p_kind) with
  | Event.Read, Event.Read -> "read vs read"
  | Event.Read, Event.Write -> "read vs write"
  | Event.Write, Event.Read -> "write vs read"
  | Event.Write, Event.Write -> "write vs write"

let site_name (c : Pipeline.compiled) s =
  if s < 0 || s >= Site_table.count c.Pipeline.prog.Ir.p_sites then "<unknown>"
  else Site_table.name c.Pipeline.prog.Ir.p_sites s

let sightings_of (c : Pipeline.compiled) (r : Pipeline.result) =
  match r.Pipeline.report with
  | Some coll ->
      List.map
        (fun (race : Report.race) ->
          let obj =
            Memloc.describe c.Pipeline.prog.Ir.p_tprog r.Pipeline.heap
              race.Report.loc
          in
          {
            Aggregate.s_key =
              Aggregate.key ~obj
                ~site_a:(site_name c race.Report.current.Event.site)
                ~site_b:(site_name c race.Report.prior.Trie.p_site);
            s_kinds = kinds_of race;
          })
        (Report.races coll)
  | None ->
      (* Baseline detectors report locations only. *)
      List.map
        (fun loc ->
          {
            Aggregate.s_key = Aggregate.key ~obj:loc ~site_a:"" ~site_b:"";
            s_kinds = "";
          })
        r.Pipeline.races

let vm_of (c : Pipeline.compiled) (sp : Strategy.run_spec) =
  {
    (Pipeline.vm_config_of c.Pipeline.config) with
    Interp.seed = sp.Strategy.sp_seed;
    quantum = sp.Strategy.sp_quantum;
    policy = sp.Strategy.sp_policy;
  }

let observe_run ?ctx (c : Pipeline.compiled) (sp : Strategy.run_spec) :
    Aggregate.run_obs =
  let vm = vm_of c sp in
  let r = Pipeline.run ?ctx ~vm c in
  {
    Aggregate.o_index = sp.Strategy.sp_index;
    o_seed = sp.Strategy.sp_seed;
    o_spec = Strategy.describe sp;
    o_repro = Strategy.repro_flags sp;
    o_sightings = sightings_of c r;
    o_fingerprint = r.Pipeline.fingerprint;
    o_hb_fingerprint = None;
    o_events = r.Pipeline.events;
    o_steps = r.Pipeline.steps;
    o_wall = r.Pipeline.wall_time;
  }

(* ---- happens-before replay pruning ----

   Under hb equivalence each run is fingerprinted first with the
   detector off (same instrumented program, so the same schedule —
   see Pipeline.run's [?detect]); the detector replays only schedules
   whose happens-before class is new to this process.  For a known
   class the representative's sightings are reused: equivalent
   schedules present identical per-location access orders and locksets
   to the detector, so its report is identical too — which is what
   keeps a pruned campaign's deduped races equal to an unpruned one's.

   The cache is best-effort, and each pool worker keeps a {e
   domain-local} shard of it — lookups and stores in the run hot loop
   touch no lock at all.  Workers trade discoveries through a shared
   append-only journal at batch boundaries ({!seen_sync}: one critical
   section per claimed chunk), so a class replayed by one worker is
   pruned by the others a chunk later.  Two workers can still replay a
   class they discovered concurrently, and shards each start cold.
   That only costs duplicate work, never changes a report: equivalent
   schedules produce identical sightings, and the authoritative
   pruned/class statistics are re-derived deterministically from the
   recorded hb fingerprints by the Aggregate fold. *)

type seen_classes = {
  sn_tbl : (int, Aggregate.sighting list) Hashtbl.t;
      (* domain-local: lock-free *)
  mutable sn_fresh : (int * Aggregate.sighting list) list;
      (* locally discovered since the last sync, newest first *)
  mutable sn_cursor : int; (* journal read position *)
}

let seen_make () =
  { sn_tbl = Hashtbl.create 64; sn_fresh = []; sn_cursor = 0 }

(* Batch-boundary exchange: publish local discoveries, absorb foreign
   ones.  The cursor lands past our own entries, so nothing is read
   back. *)
let seen_sync journal seen =
  let publish = List.rev seen.sn_fresh in
  seen.sn_fresh <- [];
  let news, cursor = Pool.exchange journal ~cursor:seen.sn_cursor ~publish in
  seen.sn_cursor <- cursor;
  List.iter
    (fun (hb, rep) ->
      if not (Hashtbl.mem seen.sn_tbl hb) then Hashtbl.add seen.sn_tbl hb rep)
    news

let observe_run_hb ?ctx (c : Pipeline.compiled) (sp : Strategy.run_spec) ~seen :
    Aggregate.run_obs =
  let vm = vm_of c sp in
  let hb_tap, hb_fp = Hb_fingerprint.tap () in
  let r1 = Pipeline.run ?ctx ~vm ~tap:hb_tap ~detect:false c in
  let hb = hb_fp () in
  let sightings, wall =
    match Hashtbl.find_opt seen.sn_tbl hb with
    | Some sightings -> (sightings, r1.Pipeline.wall_time)
    | None ->
        let r2 = Pipeline.run ?ctx ~vm c in
        let sightings = sightings_of c r2 in
        Hashtbl.add seen.sn_tbl hb sightings;
        seen.sn_fresh <- (hb, sightings) :: seen.sn_fresh;
        (sightings, r1.Pipeline.wall_time +. r2.Pipeline.wall_time)
  in
  {
    Aggregate.o_index = sp.Strategy.sp_index;
    o_seed = sp.Strategy.sp_seed;
    o_spec = Strategy.describe sp;
    o_repro = Strategy.repro_flags sp;
    o_sightings = sightings;
    o_fingerprint = r1.Pipeline.fingerprint;
    o_hb_fingerprint = Some hb;
    o_events = r1.Pipeline.events;
    o_steps = r1.Pipeline.steps;
    o_wall = wall;
  }

(* ---- folding rows into a report ---- *)

let report_of_rows ?(wall = 0.) ?(deadline_hit = false) ?(apply_plateau = true)
    (sp : spec) rows : report =
  let plateau = if apply_plateau then sp.e_budget.b_plateau else None in
  let agg = Aggregate.create ?plateau ~hb:(sp.e_equiv = Hb) () in
  if deadline_hit then Aggregate.note_deadline agg;
  (* Folded in run-index order (add_rows sorts) so first-seen
     attribution, the discovery curve and the plateau cutoff do not
     depend on worker interleaving or on how rows were distributed over
     shard files. *)
  Aggregate.add_rows agg rows;
  {
    r_spec = sp;
    r_races = Aggregate.races agg;
    r_failures = Aggregate.failures agg;
    r_obs = Aggregate.observations agg;
    r_stats = Aggregate.stats agg;
    r_wall = wall;
  }

let merge sp rows = report_of_rows sp rows

(* Run indices the campaign's deterministic index range owns but [rows]
   do not cover — at merge time, evidence of an incomplete shard set.
   Negative indices (out-of-range markers from older recorders) are
   ignored. *)
let missing_indices (sp : spec) rows =
  let present = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let i = Aggregate.row_index row in
      if i >= 0 then Hashtbl.replace present i ())
    rows;
  List.init sp.e_budget.b_runs Fun.id
  |> List.filter (fun i -> not (Hashtbl.mem present i))

type shard_refusal = Duplicate_index of int | Missing_indices of int list

(* Whether rows gathered from shards (or one stream) may be folded as
   campaign [sp].  A run index in two rows would double-count sightings;
   compile failures (index -1) are per-shard and exempt.  Gaps under a
   purely runs-based budget mean a missing shard or a truncated stream;
   under a wall-clock or plateau budget runs legitimately never
   executed, so the gaps come back for the caller to warn about. *)
let check_shard_set (sp : spec) rows =
  let seen = Hashtbl.create 64 in
  let dup =
    List.find_opt
      (fun row ->
        let i = Aggregate.row_index row in
        if i < 0 then false
        else if Hashtbl.mem seen i then true
        else begin
          Hashtbl.add seen i ();
          false
        end)
      rows
  in
  match dup with
  | Some row -> Error (Duplicate_index (Aggregate.row_index row))
  | None -> (
      let missing = missing_indices sp rows in
      let b = sp.e_budget in
      match missing with
      | _ :: _ when b.b_seconds = None && b.b_plateau = None ->
          Error (Missing_indices missing)
      | _ -> Ok missing)

let rows_of_report r =
  List.sort
    (fun a b -> compare (Aggregate.row_index a) (Aggregate.row_index b))
    (List.map (fun o -> Aggregate.Run o) r.r_obs
    @ List.map (fun f -> Aggregate.Failed f) r.r_failures)

(* ---- the online plateau tracker ----

   The authoritative plateau cutoff is the Aggregate fold above (a
   deterministic function of the row sequence); this tracker only stops
   workers from *claiming* further chunks once the window has visibly
   tripped.  It replays completions in claim-ordinal order through a
   reorder buffer — one note per completed chunk, carrying the race-key
   list of each run in the chunk, so the quiet window still advances
   per run.  Its verdict matches the fold's for the runs it has seen;
   any overshoot rows the workers were already executing (up to a chunk
   per worker) are discarded by the fold.  A chunk abandoned mid-flight
   (deadline, or the stop flag tripping) is never noted — safe, because
   a worker only abandons after the stop decision is already made, at
   which point the reorder buffer has no further job. *)

type tracker = {
  tk_window : int;
  tk_mu : Mutex.t;
  tk_seen : (Aggregate.race_key, unit) Hashtbl.t;
  tk_pending : (int, Aggregate.race_key list list) Hashtbl.t;
  mutable tk_next : int;
  mutable tk_quiet : int;
  mutable tk_stop : bool;
}

let tracker_make window =
  {
    tk_window = window;
    tk_mu = Mutex.create ();
    tk_seen = Hashtbl.create 16;
    tk_pending = Hashtbl.create 16;
    tk_next = 0;
    tk_quiet = 0;
    tk_stop = false;
  }

let tracker_stopped = function None -> false | Some t -> t.tk_stop

(* [run_keys] holds one race-key list per run of chunk [ordinal], in
   run order. *)
let tracker_note tracker ordinal run_keys =
  match tracker with
  | None -> ()
  | Some t ->
      Mutex.lock t.tk_mu;
      Hashtbl.replace t.tk_pending ordinal run_keys;
      let note_run keys =
        let fresh =
          List.exists (fun k -> not (Hashtbl.mem t.tk_seen k)) keys
        in
        List.iter
          (fun k ->
            if not (Hashtbl.mem t.tk_seen k) then Hashtbl.add t.tk_seen k ())
          keys;
        if fresh then t.tk_quiet <- 0 else t.tk_quiet <- t.tk_quiet + 1;
        if t.tk_quiet >= t.tk_window then t.tk_stop <- true
      in
      let rec drain () =
        match Hashtbl.find_opt t.tk_pending t.tk_next with
        | None -> ()
        | Some runs ->
            Hashtbl.remove t.tk_pending t.tk_next;
            t.tk_next <- t.tk_next + 1;
            List.iter note_run runs;
            drain ()
      in
      drain ();
      Mutex.unlock t.tk_mu

(* ---- the parallel campaign runner ----

   Executed on a persistent worker-domain pool (Pool): domains are
   spawned once for the whole campaign (the calling domain is worker 0),
   claim *chunks* of work ordinals from a batched queue — one atomic per
   chunk instead of one per run — and hand each completed chunk back as
   pre-serialized wire rows through a single-producer outbox.  The
   aggregate fold runs after the pool quiesces and never contends with
   workers; it re-sorts rows by run index, so neither the batch size nor
   any claim interleaving can reach a report.

   Every worker count takes the same serialize→decode path (worker 0
   included), so single-worker and multi-worker campaigns agree
   byte-for-byte by construction, not by luck: the wire codec's
   round-trip identity is golden-tested, and everything downstream of
   it sees identical rows. *)

(* How much heavier major-GC pacing to allow while a multi-domain pool
   runs (Gc.space_overhead, default 120).  Campaign runs allocate in
   bursts — each builds and drops a detector and a VM heap — and in
   OCaml 5 every domain's minor collection is a stop-the-world handshake
   over all of them; lazier pacing buys fewer synchronized collections
   for a bounded memory cost.  Throughput-only: reports cannot see it. *)
let pool_gc_space_overhead = 240

let run_campaign ?shard ?batch ?(reuse_ctx = true) (sp : spec) ~source : report
    =
  let shard_i, shard_n =
    match shard with
    | None -> (0, 1)
    | Some (i, n) ->
        if n < 1 || i < 0 || i >= n then
          invalid_arg (Printf.sprintf "Explore.run_campaign: shard %d/%d" i n);
        (i, n)
  in
  let b = sp.e_budget in
  (* Shard i of n owns the run indices congruent to i mod n; work
     ordinal k maps to index i + k*n, so indices are a pure function of
     the spec and the shard, never of scheduling. *)
  let owned = Campaign.owned_count ~shard_i ~shard_n ~total:b.b_runs in
  let workers = max 1 (min sp.e_workers owned) in
  let batch =
    match batch with
    | Some b when b >= 1 -> b
    | Some b -> invalid_arg (Printf.sprintf "Explore.run_campaign: batch %d" b)
    | None -> Pool.default_batch ~workers ~total:owned
  in
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> t0 +. s) b.b_seconds in
  (* A shard sees only its own subsequence of the discovery curve, so a
     locally-armed plateau window would trip at a different point than
     the campaign-wide fold does (a shard whose indices happen to be
     quiet would stop and drop rows below the true cutoff while another
     shard keeps discovering).  In shard mode the window is therefore
     deferred entirely to merge time: the shard runs its full owned
     slice and emits every row, and the merge fold applies the plateau
     over the re-assembled index sequence. *)
  let local_plateau = if shard_n > 1 then None else b.b_plateau in
  let tracker = Option.map tracker_make local_plateau in
  let hb_journal =
    match sp.e_equiv with Hb -> Some (Pool.journal ()) | Raw -> None
  in
  (* Compile once up front on the calling domain: a source that does not
     compile fails the same way on every domain, so the campaign fails
     fast — Pipeline.Compile_error propagates to the caller — and the
     pool never starts.  Worker 0 (the calling domain) reuses this
     compiled program; other workers compile their own copy on their own
     domain, per the compile-once-per-domain contract (instrumentation
     and linking mutate the IR in place; a compiled must not cross
     domains). *)
  let compiled0 = Pipeline.compile sp.e_config ~source in
  let queue = Pool.queue ~batch ~total:owned in
  let outboxes = Array.init workers (fun _ -> Pool.outbox ()) in
  let expired () =
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  (* The per-domain worker: claim a chunk, run its schedules, serialize
     each row into a reusable scratch buffer, push the chunk's rows in
     one outbox touch, note the tracker once, sync the hb shard once.  A
     failing run — VM Runtime_error, step limit, anything — becomes a
     failure row; it never kills the worker, let alone the campaign. *)
  let worker_body ~worker:w =
    let compiled =
      if w = 0 then compiled0 else Pipeline.compile sp.e_config ~source
    in
    let seen = match sp.e_equiv with Hb -> Some (seen_make ()) | Raw -> None in
    (* One run context per worker domain, alive for the whole campaign:
       the hot loop resets state in place instead of re-allocating a
       detector and a VM heap per run.  Reports are byte-identical
       either way ([--no-ctx-reuse] exists to demonstrate exactly
       that). *)
    let ctx =
      if reuse_ctx then Some (Pipeline.Run_ctx.create compiled) else None
    in
    let observe =
      match seen with
      | Some seen -> fun rsp -> observe_run_hb ?ctx compiled rsp ~seen
      | None -> fun rsp -> observe_run ?ctx compiled rsp
    in
    let scratch = Buffer.create 1024 in
    let outbox = outboxes.(w) in
    let ran = ref 0 in
    let stop () = tracker_stopped tracker || expired () in
    let rec chunk_loop () =
      if not (stop ()) then
        match Pool.claim queue with
        | None -> ()
        | Some ch ->
            let rsps =
              Strategy.specs sp.e_strategy ~base:sp.e_config
                ~pct_horizon:sp.e_pct_horizon
                ~first:(Campaign.shard_index ~shard_i ~shard_n ch.Pool.c_first)
                ~stride:shard_n ~count:ch.Pool.c_count
            in
            let rows = ref [] and run_keys = ref [] in
            let abandoned = ref false in
            List.iter
              (fun (rsp : Strategy.run_spec) ->
                if not !abandoned then
                  if stop () then abandoned := true
                  else begin
                    let row, keys =
                      match observe rsp with
                      | o ->
                          ( Aggregate.Run o,
                            List.map
                              (fun s -> s.Aggregate.s_key)
                              o.Aggregate.o_sightings )
                      | exception e ->
                          ( Aggregate.Failed
                              {
                                Aggregate.f_index = rsp.Strategy.sp_index;
                                f_seed = rsp.Strategy.sp_seed;
                                f_error = Printexc.to_string e;
                              },
                            [] )
                    in
                    incr ran;
                    Buffer.clear scratch;
                    Wire.row_to_buffer scratch row;
                    rows := Buffer.contents scratch :: !rows;
                    run_keys := keys :: !run_keys
                  end)
              rsps;
            if !rows <> [] then Pool.push outbox (List.rev !rows);
            (* An abandoned chunk is incomplete: noting it would feed
               the reorder buffer a hole's worth of wrong run counts.
               Abandonment only happens after the stop decision, so the
               tracker has nothing left to decide. *)
            if not !abandoned then
              tracker_note tracker ch.Pool.c_ordinal (List.rev !run_keys);
            (match (seen, hb_journal) with
            | Some seen, Some journal -> seen_sync journal seen
            | _ -> ());
            chunk_loop ()
    in
    chunk_loop ();
    !ran
  in
  let rans =
    Pool.run
      ?gc_space_overhead:(if workers > 1 then Some pool_gc_space_overhead else None)
      ~workers worker_body
  in
  let wall = Unix.gettimeofday () -. t0 in
  let ran = List.fold_left ( + ) 0 rans in
  (* If the clock cut the campaign short, say so — unless a plateau
     tripped, in which case the fold reports that instead. *)
  let deadline_hit = deadline <> None && ran < owned in
  let rows =
    Array.to_list outboxes
    |> List.concat_map Pool.drain
    |> List.concat
    |> List.map (fun line ->
           match Wire.row_of_json line with
           | Ok row -> row
           | Error m ->
               (* Rows were serialized by this very build one chunk ago;
                  a decode failure is a wire-codec bug, not a data
                  error. *)
               failwith ("internal: campaign row round-trip failed: " ^ m))
  in
  report_of_rows ~wall ~deadline_hit ~apply_plateau:(shard_n = 1) sp rows

(* ---- report rendering (shared by explore and merge so their output
   is byte-identical) ---- *)

(* The racedet flags that select a campaign's configuration in a
   reproduce line: a baseline by its registry name, anything else by its
   Table 2/3 row. *)
let selector (c : Config.t) =
  match Registry.of_detector c.Config.detector with
  | Some e when e.Registry.detector <> Config.Ours ->
      "--detector " ^ e.Registry.name
  | _ -> "-c " ^ c.Config.name

let report_text ?(timing = true) ~target (r : report) =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let stats = r.r_stats in
  let strategy_name = Strategy.name r.r_spec.e_strategy in
  let selector = selector r.r_spec.e_config in
  if timing then
    pr
      "explored %d schedules (%s, %d workers) in %.2fs: %.1f runs/s, %.0f \
       events/s/worker\n"
      stats.Aggregate.st_runs strategy_name r.r_spec.e_workers r.r_wall
      (runs_per_sec r)
      (events_per_sec_per_worker r)
  else pr "explored %d schedules (%s)\n" stats.Aggregate.st_runs strategy_name;
  pr "distinct interleaving fingerprints: %d/%d; events %d; steps %d\n"
    stats.Aggregate.st_distinct_fingerprints stats.Aggregate.st_runs
    stats.Aggregate.st_events stats.Aggregate.st_steps;
  if r.r_spec.e_equiv = Hb then
    pr
      "happens-before classes: %d; detector replays pruned: %d/%d (%.1f%%)\n"
      stats.Aggregate.st_equiv_classes stats.Aggregate.st_pruned_runs
      stats.Aggregate.st_runs
      (100.
      *. float_of_int stats.Aggregate.st_pruned_runs
      /. float_of_int (max stats.Aggregate.st_runs 1));
  (match stats.Aggregate.st_stop with
  | Aggregate.Exhausted -> ()
  | s -> pr "stopped early: %s\n" (Aggregate.describe_stop s));
  (match r.r_failures with
  | [] -> ()
  | fs ->
      pr "\n%d runs failed:\n" (List.length fs);
      List.iter
        (fun (f : Aggregate.failure) ->
          pr "  run %d (seed %d): %s\n" f.Aggregate.f_index f.Aggregate.f_seed
            f.Aggregate.f_error)
        fs);
  if r.r_races = [] then pr "\nNo dataraces detected in any schedule.\n"
  else begin
    pr "\nDeduped races (%d):\n" (List.length r.r_races);
    List.iter
      (fun (d : Aggregate.deduped) ->
        pr "  %4d/%d  %s%s\n" d.Aggregate.d_count stats.Aggregate.st_runs
          (Fmt.str "%a" Aggregate.pp_key d.Aggregate.d_key)
          (if d.Aggregate.d_kinds = "" then ""
           else " (" ^ d.Aggregate.d_kinds ^ ")");
        pr "          first seen in run %d (%s)\n" d.Aggregate.d_first_index
          d.Aggregate.d_first_spec;
        pr "          reproduce: racedet run %s %s %s\n" target selector
          d.Aggregate.d_first_repro)
      r.r_races;
    match stats.Aggregate.st_discovery with
    | [] | [ _ ] -> ()
    | ds ->
        pr "\nnew-race discovery (run -> cumulative): %s\n"
          (String.concat ", "
             (List.map (fun (i, n) -> Printf.sprintf "%d->%d" i n) ds))
  end;
  Buffer.contents b

let report_json ?(timing = true) (r : report) =
  let stats = r.r_stats in
  let races =
    List.map
      (fun (d : Aggregate.deduped) ->
        Wire.Obj
          [
            ("object", Wire.String d.Aggregate.d_key.Aggregate.k_object);
            ("site_a", Wire.String d.Aggregate.d_key.Aggregate.k_site_a);
            ("site_b", Wire.String d.Aggregate.d_key.Aggregate.k_site_b);
            ("kinds", Wire.String d.Aggregate.d_kinds);
            ("runs_reporting", Wire.Int d.Aggregate.d_count);
            ("first_run", Wire.Int d.Aggregate.d_first_index);
            ("first_seed", Wire.Int d.Aggregate.d_first_seed);
            ("first_schedule", Wire.String d.Aggregate.d_first_spec);
            ("repro_flags", Wire.String d.Aggregate.d_first_repro);
          ])
      r.r_races
  in
  let failures =
    List.map
      (fun (f : Aggregate.failure) ->
        Wire.Obj
          [
            ("run", Wire.Int f.Aggregate.f_index);
            ("seed", Wire.Int f.Aggregate.f_seed);
            ("error", Wire.String f.Aggregate.f_error);
          ])
      r.r_failures
  in
  let discovery =
    List.map
      (fun (i, n) -> Wire.List [ Wire.Int i; Wire.Int n ])
      stats.Aggregate.st_discovery
  in
  let timing_fields =
    if not timing then []
    else
      [
        ("workers", Wire.Int r.r_spec.e_workers);
        ("wall_s", Wire.Float r.r_wall);
        ("runs_per_sec", Wire.Float (runs_per_sec r));
        ("events_per_sec", Wire.Float (events_per_sec r));
        ("events_per_sec_per_worker", Wire.Float (events_per_sec_per_worker r));
      ]
  in
  Wire.json_to_string
    (Wire.Obj
       ([
          ("strategy", Wire.String (Strategy.name r.r_spec.e_strategy));
          ("runs", Wire.Int stats.Aggregate.st_runs);
          ("failures", Wire.List failures);
          ("distinct_races", Wire.Int stats.Aggregate.st_distinct_races);
          ( "distinct_fingerprints",
            Wire.Int stats.Aggregate.st_distinct_fingerprints );
          ("equiv", Wire.String (equiv_name r.r_spec.e_equiv));
          ("equiv_classes", Wire.Int stats.Aggregate.st_equiv_classes);
          ("pruned_runs", Wire.Int stats.Aggregate.st_pruned_runs);
          ( "pruned_rate",
            Wire.Float
              (float_of_int stats.Aggregate.st_pruned_runs
              /. float_of_int (max stats.Aggregate.st_runs 1)) );
          ("events", Wire.Int stats.Aggregate.st_events);
          ("steps", Wire.Int stats.Aggregate.st_steps);
          ("stop", Wire.String (Aggregate.describe_stop stats.Aggregate.st_stop));
        ]
       @ timing_fields
       @ [ ("discovery", Wire.List discovery); ("races", Wire.List races) ]))

(* ---- wire re-exports ---- *)

let spec_to_json = Wire.spec_to_json
let spec_of_json = Wire.spec_of_json
let target_of_json = Wire.target_of_json
let obs_to_json = Wire.obs_to_json
let obs_of_json = Wire.obs_of_json
let failure_to_json = Wire.failure_to_json
let failure_of_json = Wire.failure_of_json
let row_to_json = Wire.row_to_json
let row_of_json = Wire.row_of_json
let row_of_line = Wire.row_of_line
let write_obs_channel = Wire.write_obs_channel
let read_obs_channel = Wire.read_obs_channel
let fold_obs_channel = Wire.fold_obs_channel
