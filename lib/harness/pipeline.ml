module Ir = Drd_ir.Ir
module Link = Drd_ir.Link
module Interp = Drd_vm.Interp
module Interp_ref = Drd_vm.Interp_ref
module Value = Drd_vm.Value
module Memloc = Drd_vm.Memloc
module Sink = Drd_vm.Sink
module Heap = Drd_vm.Heap
module Parser = Drd_lang.Parser
module Typecheck = Drd_lang.Typecheck
module Lower = Drd_ir.Lower
module Site_table = Drd_ir.Site_table
module Insert = Drd_instr.Insert
module Static_weaker = Drd_instr.Static_weaker
module Peel = Drd_instr.Peel
module Race_set = Drd_static.Race_set
module Specialize = Drd_static.Specialize
open Drd_core

type compiled = {
  prog : Ir.program;
  image : Link.image; (* the linked executable form the VM runs *)
  config : Config.t;
  traces_inserted : int;
  traces_eliminated : int;
  static_stats : Drd_static.Race_set.stats option;
  race_set : Drd_static.Race_set.t option;
  compile_time : float;
}

(* Which interpreter executes the program.  [`Spec] is the production
   engine: the flat image with link-time specialized trace ops taking
   their fast paths.  [`Linked] runs the same image with the fast paths
   disabled (specialized ops behave exactly like generic ones — the
   sink simply installs no [spec] handler).  [`Ref] is the frozen
   pre-link block interpreter, kept as the oracle of the golden
   byte-identity suite and CI's engine diff. *)
type engine = [ `Linked | `Ref | `Spec ]

exception Compile_error of string

(* Frontend failures carry their own exception types with source
   positions; fold them into one exception with a rendered message so
   callers (the CLI, the campaign runner) can make compilation failure a
   distinct, fatal outcome without depending on Drd_lang.  Compilation
   is also the per-domain setup step of campaign pools: a [compiled] is
   freely reusable across runs but must stay on the domain that made it
   (instrumentation and linking mutate the IR in place, and runs share
   the image's site tables), so each pool worker compiles its own —
   and a source that fails to compile fails identically on every
   domain, which is why the runner compiles once up front, fails the
   whole campaign, and never starts the pool. *)
let frontend ~source =
  let frontend_error kind msg (pos : Drd_lang.Ast.pos) =
    raise
      (Compile_error
         (Printf.sprintf "%s error at line %d, col %d: %s" kind
            pos.Drd_lang.Ast.line pos.Drd_lang.Ast.col msg))
  in
  let ast =
    try Parser.parse_program source with
    | Parser.Error (msg, pos) -> frontend_error "parse" msg pos
    | Drd_lang.Lexer.Error (msg, pos) -> frontend_error "lex" msg pos
  in
  try Typecheck.check ast
  with Typecheck.Error (msg, pos) -> frontend_error "type" msg pos

let compile (config : Config.t) ~source : compiled =
  let t0 = Unix.gettimeofday () in
  let tprog = frontend ~source in
  let tprog = if config.Config.loop_peel then Peel.peel_program tprog else tprog in
  let prog = Lower.lower_program tprog in
  let static_stats = ref None in
  let race_set = ref None in
  let instrumented = config.Config.detector <> Config.NoDetect in
  if instrumented then
    if config.Config.static_analysis then begin
      let rs = Race_set.compute prog in
      static_stats := Some (Race_set.stats rs);
      race_set := Some rs;
      Insert.instrument ~keep:(Race_set.may_race rs) prog
    end
    else Insert.instrument prog;
  let inserted = Insert.count_traces prog in
  let eliminated =
    if instrumented && config.Config.weaker_elim then
      Static_weaker.eliminate prog
    else 0
  in
  (* The rest of the compiler's optimizations run AFTER instrumentation
     (Section 6.2); traces are unknown-side-effect and survive. *)
  if config.Config.ir_optimize then ignore (Drd_ir.Optimize.optimize prog);
  (* Link once, after every pass that can touch the IR has run.  The
     trace specializer classifies the surviving trace sites from the
     static results; it only fires for the configuration whose dynamic
     pipeline its fast paths model exactly (our detector, per-field
     locations, ownership on — see Specialize for the soundness
     argument), so every other configuration links a purely generic
     image. *)
  let spec =
    if
      config.Config.static_analysis
      && config.Config.detector = Config.Ours
      && config.Config.granularity = Memloc.Per_field
      && config.Config.use_ownership
    then
      match !race_set with
      | Some rs -> Specialize.compute rs prog
      | None -> None
    else None
  in
  let image = Link.link ?spec prog in
  {
    prog;
    image;
    config;
    traces_inserted = inserted;
    traces_eliminated = eliminated;
    static_stats = !static_stats;
    race_set = !race_set;
    compile_time = Unix.gettimeofday () -. t0;
  }

type result = {
  races : string list;
  racy_objects : string list;
  report : Report.collector option;
  detector_stats : Detector.stats option;
  events : int;
  prints : (string * Value.t option) list;
  steps : int;
  threads : int;
  wall_time : float;
  heap : Heap.t; (* final heap, for decoding identities in reports *)
  deadlocks : Lock_order.report list;
      (* potential deadlocks from the lock-order graph (Section 10
         future work); tracked alongside our detector *)
  immutability : Immutability.summary option;
      (* dynamic immutability classification (Section 10 future work) *)
  spec_events : int;
      (* events that arrived through specialized trace ops (0 unless the
         [`Spec] engine ran an image with specialized sites) *)
  site_stats : (int array * int array) option;
      (* per-site (events, fast-path drops), only under [~site_stats] *)
  fingerprint : int;
      (* the raw schedule fingerprint of the run: what
         [Explore.fingerprint_tap] folds, computed by every run *)
}

(* ---- the raw schedule fingerprint, folded by the run itself ----

   The same stream, constants and order as [Explore.fingerprint_tap]
   (the reference definition): thread, location and kind per access,
   thread and lock per acquire and release, parent and child per thread
   start.  {!run} folds it inside the closures it already builds — the
   event counter, the spec handler, the sync callbacks — so a campaign
   needs no tap layer for it.  [mix] restates [Sink.mix] module-locally
   so those closures inline it (the [-opaque] rule, DESIGN §12(b)); the
   golden suite checks the result against the tap on every run. *)

let[@inline] mix fp v = ((fp lxor v) * Sink.fnv_prime) land Sink.mask

let[@inline] fp_access fp ~tid ~loc ~kind =
  mix (mix (mix fp tid) loc) (match kind with Event.Read -> 17 | Event.Write -> 23)

let[@inline] fp_acquire fp ~tid ~lock = mix (mix fp (tid + 101)) lock
let[@inline] fp_release fp ~tid ~lock = mix (mix fp (tid + 211)) lock
let[@inline] fp_start fp ~parent ~child = mix fp ((parent * 31) + child)

(* Group a location id to the identity Table 3 counts: the object (for
   instance fields and arrays) or the static field itself. *)
let object_of_loc (prog : Ir.program) heap loc =
  if loc land 1 = 1 then Memloc.describe prog.Ir.p_tprog heap loc
  else Heap.describe heap (loc lsr 11)

(* The VM configuration a harness Config.t denotes; [?vm] on {!run}
   lets the exploration engine override it per run. *)
let vm_config_of (config : Config.t) =
  {
    Interp.default_config with
    seed = config.Config.seed;
    quantum = config.Config.quantum;
    granularity = config.Config.granularity;
    pseudo_locks = config.Config.pseudo_locks;
    policy = config.Config.policy;
  }

(* The paper detector's knobs a harness configuration selects: the one
   place a [Config.t] becomes a [Detector.config], for runs, post-mortem
   replay and serve sessions alike. *)
let detector_config_of (config : Config.t) =
  {
    Detector.default_config with
    Detector.use_cache = config.Config.use_cache;
    use_ownership = config.Config.use_ownership;
  }

(* The shape of a sink's access callback, which {!run}'s event counter
   wraps. *)
type access =
  tid:Event.thread_id ->
  loc:Event.loc_id ->
  kind:Event.kind ->
  locks:Lockset_id.id ->
  site:Event.site_id ->
  unit

(* A baseline detector behind Detector_intf.S, created once with its
   context.  [bl_sink ~count ~fp] resets it and returns the sink of one
   run: every VM callback routed to the matching hook (unused hooks are
   no-ops by the interface contract), virtual-call receiver events only
   when the detector asks for them, {!run}'s event counter [count] on
   the access path, and the sync callbacks folding the raw fingerprint
   into [fp]. *)
type baseline = {
  bl_sink : count:(access -> access) -> fp:int ref -> Sink.t;
  bl_racy_locs : unit -> Event.loc_id list;
}

let baseline (module D : Detector_intf.S) =
  let d = D.create () in
  let bl_sink ~count ~(fp : int ref) =
    D.reset d;
    {
      Sink.access =
        count (fun ~tid ~loc ~kind ~locks ~site ->
            D.on_access_interned d ~loc ~thread:tid ~locks ~kind ~site);
      acquire =
        (fun ~tid ~lock ->
          fp := fp_acquire !fp ~tid ~lock;
          D.on_acquire d ~thread:tid ~lock);
      release =
        (fun ~tid ~lock ->
          fp := fp_release !fp ~tid ~lock;
          D.on_release d ~thread:tid ~lock);
      thread_start =
        (fun ~parent ~child ->
          fp := fp_start !fp ~parent ~child;
          D.on_thread_start d ~parent ~child);
      thread_join = (fun ~joiner ~joinee -> D.on_thread_join d ~joiner ~joinee);
      thread_exit = (fun ~tid -> D.on_thread_exit d ~thread:tid);
      call =
        (if D.needs_call_events then
           Some
             (fun ~tid ~obj ~locks ~site ->
               D.on_call d ~thread:tid
                 ~obj_loc:(Memloc.whole_object ~obj)
                 ~locks ~site)
         else None);
      spec = None;
    }
  in
  { bl_sink; bl_racy_locs = (fun () -> D.racy_locs d) }

(* Pooled state for the [`Spec] engine's fast paths: the memo tables the
   spec handler in {!run} closes over.  8k slots per table (see the
   sizing note there); pooled so a campaign refills them instead of
   reallocating ~135k words per run. *)
let memo_bits = 13

(* A memo key's slot: the top [memo_bits] bits of its product with
   2^63/φ (Fibonacci hashing).  Bit i of a product depends only on bits
   0..i of the key, so only the top bits depend on all of it.  A slot
   taken from lower bits (say bits 11–23) would see only the thread and
   lockset id, which sit at the bottom of a memo key, and every location
   a thread touches under one lockset would share one slot.  Keys are
   compared exactly, so the slot only decides which keys a table
   keeps. *)
let[@inline] memo_slot key = (key * 0x4F1BBCDCBFA53E0B) lsr (63 - memo_bits)

let[@inline] kind_bit = function Event.Write -> 1 | Event.Read -> 0

(* A key is built only while its packing is injective, every field in
   range: a location of 2^31 or more (a field of an object with heap id
   2^20 or more) would wrap the memo key onto another location's, and
   the exact-compare probe would drop an event for one the detector saw.
   An event that does not pack gets -1, which no probe matches, and
   stays on the exact generic path. *)

(* (loc, kind, lockset id, thread), for the Sfixed reached-event memo. *)
let[@inline] memo_key ~tid ~loc ~kind ~locks =
  if loc < 1 lsl 31 && locks < 1 lsl 20 && tid < 1 lsl 10 then
    (loc lsl 31) lor (kind_bit kind lsl 30) lor (locks lsl 10) lor tid
  else -1

(* (loc, kind, thread), what the detector's per-thread cache keys on,
   for the cache mirror. *)
let[@inline] mirror_key ~tid ~loc ~kind =
  if loc < 1 lsl 51 && tid < 1 lsl 10 then
    (loc lsl 11) lor (kind_bit kind lsl 10) lor tid
  else -1

type spec_state = {
  ss_memo : int array; (* Sfixed reached-event memo *)
  ss_shared : int array; (* managed-cell cache mirror *)
  ss_ro_seen : bool array; (* per-cell first-sighting flags *)
  ss_own_map : (int, int) Hashtbl.t; (* managed location -> owner / -2 *)
}

let make_spec_state sp =
  {
    ss_memo = Array.make (1 lsl memo_bits) (-1);
    ss_shared = Array.make (1 lsl memo_bits) (-1);
    ss_ro_seen = Array.make sp.Link.sp_ncells false;
    ss_own_map = Hashtbl.create 1024;
  }

let reset_spec_state ss =
  Array.fill ss.ss_memo 0 (Array.length ss.ss_memo) (-1);
  Array.fill ss.ss_shared 0 (Array.length ss.ss_shared) (-1);
  Array.fill ss.ss_ro_seen 0 (Array.length ss.ss_ro_seen) false;
  Hashtbl.clear ss.ss_own_map

(* A pooled, resettable run context: everything {!run} would otherwise
   allocate per run — VM state, detector, collector, side analyses,
   spec-handler memo tables — created once per (worker, compiled) pair
   and reset at the start of every run that uses it.  A run without a
   context runs on a fresh one, so reports from a reused context are
   byte-identical to fresh-context runs; the tests and the CI diff step
   assert this. *)
module Run_ctx = struct
  type detector =
    | No_detector (* NoDetect, or a context for fingerprint-only runs *)
    | Paper of Detector.t
    | Baseline of baseline

  type t = {
    rc_compiled : compiled;
    rc_vm : Interp.ctx;
    rc_collector : Report.collector;
    rc_lock_order : Lock_order.t;
    rc_immut : Immutability.t;
    rc_detector : detector;
    rc_spec : spec_state option; (* the paper detector, specialized image *)
  }

  (* [~detect:false] leaves out the detector and the spec memos,
     [~spec:false] the spec memos: the context {!run} makes for itself
     holds only what that run touches. *)
  let make ~detect ~spec (c : compiled) : t =
    let collector = Report.collector () in
    let detector =
      if not detect then No_detector
      else
        match c.config.Config.detector with
        | Config.Ours ->
            Paper
              (Detector.create ~config:(detector_config_of c.config) collector)
        | dv -> (
            match Registry.baseline dv with
            | Some m -> Baseline (baseline m)
            | None -> No_detector)
    in
    {
      rc_compiled = c;
      rc_vm = Interp.create_ctx c.image;
      rc_collector = collector;
      rc_lock_order = Lock_order.create ();
      rc_immut = Immutability.create ();
      rc_detector = detector;
      rc_spec =
        (match (detector, c.image.Link.i_spec) with
        | Paper _, Some sp when spec -> Some (make_spec_state sp)
        | _ -> None);
    }

  let create c = make ~detect:true ~spec:true c
end

let run ?ctx ?vm ?tap ?(detect = true) ?(engine = (`Spec : engine))
    ?(site_stats = false) (c : compiled) : result =
  let ctx =
    match ctx with
    | None -> Run_ctx.make ~detect ~spec:(engine = `Spec) c
    | Some x when x.Run_ctx.rc_compiled != c ->
        invalid_arg
          "Pipeline.run: run context belongs to a different compiled program"
    | Some x -> x
  in
  let config = c.config in
  let events = ref 0 in
  let spec_events = ref 0 in
  let nsites = Site_table.count c.prog.Ir.p_sites in
  let site_ev = if site_stats then Some (Array.make nsites 0) else None in
  let site_fast = if site_stats then Some (Array.make nsites 0) else None in
  let bump arr site =
    match arr with
    | Some a when site >= 0 && site < Array.length a -> a.(site) <- a.(site) + 1
    | _ -> ()
  in
  let fp = ref Sink.fnv_offset in
  let count f = fun ~tid ~loc ~kind ~locks ~site ->
    incr events;
    fp := fp_access !fp ~tid ~loc ~kind;
    bump site_ev site;
    f ~tid ~loc ~kind ~locks ~site
  in
  let collector = ctx.Run_ctx.rc_collector in
  let lock_order = ctx.Run_ctx.rc_lock_order in
  let immut = ctx.Run_ctx.rc_immut in
  (* The context's pieces are reset at the start of the run.  Only the
     state this run will actually write is reset — a [detect:false]
     (fingerprint-only) pass on a shared context must not pay for, or
     disturb, the detector state a detecting run left behind. *)
  let sink =
    (* [detect = false] runs the same instrumented program (so the
       schedule is identical — NoDetect compiles without traces and
       would perturb it) but drops the detector work; only the event
       counter and the fingerprint remain.  The exploration engine uses
       this for fingerprint-only passes.  NoDetect gets the same sink:
       it has no traces to count, but its sync events still fold. *)
    match (detect, ctx.Run_ctx.rc_detector) with
    | false, _ | true, Run_ctx.No_detector ->
        {
          Sink.null with
          Sink.access = count (fun ~tid:_ ~loc:_ ~kind:_ ~locks:_ ~site:_ -> ());
          acquire = (fun ~tid ~lock -> fp := fp_acquire !fp ~tid ~lock);
          release = (fun ~tid ~lock -> fp := fp_release !fp ~tid ~lock);
          thread_start =
            (fun ~parent ~child -> fp := fp_start !fp ~parent ~child);
        }
    | true, Run_ctx.Paper det ->
        Report.reset collector;
        Lock_order.reset lock_order;
        Immutability.reset immut;
        Detector.reset det;
        (* The specialized fast paths.  Installed only under the [`Spec]
           engine when the link phase assigned cells; every path either
           performs exactly the generic per-event work or drops an event
           the soundness argument (Specialize, DESIGN §8) proves the
           detector would not have turned into a new report.  Contract
           outputs (races, deadlocks, event counts, logs, fingerprints)
           are byte-identical to the generic engines; only
           detector-internal statistics (events_in, filter counters,
           trie sizes) and the immutability summary may differ. *)
        let spec_handler =
          match (engine, c.image.Link.i_spec, ctx.Run_ctx.rc_spec) with
          | `Spec, Some sp, Some ss ->
              let classes = sp.Link.sp_cell_class in
              let is_managed = sp.Link.sp_cell_managed in
              (* Memo of packed (loc, kind, locks, tid) keys of events
                 that reached trie storage: a direct-mapped cache shared
                 by every Sfixed cell (a site iterating over many
                 objects needs one slot per object, not one per site).
                 Dropping on an exact key match is sound no matter which
                 cell inserted the key — the theorem is per event, not
                 per site — and a collision merely falls back to the
                 exact generic path. *)
              (* 8k slots per table ([memo_bits]): comfortably above the
                 distinct-key count of a run's hot sites, small enough
                 that the per-run refill cost stays negligible for short
                 exploration replays. *)
              reset_spec_state ss;
              let memo = ss.ss_memo in
              (* Sro: whether the cell's first event was forwarded. *)
              let ro_seen = ss.ss_ro_seen in
              (* The shared location-owner map of the managed cells:
                 owner thread id, or -2 once the location saw a second
                 thread (demoted: owner shortcut off for good).  Every
                 traced site that can touch a mapped location is itself
                 a managed cell (Specialize's component closure), so
                 the map always witnesses the demoting event. *)
              let own_map = ss.ss_own_map in
              let generic_event ~tid ~loc ~kind ~locks ~site =
                Immutability.record immut ~thread:tid ~loc ~kind;
                Detector.on_access_interned det ~loc ~thread:tid ~locks ~kind
                  ~site
              in
              (* Forward to the detector; memoize the key iff the event
                 reached trie storage (trie nodes are never evicted, so
                 a reached key stays droppable forever).  An unpackable
                 key just stays on the exact generic path. *)
              let forward_memo key ~tid ~loc ~kind ~locks ~site =
                Immutability.record immut ~thread:tid ~loc ~kind;
                match
                  Detector.on_access_outcome det ~loc ~thread:tid ~locks
                    ~kind ~site
                with
                | Detector.Reached ->
                    if key >= 0 then memo.(memo_slot key) <- key
                | Detector.Cache_hit | Detector.Owned_skip -> ()
              in
              (* Memo-drop: a repeat of an event that previously reached
                 the trie (same thread, loc, kind, lockset id) is
                 redundant — any race it could expose was checked when
                 the later-arriving party entered the trie, and its own
                 insertion is covered. *)
              let fixed_event ~tid ~loc ~kind ~locks ~site =
                let key = memo_key ~tid ~loc ~kind ~locks in
                if key >= 0 && memo.(memo_slot key) = key then
                  bump site_fast site
                else forward_memo key ~tid ~loc ~kind ~locks ~site
              in
              (* Cache-mirror memo for managed cells, keyed on the packed
                 (loc, kind, tid) the detector's per-thread cache itself
                 keys on (locksets excluded — the cache ignores them, so
                 the detector never distinguishes differing-locks repeats
                 either).  An entry is armed only after an event is
                 forwarded for a {e demoted} location: at that point the
                 thread's cache provably holds (kind, loc) and the single
                 Became_shared eviction for the location is behind us —
                 the component closure guarantees every traced access to
                 the location flows through a managed cell, so demotion
                 is witnessed — meaning every identical later event is a
                 detector cache hit: pure stats, no trie, droppable.
                 Mirroring requires the cache to exist at all, hence the
                 [use_cache] gate. *)
              let cache_on = config.Config.use_cache in
              let shared = ss.ss_shared in
              let pack_shared ~tid ~loc ~kind =
                if cache_on then mirror_key ~tid ~loc ~kind else -1
              in
              (* Owner shortcut for a managed cell.  Repeats by a
                 location's owner are exactly the events the detector's
                 cache or ownership filter would drop without touching
                 trie storage; the first event of another thread is
                 forwarded (the detector performs its Became_shared
                 transition) and demotes the location for good, sending
                 Sfixed cells to the memo and Sowned cells back to the
                 generic pipeline — with post-demotion repeats absorbed
                 by the cache mirror. *)
              (* Drop an armed mirror entry of [owner] for [loc] (both
                 kinds), so the owner's next access after the location's
                 demotion is forwarded — the exact-compare guard means a
                 colliding entry of another key is left alone. *)
              let disarm ~owner ~loc =
                let drop kind =
                  let key = pack_shared ~tid:owner ~loc ~kind in
                  if key >= 0 && shared.(memo_slot key) = key then
                    shared.(memo_slot key) <- -1
                in
                drop Event.Read;
                drop Event.Write
              in
              let owner_event cell key2 ~tid ~loc ~kind ~locks ~site =
                match Hashtbl.find own_map loc with
                | owner ->
                    if owner = tid then begin
                      bump site_fast site;
                      (* Arm the mirror for the owner as well: while the
                         location stays owned every repeat is absorbed
                         (cache hit or ownership skip, never trie), and
                         demotion disarms these slots before the first
                         foreign event is forwarded. *)
                      if key2 >= 0 then shared.(memo_slot key2) <- key2
                    end
                    else begin
                      if owner <> -2 then begin
                        Hashtbl.replace own_map loc (-2);
                        disarm ~owner ~loc
                      end;
                      (match classes.(cell) with
                      | Link.Sfixed ->
                          fixed_event ~tid ~loc ~kind ~locks ~site
                      | Link.Sowned | Link.Sro ->
                          generic_event ~tid ~loc ~kind ~locks ~site);
                      (* The location is demoted and this thread's cache
                         now holds (kind, loc) — either the forward just
                         above inserted it, or the Reached event behind a
                         memo hit already had.  Arm the mirror. *)
                      if key2 >= 0 then shared.(memo_slot key2) <- key2
                    end
                | exception Not_found ->
                    (* First event for this location anywhere: record
                       the owner only if the detector's ownership filter
                       itself absorbed it. *)
                    Immutability.record immut ~thread:tid ~loc ~kind;
                    (match
                       Detector.on_access_outcome det ~loc ~thread:tid ~locks
                         ~kind ~site
                     with
                    | Detector.Owned_skip ->
                        Hashtbl.replace own_map loc tid;
                        (* Forwarded while owned: the owner's cache holds
                           (kind, loc) from the lookup just done, so
                           same-kind repeats are cache hits; disarmed on
                           demotion like every owner entry. *)
                        if key2 >= 0 then shared.(memo_slot key2) <- key2
                    | Detector.Cache_hit | Detector.Reached ->
                        Hashtbl.replace own_map loc (-2))
              in
              Some
                (fun ~cell ~tid ~loc ~kind ~locks ~site ->
                  incr events;
                  incr spec_events;
                  fp := fp_access !fp ~tid ~loc ~kind;
                  bump site_ev site;
                  match classes.(cell) with
                  | Link.Sro ->
                      (* Every write to the component is pre-start and
                         ownership-absorbed, so the trie only ever holds
                         read nodes for these locations — and reads
                         cannot race reads.  Forward the first sighting
                         (ownership bookkeeping), drop the rest. *)
                      if ro_seen.(cell) then bump site_fast site
                      else begin
                        ro_seen.(cell) <- true;
                        generic_event ~tid ~loc ~kind ~locks ~site
                      end
                  | Link.Sfixed when not is_managed.(cell) ->
                      fixed_event ~tid ~loc ~kind ~locks ~site
                  | Link.Sfixed | Link.Sowned ->
                      (* The cache mirror is checked before the owner
                         map: a hit proves this exact (thread, loc, kind)
                         was forwarded after its location's demotion, a
                         drop licence that needs no further state. *)
                      let key2 = pack_shared ~tid ~loc ~kind in
                      if key2 >= 0 && shared.(memo_slot key2) = key2 then
                        bump site_fast site
                      else owner_event cell key2 ~tid ~loc ~kind ~locks ~site)
          | _ -> None
        in
        {
          Sink.null with
          Sink.access =
            (* Scalar calls: no Event.t allocated for events the cache
               or the ownership filter drops. *)
            count (fun ~tid ~loc ~kind ~locks ~site ->
                Immutability.record immut ~thread:tid ~loc ~kind;
                Detector.on_access_interned det ~loc ~thread:tid ~locks ~kind
                  ~site);
          spec = spec_handler;
          acquire =
            (fun ~tid ~lock ->
              fp := fp_acquire !fp ~tid ~lock;
              Lock_order.on_acquire lock_order ~thread:tid ~lock;
              Detector.on_acquire det ~thread:tid ~lock);
          release =
            (fun ~tid ~lock ->
              fp := fp_release !fp ~tid ~lock;
              Lock_order.on_release lock_order ~thread:tid ~lock;
              Detector.on_release det ~thread:tid ~lock);
          thread_start =
            (fun ~parent ~child -> fp := fp_start !fp ~parent ~child);
          thread_exit = (fun ~tid -> Detector.on_thread_exit det ~thread:tid);
        }
    | true, Run_ctx.Baseline b ->
        (* Every baseline goes through the registry's Detector_intf.S
           module — no per-baseline plumbing. *)
        b.bl_sink ~count ~fp
  in
  let vm_config =
    match vm with Some v -> v | None -> vm_config_of config
  in
  let sink = match tap with Some t -> Sink.tee sink t | None -> sink in
  let t0 = Unix.gettimeofday () in
  let r =
    match engine with
    (* [`Spec] and [`Linked] run the same image; they differ only in
       whether the sink installed a [spec] handler above.  [`Ref] is
       the frozen block interpreter and never runs on the context's VM
       state — its detector-side state it still uses. *)
    | `Linked | `Spec ->
        Interp.run_ctx ~config:vm_config ~sink ctx.Run_ctx.rc_vm
    | `Ref -> Interp_ref.run ~config:vm_config ~sink c.prog
  in
  let wall = Unix.gettimeofday () -. t0 in
  let heap = r.Interp.r_heap in
  let racy_locs, detector_stats =
    match (detect, ctx.Run_ctx.rc_detector) with
    | true, Run_ctx.Paper det ->
        (Report.racy_locs collector, Some (Detector.stats det))
    | true, Run_ctx.Baseline b -> (b.bl_racy_locs (), None)
    | _ -> ([], None)
  in
  let describe = Memloc.describe c.prog.Ir.p_tprog heap in
  let races = List.map describe racy_locs |> List.sort compare in
  let racy_objects =
    List.map (object_of_loc c.prog heap) racy_locs
    |> List.sort_uniq compare
  in
  {
    races;
    racy_objects;
    report =
      (match config.Config.detector with
      | Config.Ours when detect -> Some collector
      | _ -> None);
    detector_stats;
    events = !events;
    prints = r.Interp.r_prints;
    steps = r.Interp.r_steps;
    threads = r.Interp.r_max_threads;
    wall_time = wall;
    heap;
    deadlocks =
      (match config.Config.detector with
      | Config.Ours when detect -> Lock_order.potential_deadlocks lock_order
      | _ -> []);
    immutability =
      (match config.Config.detector with
      | Config.Ours when detect -> Some (Immutability.summary immut)
      | _ -> None);
    spec_events = !spec_events;
    fingerprint = !fp;
    site_stats =
      (match (site_ev, site_fast) with
      | Some e, Some f -> Some (e, f)
      | _ -> None);
  }

(* Describe an access statement "Class.method:line (op)" for the
   Section 2.6 static-peer listing. *)
let describe_stmt (c : compiled) meth iid =
  match Ir.find_mir c.prog meth with
  | None -> Printf.sprintf "%s#%d" meth iid
  | Some m ->
      let found = ref None in
      Ir.iter_instrs m (fun _ i -> if i.Ir.i_id = iid then found := Some i);
      (match !found with
      | Some i ->
          let desc =
            match i.Ir.i_op with
            | Ir.GetField (_, _, fm) -> "read " ^ fm.Ir.fm_name
            | Ir.PutField (_, fm, _) -> "write " ^ fm.Ir.fm_name
            | Ir.GetStatic (_, sm) ->
                "read " ^ sm.Ir.sm_class ^ "." ^ sm.Ir.sm_name
            | Ir.PutStatic (sm, _) ->
                "write " ^ sm.Ir.sm_class ^ "." ^ sm.Ir.sm_name
            | Ir.ALoad _ -> "read []"
            | Ir.AStore _ -> "write []"
            | _ -> "statement"
          in
          Printf.sprintf "%s:%d (%s)" meth i.Ir.i_line desc
      | None -> Printf.sprintf "%s#%d" meth iid)

(* The statically-possible racing statements for a dynamic report's
   site (Section 2.6). *)
let static_peers_of_site (c : compiled) site =
  match c.race_set with
  | None -> []
  | Some rs ->
      if site < 0 || site >= Site_table.count c.prog.Ir.p_sites then []
      else
        let info = Site_table.get c.prog.Ir.p_sites site in
        Drd_static.Race_set.peers_of rs ~meth:info.Site_table.s_method
          ~iid:info.Site_table.s_iid
        |> List.map (fun (m, iid) -> describe_stmt c m iid)
        |> List.sort_uniq compare

let run_source config source =
  let c = compile config ~source in
  (c, run c)

(* ---- post-mortem mode (paper Section 1) ---- *)

(* Execute the instrumented program recording the event stream instead
   of detecting online: a fingerprint-only run with a recording tap. *)
let record_log ?engine (c : compiled) : Event_log.t * result =
  let log = Event_log.create () in
  let tap =
    {
      Sink.access =
        (fun ~tid ~loc ~kind ~locks ~site ->
          Event_log.record log
            (Event_log.Access
               (Event.make_interned ~loc ~thread:tid ~locks ~kind ~site)));
      acquire =
        (fun ~tid ~lock -> Event_log.record log (Event_log.Acquire (tid, lock)));
      release =
        (fun ~tid ~lock -> Event_log.record log (Event_log.Release (tid, lock)));
      thread_start =
        (fun ~parent ~child ->
          Event_log.record log (Event_log.Thread_start (parent, child)));
      thread_join =
        (fun ~joiner ~joinee ->
          Event_log.record log (Event_log.Thread_join (joiner, joinee)));
      thread_exit =
        (fun ~tid -> Event_log.record log (Event_log.Thread_exit tid));
      call = None;
      spec = None;
    }
  in
  let r = run ?engine ~tap ~detect:false c in
  (log, r)

(* Run the final detection phase off-line over a recorded log. *)
let detect_post_mortem (config : Config.t) (log : Event_log.t) :
    Report.collector * Detector.stats =
  let collector = Report.collector () in
  let det = Detector.create ~config:(detector_config_of config) collector in
  Event_log.replay log det;
  (collector, Detector.stats det)

(* Post-mortem replay of a recorded log through any detector module:
   the generic sibling of {!detect_post_mortem} (which keeps the paper
   detector's full stats). *)
let replay_module (module D : Detector_intf.S) (log : Event_log.t) :
    Event.loc_id list * int =
  let d = D.create () in
  Event_log.iter
    (fun entry ->
      match entry with
      | Event_log.Access e ->
          D.on_access_interned d ~loc:e.Event.loc ~thread:e.Event.thread
            ~locks:e.Event.locks ~kind:e.Event.kind ~site:e.Event.site
      | Event_log.Acquire (t, l) -> D.on_acquire d ~thread:t ~lock:l
      | Event_log.Release (t, l) -> D.on_release d ~thread:t ~lock:l
      | Event_log.Thread_start (p, ch) ->
          D.on_thread_start d ~parent:p ~child:ch
      | Event_log.Thread_join (j, je) ->
          D.on_thread_join d ~joiner:j ~joinee:je
      | Event_log.Thread_exit t -> D.on_thread_exit d ~thread:t)
    log;
  (D.racy_locs d, D.events_seen d)

let names_of (c : compiled) (r : result) : Names.t =
  let names = Names.create () in
  Site_table.iter c.prog.Ir.p_sites (fun id _ ->
      Names.register_site names id (Site_table.name c.prog.Ir.p_sites id));
  (* Locations and locks mentioned in the reports. *)
  (match r.report with
  | Some coll ->
      List.iter
        (fun (race : Report.race) ->
          Names.register_loc names race.Report.loc
            (Memloc.describe c.prog.Ir.p_tprog r.heap race.Report.loc);
          let register_locks ls =
            Event.Lockset.fold
              (fun l () -> Names.register_lock names l (Heap.describe r.heap l))
              ls ()
          in
          register_locks (Event.lockset race.Report.current);
          register_locks (Lockset_id.set_of race.Report.prior.Trie.p_locks))
        (Report.races coll)
  | None -> ());
  names
