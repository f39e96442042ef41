(* A QCheck generator of well-typed MiniJava concurrent programs
   composed from the synchronization idioms the repo models — mutexes
   (`synchronized` regions), fork/join chains, wait/notify signaling,
   and thread-pool-style worker loops — with seeded injected races and
   known-safe twins, so every generated program carries ground truth.

   A program is a list of independent UNITS.  Each unit owns disjoint
   static cells of the shared class G (data cells d<k>s / d<k>r, flags
   a<k> / b<k>, lock l<k>, noise cell t<k>) plus private helper classes
   (Mix<k>, Q<k>), named by the unit's stable id — NOT its list
   position — so shrinking a spec never renames the cells a reproducer
   refers to.

   Ground truth per idiom (worked out against each detector's actual
   discipline; the test suite pins this matrix):

   - Sync_counter   SAFE.  Two threads increment d<k>s under the common
                    lock.  Every detector quiet.
   - Rendezvous_race RACY (guaranteed).  Both threads access d<k>r
                    before AND after a symmetric wait/notify handshake,
                    so in every terminating schedule each side has an
                    access that is unordered with the other side's and
                    outside the ownership/exclusive initialization
                    exemption.  All four detectors report it in every
                    schedule — the gating cells for ground-truth
                    misses.
   - Join_handoff   SAFE.  main writes pre-start, the thread writes
                    unlocked, main reads post-join.  Paper quiet (join
                    pseudo-locks), vclock quiet (start/join edges);
                    Eraser and objrace report — their documented lack
                    of fork/join modeling.
   - Start_chain    SAFE.  T1 writes then starts T2; T2 writes then
                    starts T3; T3 writes.  Ordered by start edges
                    (vclock quiet), but lockset techniques lose the
                    ordering once ownership's single-handoff exemption
                    is spent: paper, Eraser and objrace all report.
                    The paper detector's honest precision cost.
   - Ping_pong      SAFE.  A writes, signals; B waits, writes, signals
                    back; A writes again.  Monitor-ordered alternation:
                    vclock quiet, every lockset technique reports —
                    the classic lockset imprecision.
   - Oneshot_handoff SAFE.  Producer writes then signals once; consumer
                    waits then writes once.  Only Eraser reports (the
                    paper's ownership one-shot exemption and objrace's
                    demotion-access grace both absorb it; vclock sees
                    the monitor edge).
   - Mixed_object   SAFE.  Mix<k>.imm is immutable after main's init
                    and read unlocked (also via a virtual get());
                    Mix<k>.cnt is lock-protected.  Per-field detectors
                    quiet; objrace merges the disciplines at object
                    granularity and reports the Mix object.
   - Worker_pool    SAFE or RACY.  A synchronized queue Q<k> filled by
                    main and drained by two workers through virtual
                    take() calls; accumulation under the unit lock.
                    objrace reports the Q object in both variants (the
                    call-as-write flood); the racy twin adds a
                    rendezvous race on d<k>r.
   - Hidden_race    RACY (feasible, NOT guaranteed).  Both threads
                    write d<k>r without locks, on opposite sides of
                    critical sections on l<k>: the race is feasible,
                    but a schedule that orders the critical sections
                    conveniently hides it behind an accidental
                    happens-before edge (paper Section 2.2's critique)
                    and serialized schedules let ownership absorb one
                    side.  Eraser and objrace report it in every
                    schedule; paper and vclock only in some — so these
                    cells count toward recall but are exempt from the
                    CI ground-truth gate. *)

type rw = Ww | Rw

type idiom =
  | Sync_counter
  | Rendezvous_race of rw
  | Join_handoff
  | Start_chain
  | Ping_pong
  | Oneshot_handoff
  | Mixed_object
  | Worker_pool of bool (* racy twin? *)
  | Hidden_race

type unit_spec = { u_id : int; u_idiom : idiom; u_iters : int }

type spec = { sp_index : int; sp_units : unit_spec list }

(* Hidden_race needs a second post-demotion write for the
   always-reporting detectors to be guaranteed their report. *)
let min_iters = function Hidden_race -> 2 | _ -> 1

let make_unit ~id ~idiom ~iters =
  { u_id = id; u_idiom = idiom; u_iters = max iters (min_iters idiom) }

let idiom_name = function
  | Sync_counter -> "sync-counter"
  | Rendezvous_race Ww -> "rendezvous-ww"
  | Rendezvous_race Rw -> "rendezvous-rw"
  | Join_handoff -> "join-handoff"
  | Start_chain -> "start-chain"
  | Ping_pong -> "ping-pong"
  | Oneshot_handoff -> "oneshot-handoff"
  | Mixed_object -> "mixed-object"
  | Worker_pool false -> "worker-pool"
  | Worker_pool true -> "worker-pool-racy"
  | Hidden_race -> "hidden-race"

let all_idioms =
  [
    Sync_counter;
    Rendezvous_race Ww;
    Rendezvous_race Rw;
    Join_handoff;
    Start_chain;
    Ping_pong;
    Oneshot_handoff;
    Mixed_object;
    Worker_pool false;
    Worker_pool true;
    Hidden_race;
  ]

let pp_unit ppf u =
  Fmt.pf ppf "u%d:%s x%d" u.u_id (idiom_name u.u_idiom) u.u_iters

let pp_spec ppf sp =
  Fmt.pf ppf "#%d [%a]" sp.sp_index
    (Fmt.list ~sep:(Fmt.any "; ") pp_unit)
    sp.sp_units

(* ---- ground truth ---- *)

type cell = {
  c_marker : string;
  c_prefix : bool; (* marker is an object-identity prefix, not an exact name *)
  c_racy : bool;
  c_guaranteed : bool;
      (* racy cells only: every detector reports it in every schedule,
         so a silent detector has unambiguously missed ground truth *)
}

let static_cell ~racy ?(guaranteed = true) marker =
  { c_marker = marker; c_prefix = false; c_racy = racy; c_guaranteed = guaranteed }

let object_cell marker =
  { c_marker = marker; c_prefix = true; c_racy = false; c_guaranteed = false }

let cell_matches c desc =
  if c.c_prefix then String.starts_with ~prefix:c.c_marker desc
  else String.equal c.c_marker desc

let truth_of_unit u =
  let k = u.u_id in
  let ds = Printf.sprintf "G.d%ds" k in
  let dr = Printf.sprintf "G.d%dr" k in
  match u.u_idiom with
  | Sync_counter -> [ static_cell ~racy:false ds ]
  | Rendezvous_race Ww -> [ static_cell ~racy:true dr ]
  | Rendezvous_race Rw ->
      [ static_cell ~racy:true dr; static_cell ~racy:false ds ]
  | Join_handoff -> [ static_cell ~racy:false ds ]
  | Start_chain -> [ static_cell ~racy:false ds ]
  | Ping_pong -> [ static_cell ~racy:false ds ]
  | Oneshot_handoff -> [ static_cell ~racy:false ds ]
  | Mixed_object -> [ object_cell (Printf.sprintf "Mix%d#" k) ]
  | Worker_pool racy ->
      [ object_cell (Printf.sprintf "Q%d#" k); static_cell ~racy:false ds ]
      @ if racy then [ static_cell ~racy:true dr ] else []
  | Hidden_race ->
      [
        static_cell ~racy:true ~guaranteed:false dr;
        static_cell ~racy:false (Printf.sprintf "G.t%d" k);
      ]

let truth sp = List.concat_map truth_of_unit sp.sp_units

(* ---- MiniJava emission ---- *)

type emitted = {
  e_classes : string list;
  e_init : string list; (* main, before any thread is created *)
  e_threads : (string * string) list; (* class, var: created/started/joined *)
  e_post : string list; (* main, after every join *)
}

(* `synchronized (G.l<k>) { G.<flag> = true; G.l<k>.notifyAll(); }` *)
let signal k flag =
  Printf.sprintf "synchronized (G.l%d) { G.%s%d = true; G.l%d.notifyAll(); }" k
    flag k k

(* `synchronized (G.l<k>) { while (!G.<flag>) { G.l<k>.wait(); } }` *)
let await k flag =
  Printf.sprintf "synchronized (G.l%d) { while (!G.%s%d) { G.l%d.wait(); } }" k
    flag k k

let thread_class name body =
  let b = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string b) "class %s extends Thread {\n" name;
  Buffer.add_string b "  void run() {\n";
  List.iter
    (fun line -> Buffer.add_string b ("    " ^ line ^ "\n"))
    body;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let for_n n body = Printf.sprintf "for (int i = 0; i < %d; i = i + 1) { %s }" n body

let emit_unit u : emitted =
  let k = u.u_id in
  let n = u.u_iters in
  let cls suffix = Printf.sprintf "U%d%s" k suffix in
  let var suffix = Printf.sprintf "u%d%s" k suffix in
  let init_lock = Printf.sprintf "G.l%d = new Object();" k in
  let two_threads a_body b_body =
    [ thread_class (cls "A") a_body; thread_class (cls "B") b_body ]
  in
  match u.u_idiom with
  | Sync_counter ->
      let body =
        [ for_n n (Printf.sprintf "synchronized (G.l%d) { G.d%ds = G.d%ds + 1; }" k k k) ]
      in
      {
        e_classes = two_threads body body;
        e_init = [ init_lock ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }
  | Rendezvous_race rw ->
      let a_body =
        [
          Printf.sprintf "G.d%dr = 1;" k;
          signal k "a";
          await k "b";
          for_n n (Printf.sprintf "G.d%dr = G.d%dr + 1;" k k);
        ]
      in
      let b_body =
        match rw with
        | Ww ->
            [
              Printf.sprintf "G.d%dr = 2;" k;
              signal k "b";
              await k "a";
              for_n n (Printf.sprintf "G.d%dr = G.d%dr + 2;" k k);
            ]
        | Rw ->
            [
              Printf.sprintf "G.d%ds = G.d%dr;" k k;
              signal k "b";
              await k "a";
              for_n n (Printf.sprintf "G.d%ds = G.d%ds + G.d%dr;" k k k);
            ]
      in
      {
        e_classes = two_threads a_body b_body;
        e_init = [ init_lock ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }
  | Join_handoff ->
      {
        e_classes =
          [
            thread_class (cls "A")
              [ for_n n (Printf.sprintf "G.d%ds = G.d%ds + 1;" k k) ];
          ];
        e_init = [ init_lock; Printf.sprintf "G.d%ds = 1;" k ];
        e_threads = [ (cls "A", var "a") ];
        e_post = [ Printf.sprintf "print(\"u%d\", G.d%ds);" k k ];
      }
  | Start_chain ->
      let write = Printf.sprintf "G.d%ds = G.d%ds + 1;" k k in
      let start_next suffix =
        Printf.sprintf "%s t = new %s(); t.start();" (cls suffix) (cls suffix)
      in
      {
        e_classes =
          [
            thread_class (cls "A") [ write; start_next "B" ];
            thread_class (cls "B") [ write; start_next "C" ];
            thread_class (cls "C") [ write ];
          ];
        e_init = [ init_lock ];
        (* main can only join the chain's head; B and C just run to
           completion (the VM waits for every thread). *)
        e_threads = [ (cls "A", var "a") ];
        e_post = [];
      }
  | Ping_pong ->
      let a_body =
        [
          Printf.sprintf "G.d%ds = 1;" k;
          signal k "a";
          await k "b";
          for_n n (Printf.sprintf "G.d%ds = G.d%ds + 1;" k k);
        ]
      in
      let b_body =
        [
          await k "a";
          Printf.sprintf "G.d%ds = G.d%ds + 3;" k k;
          signal k "b";
        ]
      in
      {
        e_classes = two_threads a_body b_body;
        e_init = [ init_lock ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }
  | Oneshot_handoff ->
      (* The consumer's access must be a single plain write: an
         increment would read first, spending objrace's
         demotion-access grace, and the write would then report. *)
      let a_body = [ Printf.sprintf "G.d%ds = 7;" k; signal k "a" ] in
      let b_body = [ await k "a"; Printf.sprintf "G.d%ds = 9;" k ] in
      {
        e_classes = two_threads a_body b_body;
        e_init = [ init_lock ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }
  | Mixed_object ->
      let mix =
        Printf.sprintf
          "class Mix%d {\n  int imm; int cnt;\n  int get() { return imm; }\n}\n"
          k
      in
      let body =
        [
          for_n n
            (Printf.sprintf
               "int v = G.m%d.get(); synchronized (G.l%d) { G.m%d.cnt = G.m%d.cnt + v; }"
               k k k k);
        ]
      in
      {
        e_classes = mix :: two_threads body body;
        e_init =
          [
            init_lock;
            Printf.sprintf "G.m%d = new Mix%d();" k k;
            Printf.sprintf "G.m%d.imm = 5;" k;
          ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }
  | Worker_pool racy ->
      let q =
        Printf.sprintf
          "class Q%d {\n\
          \  int[] slots; int size;\n\
          \  Q%d() { slots = new int[8]; size = 0; }\n\
          \  synchronized void put(int v) {\n\
          \    if (size < 8) { slots[size] = v; size = size + 1; }\n\
          \  }\n\
          \  synchronized int take() {\n\
          \    if (size > 0) { size = size - 1; return slots[size]; }\n\
          \    return 0 - 1;\n\
          \  }\n\
           }\n"
          k k
      in
      let drain =
        for_n n
          (Printf.sprintf
             "int v = G.q%d.take(); synchronized (G.l%d) { G.d%ds = G.d%ds + v; }"
             k k k k)
      in
      let a_body, b_body =
        if racy then
          ( [
              drain;
              Printf.sprintf "G.d%dr = 1;" k;
              signal k "a";
              await k "b";
              Printf.sprintf "G.d%dr = G.d%dr + 1;" k k;
            ],
            [
              drain;
              Printf.sprintf "G.d%dr = 2;" k;
              signal k "b";
              await k "a";
              Printf.sprintf "G.d%dr = G.d%dr + 2;" k k;
            ] )
        else ([ drain ], [ drain ])
      in
      {
        e_classes = q :: two_threads a_body b_body;
        e_init =
          [
            init_lock;
            Printf.sprintf "G.q%d = new Q%d();" k k;
            Printf.sprintf "for (int i = 0; i < 4; i = i + 1) { G.q%d.put(i); }"
              k;
          ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }
  | Hidden_race ->
      let a_body =
        [
          for_n n (Printf.sprintf "G.d%dr = G.d%dr + 1;" k k);
          Printf.sprintf "synchronized (G.l%d) { G.t%d = G.t%d + 1; }" k k k;
        ]
      in
      let b_body =
        [
          Printf.sprintf "synchronized (G.l%d) { G.t%d = G.t%d + 1; }" k k k;
          for_n n (Printf.sprintf "G.d%dr = G.d%dr + 2;" k k);
        ]
      in
      {
        e_classes = two_threads a_body b_body;
        e_init = [ init_lock ];
        e_threads = [ (cls "A", var "a"); (cls "B", var "b") ];
        e_post = [];
      }

let emit (sp : spec) : string =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let units = List.map (fun u -> (u, emit_unit u)) sp.sp_units in
  (* The shared static-cell class. *)
  pf "class G {\n";
  List.iter
    (fun (u, _) ->
      let k = u.u_id in
      pf "  static int d%ds; static int d%dr; static int t%d;\n" k k k;
      pf "  static boolean a%d; static boolean b%d;\n" k k;
      pf "  static Object l%d;\n" k;
      match u.u_idiom with
      | Mixed_object -> pf "  static Mix%d m%d;\n" k k
      | Worker_pool _ -> pf "  static Q%d q%d;\n" k k
      | _ -> ())
    units;
  pf "}\n";
  List.iter (fun (_, e) -> List.iter (pf "%s") e.e_classes) units;
  pf "class Main {\n  static void main() {\n";
  List.iter
    (fun (_, e) -> List.iter (pf "    %s\n") e.e_init)
    units;
  List.iter
    (fun (_, e) ->
      List.iter
        (fun (c, v) -> pf "    %s %s = new %s();\n" c v c)
        e.e_threads)
    units;
  List.iter
    (fun (_, e) -> List.iter (fun (_, v) -> pf "    %s.start();\n" v) e.e_threads)
    units;
  List.iter
    (fun (_, e) -> List.iter (fun (_, v) -> pf "    %s.join();\n" v) e.e_threads)
    units;
  List.iter (fun (_, e) -> List.iter (pf "    %s\n") e.e_post) units;
  pf "    print(\"end\", 0);\n";
  pf "  }\n}\n";
  Buffer.contents b

(* ---- QCheck generation ---- *)

let idiom_gen : idiom QCheck.Gen.t =
  QCheck.Gen.frequency
    [
      (2, QCheck.Gen.return Sync_counter);
      (2, QCheck.Gen.map (fun b -> Rendezvous_race (if b then Ww else Rw)) QCheck.Gen.bool);
      (2, QCheck.Gen.return Join_handoff);
      (1, QCheck.Gen.return Start_chain);
      (2, QCheck.Gen.return Ping_pong);
      (2, QCheck.Gen.return Oneshot_handoff);
      (2, QCheck.Gen.return Mixed_object);
      (1, QCheck.Gen.return (Worker_pool false));
      (1, QCheck.Gen.return (Worker_pool true));
      (2, QCheck.Gen.return Hidden_race);
    ]

let unit_gen id : unit_spec QCheck.Gen.t =
  QCheck.Gen.map2
    (fun idiom iters -> make_unit ~id ~idiom ~iters)
    idiom_gen
    (QCheck.Gen.int_range 1 3)

let spec_gen ?(max_units = 4) ~index () : spec QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 (max 1 max_units) >>= fun n ->
  let rec units i =
    if i >= n then return []
    else map2 (fun u rest -> u :: rest) (unit_gen i) (units (i + 1))
  in
  map (fun us -> { sp_index = index; sp_units = us }) (units 0)

(* Deterministic batch generation: one [Random.State] seeded from
   [seed] drives every program, so a (seed, count, max_units) triple
   names the corpus exactly. *)
let generate ?(seed = 42) ~count ?(max_units = 4) () : spec list =
  let rand = Random.State.make [| 0x9e3779b9; seed |] in
  List.init count (fun index -> spec_gen ~max_units ~index () rand)
