(* Link-time trace specialization (Specialize + Link + the Pipeline
   fast paths).

   Two families:

   - Soundness pins.  The classifier may specialize a site only when
     the licensing fact holds for {e every} execution of that site.
     Each near-miss program here embodies a fact that {e usually} holds
     but provably not always — a lock held on one call path and dropped
     on another, a receiver aliasing two allocation sites, a single
     post-start write to an otherwise read-only static — and the tests
     pin that the affected sites stay generic (no spec cell) and that
     the specialized engine is byte-identical to the frozen reference
     interpreter on them anyway.

   - Positive classification + exactness.  Programs where the facts do
     hold get their expected classes, and a late-escape program (object
     owned by its thread, read by main only after join) shows the owner
     fast path demoting exactly: same races, same event log, same
     counts as the reference engine. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Link = Drd_ir.Link
module Ir = Drd_ir.Ir
module Site_table = Drd_ir.Site_table
module Interp = Drd_vm.Interp
module Sink = Drd_vm.Sink
open Drd_core

let compile source = Pipeline.compile Config.full ~source

(* All site ids whose registry entry lives in [meth]; [desc] further
   restricts to sites whose description mentions that token (e.g. "f"
   to select the accesses of field f and skip the receiver loads). *)
let sites_of_method ?desc (c : Pipeline.compiled) meth =
  let acc = ref [] in
  Site_table.iter c.Pipeline.prog.Ir.p_sites (fun id info ->
      let keep =
        info.Site_table.s_method = meth
        &&
        match desc with
        | None -> true
        | Some d ->
            let s = info.Site_table.s_desc in
            s = "read " ^ d || s = "write " ^ d
      in
      if keep then acc := id :: !acc);
  List.rev !acc

let class_of c site = Link.spec_class_of_site c.Pipeline.image site

let check_all_generic ?desc name c meth =
  let sites = sites_of_method ?desc c meth in
  Alcotest.(check bool)
    (name ^ ": " ^ meth ^ " has traced sites")
    true (sites <> []);
  List.iter
    (fun s ->
      match class_of c s with
      | None -> ()
      | Some _ ->
          Alcotest.failf "%s: site %d (%s) specialized, must stay generic"
            name s
            (Site_table.name c.Pipeline.prog.Ir.p_sites s))
    sites

let has_class c meth cls =
  List.exists (fun s -> class_of c s = Some cls) (sites_of_method c meth)

(* Engine byte-identity on the contract outputs, including the full
   tapped event log (the tap composes with the spec fast paths, so a
   dropped event would show up as a log divergence). *)
let observe engine c =
  let log = Event_log.create () in
  let tap =
    {
      Sink.null with
      Sink.access =
        (fun ~tid ~loc ~kind ~locks ~site ->
          Event_log.record log
            (Event_log.Access
               (Event.make_interned ~loc ~thread:tid ~locks ~kind ~site)));
      acquire =
        (fun ~tid ~lock -> Event_log.record log (Event_log.Acquire (tid, lock)));
      release =
        (fun ~tid ~lock -> Event_log.record log (Event_log.Release (tid, lock)));
    }
  in
  let r = Pipeline.run ~tap ~engine c in
  (r, Event_log.entries log)

let check_identity name c =
  let r_ref, log_ref = observe `Ref c in
  let r_spec, log_spec = observe `Spec c in
  Alcotest.(check (list string))
    (name ^ " races") r_ref.Pipeline.races r_spec.Pipeline.races;
  Alcotest.(check (list string))
    (name ^ " objects") r_ref.Pipeline.racy_objects r_spec.Pipeline.racy_objects;
  Alcotest.(check int) (name ^ " events") r_ref.Pipeline.events
    r_spec.Pipeline.events;
  Alcotest.(check int) (name ^ " steps") r_ref.Pipeline.steps
    r_spec.Pipeline.steps;
  Alcotest.(check bool) (name ^ " event log") true (log_ref = log_spec)

(* --------------------------------------------------------------- *)
(* Near miss 1: the lock is held around the hot call most of the
   time, but one call path drops it.  must-sync ∩ may-sync differ at
   bump's sites, so Sfixed must not fire; the location is static, so
   neither can Sowned; the writes are post-start, so neither can Sro. *)

let near_miss_lock_one_path =
  {|
    class W extends Thread {
      void bump() { Main.x = Main.x + 1; }
      void run() {
        synchronized (Main.lk) { bump(); }
        bump();
      }
    }
    class Main {
      static int x;
      static Object lk;
      static void main() {
        Main.lk = new Object();
        W w = new W();
        w.start();
        synchronized (Main.lk) { Main.x = Main.x + 1; }
        w.join();
        print("x", Main.x);
      }
    }
  |}

let test_near_miss_lock_one_path () =
  let c = compile near_miss_lock_one_path in
  check_all_generic "lock-one-path" c "W.bump";
  check_identity "lock-one-path" c

(* Near miss 2: the receiver field aliases two allocation sites (the
   may points-to set is not a singleton), so the component is not
   managed and Sowned must not fire; the helper runs both with and
   without the lock, so Sfixed must not fire either. *)

let near_miss_alias =
  {|
    class D { int f; }
    class W extends Thread {
      D d;
      Object lk;
      void poke() { this.d.f = this.d.f + 1; }
      void run() {
        synchronized (this.lk) { poke(); }
        poke();
      }
    }
    class Main {
      static void main() {
        D a = new D();
        D b = new D();
        W w1 = new W(); w1.d = a; w1.lk = new Object();
        W w2 = new W(); w2.d = b; w2.lk = new Object();
        w1.start(); w2.start();
        w1.join(); w2.join();
        print("f", a.f + b.f);
      }
    }
  |}

let test_near_miss_alias () =
  let c = compile near_miss_alias in
  (* The D.f accesses are the near miss (the receiver-load sites on W.d
     are genuinely read-only after init, which may classify). *)
  check_all_generic ~desc:"f" "alias" c "W.poke";
  check_identity "alias" c

(* Near miss 3: a static that is read-only for almost the whole run —
   except for one unsynchronized write after the readers have started.
   The post-start write defeats Sro for the reads; peek runs both
   locked and unlocked, defeating Sfixed; statics are never owned. *)

let near_miss_post_start_write =
  {|
    class R extends Thread {
      int peek() { return Main.cfg; }
      void run() {
        int a = 0;
        synchronized (Main.lk) { a = this.peek(); }
        int b = this.peek();
        print("r", a + b);
      }
    }
    class Main {
      static int cfg;
      static Object lk;
      static void main() {
        Main.lk = new Object();
        Main.cfg = 7;
        R r = new R();
        r.start();
        Main.cfg = 8;
        r.join();
        print("cfg", Main.cfg);
      }
    }
  |}

let test_near_miss_post_start_write () =
  let c = compile near_miss_post_start_write in
  check_all_generic "post-start-write" c "R.peek";
  check_identity "post-start-write" c

(* --------------------------------------------------------------- *)
(* Positive classifications. *)

let fixed_positive =
  {|
    class W extends Thread {
      void run() {
        synchronized (Main.lk) { Main.x = Main.x + 1; }
      }
    }
    class Main {
      static int x;
      static Object lk;
      static void main() {
        Main.lk = new Object();
        W w1 = new W();
        W w2 = new W();
        w1.start(); w2.start();
        w1.join(); w2.join();
        print("x", Main.x);
      }
    }
  |}

let test_fixed_positive () =
  let c = compile fixed_positive in
  Alcotest.(check bool)
    "W.run has an Sfixed site" true
    (has_class c "W.run" Link.Sfixed);
  check_identity "fixed-positive" c

let ro_positive =
  {|
    class R extends Thread {
      void run() { print("k", Main.k); }
    }
    class Main {
      static int k;
      static void main() {
        Main.k = 7;
        R r1 = new R();
        R r2 = new R();
        r1.start(); r2.start();
        r1.join(); r2.join();
      }
    }
  |}

let test_ro_positive () =
  let c = compile ro_positive in
  Alcotest.(check bool)
    "R.run has an Sro site" true
    (has_class c "R.run" Link.Sro);
  check_identity "ro-positive" c

(* Owned component with a late escape: each worker touches only its own
   D (single allocation site, helper called locked and unlocked so the
   sites are Sowned, not Sfixed), and after the joins main reads the
   workers' fields — the escape.  The specialized engine must demote at
   the escape and report exactly what the reference engine reports. *)

let owned_late_escape =
  {|
    class D { int f; }
    class W extends Thread {
      D d;
      void touch() { this.d.f = this.d.f + 1; }
      void run() {
        this.d = new D();
        synchronized (this) { this.touch(); }
        this.touch();
      }
    }
    class Main {
      static void main() {
        W w1 = new W();
        W w2 = new W();
        w1.start(); w2.start();
        w1.join(); w2.join();
        print("f1", w1.d.f);
        print("f2", w2.d.f);
      }
    }
  |}

let test_owned_late_escape () =
  let c = compile owned_late_escape in
  Alcotest.(check bool)
    "W.touch has an Sowned site" true
    (has_class c "W.touch" Link.Sowned);
  check_identity "owned-late-escape" c

(* --------------------------------------------------------------- *)
(* Lockset-id stability.  The Sfixed memo packs the runtime lockset id
   into its key, relying on two facts: interning is canonical (the id
   is a pure function of the member set, so re-interning the sorted
   members returns the same id), and at a Fixed site each thread
   observes one single id between forks, because the dynamic lockset is
   statically pinned.  The first is a QCheck property over arbitrary
   lock sets; the second is checked against a live run's tap. *)

let prop_intern_canonical =
  QCheck.Test.make ~count:500 ~name:"re-interning sorted members is identity"
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 10) (int_range 1 40))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun locks ->
      let id = Lockset_id.of_list locks in
      Lockset_id.of_list (Lockset_id.to_sorted_list id) = id
      && Lockset_id.intern (Lockset_id.set_of id) = id)

let test_fixed_site_lockset_stable () =
  let c = compile fixed_positive in
  let fixed_sites =
    List.filter
      (fun s -> class_of c s = Some Link.Sfixed)
      (sites_of_method c "W.run")
  in
  Alcotest.(check bool) "found Sfixed sites" true (fixed_sites <> []);
  (* site -> thread -> set of observed lockset ids *)
  let seen : (int * int, (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let tap =
    {
      Sink.null with
      Sink.access =
        (fun ~tid ~loc:_ ~kind:_ ~locks ~site ->
          if List.mem site fixed_sites then begin
            let ids =
              match Hashtbl.find_opt seen (site, tid) with
              | Some ids -> ids
              | None ->
                  let ids = Hashtbl.create 4 in
                  Hashtbl.add seen (site, tid) ids;
                  ids
            in
            Hashtbl.replace ids (locks :> int) ()
          end);
    }
  in
  ignore (Pipeline.run ~tap ~engine:`Spec c);
  Alcotest.(check bool) "fixed sites produced events" true
    (Hashtbl.length seen > 0);
  Hashtbl.iter
    (fun (site, tid) ids ->
      if Hashtbl.length ids <> 1 then
        Alcotest.failf
          "Sfixed site %d saw %d distinct lockset ids for thread %d" site
          (Hashtbl.length ids) tid;
      (* The observed id round-trips through canonical re-interning. *)
      Hashtbl.iter
        (fun id () ->
          Alcotest.(check int)
            (Printf.sprintf "site %d id canonical" site)
            id
            (Lockset_id.of_list (Lockset_id.to_sorted_list id) :> int))
        ids)
    seen

(* --------------------------------------------------------------- *)
(* Memo keys must not alias.  The Sfixed memo packs the location into
   the top bits of its key.  A location of 2^31 or more (a field of an
   object with heap id 2^20 or more) does not fit: packing it anyway
   wrapped the key onto the same field of the object 2^21 ids lower.
   In [memo_alias.mj], [G.a] and [G.b] lie 2^21 ids apart.  Both threads
   write [G.a.f], each under its own pseudo-lock, in a hand-off through
   [G.phase] that orders them, which memoizes their keys.  Their later
   writes to [G.b.f] race; the wrapped key made the memo drop the second
   thread's write, and the specialized engine reported nothing.  Each
   run allocates 2^21 objects and takes about a second. *)

let test_memo_keys_do_not_alias () =
  let c = compile (In_channel.with_open_bin "memo_alias.mj" In_channel.input_all) in
  Alcotest.(check bool)
    "U.touch has an Sfixed site" true
    (has_class c "U.touch" Link.Sfixed);
  List.iter
    (fun (name, engine) ->
      let r = Pipeline.run ~engine c in
      Alcotest.(check (list string))
        (name ^ " races") [ "Box#2097154.f" ] r.Pipeline.races)
    [ ("ref", `Ref); ("linked", `Linked); ("spec", `Spec) ]

let suite =
  [
    Alcotest.test_case "near miss: lock dropped on one path" `Quick
      test_near_miss_lock_one_path;
    Alcotest.test_case "near miss: two-allocation-site alias" `Quick
      test_near_miss_alias;
    Alcotest.test_case "near miss: single post-start write" `Quick
      test_near_miss_post_start_write;
    Alcotest.test_case "positive: fixed lockset" `Quick test_fixed_positive;
    Alcotest.test_case "positive: read-only after init" `Quick
      test_ro_positive;
    Alcotest.test_case "positive: owned with late escape" `Quick
      test_owned_late_escape;
    QCheck_alcotest.to_alcotest prop_intern_canonical;
    Alcotest.test_case "fixed sites see one lockset id per thread" `Quick
      test_fixed_site_lockset_stable;
    Alcotest.test_case "memo keys of distant objects do not alias" `Quick
      test_memo_keys_do_not_alias;
  ]
