(* The interface between the running (instrumented) program and a
   datarace detector.  The VM pushes access events at [Trace]
   pseudo-instructions (or, in [all_accesses] mode, at every memory
   access), plus the synchronization and thread-lifecycle notifications
   the runtime optimizer and the happens-before baseline need. *)

open Drd_core

type t = {
  access :
    tid:Event.thread_id ->
    loc:Event.loc_id ->
    kind:Event.kind ->
    locks:Lockset_id.id ->
    site:Event.site_id ->
    unit;
  acquire : tid:Event.thread_id -> lock:Event.lock_id -> unit;
      (* outermost acquisition of a real lock *)
  release : tid:Event.thread_id -> lock:Event.lock_id -> unit;
  thread_start : parent:Event.thread_id -> child:Event.thread_id -> unit;
  thread_join : joiner:Event.thread_id -> joinee:Event.thread_id -> unit;
  thread_exit : tid:Event.thread_id -> unit;
  call :
    (tid:Event.thread_id ->
    obj:int ->
    locks:Lockset_id.id ->
    site:Event.site_id ->
    unit)
    option;
      (* invoked at every virtual call with the receiver object; used by
         the object-race baseline, which treats a method call on an
         object as a write to it *)
  spec :
    (cell:int ->
    tid:Event.thread_id ->
    loc:Event.loc_id ->
    kind:Event.kind ->
    locks:Lockset_id.id ->
    site:Event.site_id ->
    unit)
    option;
      (* specialized-trace entry point: when present, the VM routes
         events from specialized trace ops here (with the link-assigned
         spec cell id) instead of [access]; the handler owns the
         fast-path state and falls back to the same work [access] does.
         When absent, specialized ops behave exactly like generic ones.
         A [spec] handler must be observationally equivalent to [access]
         for every contract output (reports, event counts); only
         detector-internal statistics may differ. *)
}

(* ---- the FNV-1a step of the schedule fingerprints ----

   Both fingerprints fold with these: the raw order-sensitive one
   (computed by every [Pipeline.run], with [Explore.fingerprint_tap] as
   its reference definition) and the happens-before one
   ([Hb_fingerprint], which re-exports them).  They live here, below
   both, because the harness cannot see the explore library.

   [mask] truncates to 46 bits: fingerprints cross the shard wire as
   JSON integers, and 46 bits keeps them exactly representable both in
   OCaml's 63-bit ints and in the IEEE doubles any off-the-shelf JSON
   consumer parses numbers into (< 2^53), with headroom for the hb
   tap's commutative sum fold. *)

let fnv_offset = 0x811C9DC5
let fnv_prime = 0x01000193
let mask = 0x3FFFFFFFFFFF
let mix fp v = ((fp lxor v) * fnv_prime) land mask

let null =
  {
    access = (fun ~tid:_ ~loc:_ ~kind:_ ~locks:_ ~site:_ -> ());
    acquire = (fun ~tid:_ ~lock:_ -> ());
    release = (fun ~tid:_ ~lock:_ -> ());
    thread_start = (fun ~parent:_ ~child:_ -> ());
    thread_join = (fun ~joiner:_ ~joinee:_ -> ());
    thread_exit = (fun ~tid:_ -> ());
    call = None;
    spec = None;
  }

(* Fan one event stream out to two consumers, [a] first.  Lets a
   campaign observe the schedule (fingerprinting, counting) without the
   detector wiring knowing about it. *)
let tee a b =
  {
    access =
      (fun ~tid ~loc ~kind ~locks ~site ->
        a.access ~tid ~loc ~kind ~locks ~site;
        b.access ~tid ~loc ~kind ~locks ~site);
    acquire =
      (fun ~tid ~lock ->
        a.acquire ~tid ~lock;
        b.acquire ~tid ~lock);
    release =
      (fun ~tid ~lock ->
        a.release ~tid ~lock;
        b.release ~tid ~lock);
    thread_start =
      (fun ~parent ~child ->
        a.thread_start ~parent ~child;
        b.thread_start ~parent ~child);
    thread_join =
      (fun ~joiner ~joinee ->
        a.thread_join ~joiner ~joinee;
        b.thread_join ~joiner ~joinee);
    thread_exit =
      (fun ~tid ->
        a.thread_exit ~tid;
        b.thread_exit ~tid);
    call =
      (match (a.call, b.call) with
      | None, None -> None
      | fa, fb ->
          Some
            (fun ~tid ~obj ~locks ~site ->
              (match fa with Some f -> f ~tid ~obj ~locks ~site | None -> ());
              match fb with Some f -> f ~tid ~obj ~locks ~site | None -> ()));
    spec =
      (* A side without a spec handler still sees every specialized
         event through its ordinary [access], so taps (fingerprints,
         logs) observe streams byte-identical to the generic engine. *)
      (match (a.spec, b.spec) with
      | None, None -> None
      | fa, fb ->
          Some
            (fun ~cell ~tid ~loc ~kind ~locks ~site ->
              (match fa with
              | Some f -> f ~cell ~tid ~loc ~kind ~locks ~site
              | None -> a.access ~tid ~loc ~kind ~locks ~site);
              match fb with
              | Some f -> f ~cell ~tid ~loc ~kind ~locks ~site
              | None -> b.access ~tid ~loc ~kind ~locks ~site));
  }
