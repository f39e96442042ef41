(* Happens-before interleaving fingerprints (partial-order reduction).

   The raw fingerprint ([Pipeline.result.fingerprint], reference
   definition [Explore.fingerprint_tap]) hashes the exact event order,
   so two schedules that differ only by commuting independent events —
   accesses by different threads to different locations, with no
   synchronization between them — count as distinct and both pay full
   detector replay.  This tap instead maintains per-thread vector
   clocks over the sync edges the detector can observe (lock
   release→acquire, thread start/join) plus per-location access
   ordering, and folds each access as a commutative (order-insensitive)
   hash of its (location, kind, thread, clock-snapshot).

   Two runs then get equal fingerprints iff every access has the same
   causal past — i.e. they induce the same happens-before order on
   dependent events.  Commuting an independent adjacent pair changes no
   clock, so the multiset of access hashes (and the fingerprint) is
   preserved; reordering dependent events (same thread, same location,
   or across a sync edge followed by an access) changes at least one
   snapshot.  The relation is conservative: accesses to the same
   location are ordered regardless of kind, and every lock hand-off
   counts even when no conflicting access rides it, so equivalence
   classes are never too coarse for the detector — pruning a replay is
   sound — merely sometimes finer than the ideal Mazurkiewicz trace. *)

open Drd_core

(* ---- the FNV-1a step, shared with the raw fingerprint ----

   The constants are defined once in Drd_vm.Sink (with the 46-bit
   wire-int rationale for the mask) and re-exported here.  [mix] is
   [Sink.mix] restated module-locally: under [-opaque] a call to
   [Sink.mix] could not be inlined into the clock loops below (DESIGN
   §12(b)).  The pinned fingerprints in [test_hb_fingerprint.ml] hold
   the two to the same values. *)

let fnv_offset = Drd_vm.Sink.fnv_offset
let fnv_prime = Drd_vm.Sink.fnv_prime
let mask = Drd_vm.Sink.mask
let[@inline] mix fp v = ((fp lxor v) * fnv_prime) land mask

let kind_code = function Event.Read -> 17 | Event.Write -> 23

(* Each FNV step is locally affine — (h ⊕ v) * p — so two snapshots
   differing in one small clock component produce hashes whose
   difference is a small multiple of a power of [fnv_prime], and under
   the commutative sum fold below a few such correlated differences can
   cancel exactly: QCheck found two inequivalent schedules colliding
   within thousands of cases, wildly above the 2^-46 chance rate.  A
   SplitMix64-style avalanche over every snapshot hash destroys the
   affine structure before it reaches the sum.  (62-bit truncations of
   the SplitMix64 constants, as in Strategy.mix — OCaml ints are 63
   bits.) *)
let avalanche h =
  let z = ref ((h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9) in
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land mask

(* ---- growable vector clocks ----

   Same idea as the happens-before baseline's Drd_baselines.Vclock, but
   growable on demand (campaign programs choose their own thread
   counts) and with a canonical snapshot hash: trailing zeros never
   contribute, so <1,0> and <1> hash identically. *)

type clock = { mutable c : int array }

let clock () = { c = [||] }

let ensure k n =
  if Array.length k.c < n then begin
    let a = Array.make (max n ((2 * Array.length k.c) + 4)) 0 in
    Array.blit k.c 0 a 0 (Array.length k.c);
    k.c <- a
  end

let tick k i =
  ensure k (i + 1);
  k.c.(i) <- k.c.(i) + 1

(* dst := dst ⊔ src.  Plain loops here and below: [Array.iteri] would
   allocate a closure per call, and these run on every access. *)
let join dst src =
  let s = src.c in
  ensure dst (Array.length s);
  let d = dst.c in
  for i = 0 to Array.length s - 1 do
    let v = Array.unsafe_get s i in
    if v > Array.unsafe_get d i then Array.unsafe_set d i v
  done

(* dst := src *)
let assign dst src =
  let n = Array.length src.c in
  ensure dst n;
  Array.blit src.c 0 dst.c 0 n;
  Array.fill dst.c n (Array.length dst.c - n) 0

(* Mix the nonzero components as (index, value) pairs in index order —
   the canonical form of the snapshot. *)
let mix_clock h k =
  let c = k.c in
  let h = ref h in
  for i = 0 to Array.length c - 1 do
    let v = Array.unsafe_get c i in
    if v <> 0 then h := mix (mix !h (i + 1)) v
  done;
  !h

(* ---- the tap ---- *)

(* Lock and location clocks, keyed by int id in [Int_tbl]: a probe
   neither calls the polymorphic [caml_hash] nor allocates. *)
type state = {
  mutable threads : clock array; (* tid -> clock; tids are dense *)
  locks : clock Int_tbl.t;
  locs : clock Int_tbl.t; (* last access to each location *)
  mutable fp : int;
}

(* Filler for the free slots of the clock tables. *)
let no_clock = clock ()

let thread_clock st tid =
  let n = Array.length st.threads in
  if tid >= n then begin
    st.threads <-
      Array.init (max (tid + 1) (2 * n)) (fun i ->
          if i < n then st.threads.(i) else clock ())
  end;
  st.threads.(tid)

let clock_of tbl id =
  match Int_tbl.find tbl id with
  | k -> k
  | exception Not_found ->
      let k = clock () in
      Int_tbl.replace tbl id k;
      k

let tap () =
  let st =
    {
      threads = Array.init 8 (fun _ -> clock ());
      locks = Int_tbl.create 16 no_clock;
      locs = Int_tbl.create 64 no_clock;
      fp = fnv_offset;
    }
  in
  let access ~tid ~loc ~kind ~locks:_ ~site:_ =
    let tc = thread_clock st tid in
    let lc = clock_of st.locs loc in
    (* The access happens after every earlier access to the same
       location (conservative: reads too) and after everything its
       thread already did. *)
    join tc lc;
    tick tc tid;
    let h = mix (mix (mix (mix fnv_offset 5) tid) loc) (kind_code kind) in
    let h = mix_clock h tc in
    (* Commutative fold: addition, so independent events contribute the
       same no matter where in the schedule they landed. *)
    st.fp <- (st.fp + avalanche h) land mask;
    assign lc tc
  in
  let acquire ~tid ~lock =
    join (thread_clock st tid) (clock_of st.locks lock)
  in
  let release ~tid ~lock =
    join (clock_of st.locks lock) (thread_clock st tid)
  in
  let thread_start ~parent ~child =
    let pc = thread_clock st parent in
    join (thread_clock st child) pc;
    tick pc parent
  in
  let thread_join ~joiner ~joinee =
    join (thread_clock st joiner) (thread_clock st joinee)
  in
  ( {
      Drd_vm.Sink.null with
      Drd_vm.Sink.access;
      acquire;
      release;
      thread_start;
      thread_join;
    },
    fun () -> st.fp )
