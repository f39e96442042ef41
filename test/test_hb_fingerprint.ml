(* The happens-before fingerprint (lib/explore/hb_fingerprint.ml): the
   commutation property that justifies replay pruning.  Swapping two
   adjacent events of a log must preserve the HB fingerprint when the
   pair is independent (different threads, different locations, no sync
   edge between them) and change it when the pair conflicts or is
   sync-ordered — while the raw order-sensitive fingerprint changes in
   both cases, which is what makes HB equivalence strictly coarser. *)

module E = Drd_explore
module Hb = E.Hb_fingerprint
module Sink = Drd_vm.Sink
module Event = Drd_core.Event
module Lockset_id = Drd_core.Lockset_id

(* A synthetic event log, fed straight into the taps — no VM needed. *)
type op =
  | Acc of int * int * Event.kind (* tid, loc, kind *)
  | Acq of int * int (* tid, lock *)
  | Rel of int * int
  | Start of int * int (* parent, child *)
  | Join of int * int (* joiner, joinee *)

let apply (tap : Sink.t) = function
  | Acc (tid, loc, kind) ->
      tap.Sink.access ~tid ~loc ~kind ~locks:Lockset_id.empty ~site:0
  | Acq (tid, lock) -> tap.Sink.acquire ~tid ~lock
  | Rel (tid, lock) -> tap.Sink.release ~tid ~lock
  | Start (parent, child) -> tap.Sink.thread_start ~parent ~child
  | Join (joiner, joinee) -> tap.Sink.thread_join ~joiner ~joinee

let hb_fp ops =
  let tap, fp = Hb.tap () in
  List.iter (apply tap) ops;
  fp ()

let raw_fp ops =
  let tap, fp = E.Explore.fingerprint_tap () in
  List.iter (apply tap) ops;
  fp ()

let swap_at i ops =
  List.mapi
    (fun j op ->
      if j = i then List.nth ops (i + 1)
      else if j = i + 1 then List.nth ops i
      else op)
    ops

(* A little surrounding context so the swapped pair is not the whole
   log: same-thread accesses before and after, which also checks that
   downstream events feel (or don't feel) the reorder. *)
let in_context pair =
  [ Acc (0, 100, Event.Write); Acc (1, 101, Event.Write) ]
  @ pair
  @ [ Acc (0, 102, Event.Read); Acc (1, 103, Event.Read) ]

let check_swap ~what ~hb_preserved pair =
  let ops = in_context pair in
  let i = 2 (* the pair starts after the 2-op prefix *) in
  let swapped = swap_at i ops in
  Alcotest.(check bool)
    (what ^ ": hb fingerprint " ^ if hb_preserved then "preserved" else "changed")
    hb_preserved
    (hb_fp ops = hb_fp swapped);
  Alcotest.(check bool)
    (what ^ ": raw fingerprint changed")
    false
    (raw_fp ops = raw_fp swapped)

let test_independent_pair_preserved () =
  (* Different threads, different locations, no sync edge: the classic
     independent commutation.  HB equal, raw different — the HB
     relation is strictly coarser. *)
  check_swap ~what:"independent accesses" ~hb_preserved:true
    [ Acc (0, 1, Event.Write); Acc (1, 2, Event.Write) ];
  check_swap ~what:"independent reads" ~hb_preserved:true
    [ Acc (0, 1, Event.Read); Acc (1, 2, Event.Read) ]

let test_conflicting_pair_changed () =
  check_swap ~what:"write/read same location" ~hb_preserved:false
    [ Acc (0, 5, Event.Write); Acc (1, 5, Event.Read) ];
  check_swap ~what:"write/write same location" ~hb_preserved:false
    [ Acc (0, 5, Event.Write); Acc (1, 5, Event.Write) ];
  (* Same-location reads are dependent too — deliberately conservative:
     the detector's ownership filter cares which thread touched a
     location first even for reads. *)
  check_swap ~what:"read/read same location" ~hb_preserved:false
    [ Acc (0, 5, Event.Read); Acc (1, 5, Event.Read) ];
  (* Program order: two accesses of one thread never commute. *)
  check_swap ~what:"same-thread accesses" ~hb_preserved:false
    [ Acc (0, 1, Event.Write); Acc (0, 2, Event.Write) ]

let test_sync_ordered_pair_changed () =
  (* T0 releases a lock T1 then acquires: a hand-off edge.  Swapping
     the release/acquire pair reverses the edge, and T1's later access
     (in_context's suffix) no longer carries T0's clock. *)
  let log =
    [
      Acq (0, 9);
      Acc (0, 1, Event.Write);
      Rel (0, 9);
      Acq (1, 9);
      Acc (1, 2, Event.Write);
      Rel (1, 9);
    ]
  in
  let i = 2 (* Rel (0, 9); Acq (1, 9) *) in
  Alcotest.(check bool) "lock hand-off swap changes hb" false
    (hb_fp log = hb_fp (swap_at i log));
  Alcotest.(check bool) "lock hand-off swap changes raw" false
    (raw_fp log = raw_fp (swap_at i log));
  (* Thread start: the child's first access must order after the fork.
     Swapping the start with the child's access erases that edge. *)
  let fork = [ Acc (0, 1, Event.Write); Start (0, 1); Acc (1, 2, Event.Write) ] in
  Alcotest.(check bool) "fork-edge swap changes hb" false
    (hb_fp fork = hb_fp (swap_at 1 fork));
  (* Thread join mirrors it: the joiner's access after the join sees
     the joinee's clock only in the original order. *)
  let join =
    [ Acc (1, 1, Event.Write); Join (0, 1); Acc (0, 2, Event.Write) ]
  in
  Alcotest.(check bool) "join-edge swap changes hb" false
    (hb_fp join = hb_fp (swap_at 1 join))

let test_commuted_runs_share_class_across_whole_log () =
  (* Not just a single swap: two schedules of the same partial order
     with many independent events interleaved differently collapse to
     one class.  T0 works on locs 1..4, T1 on locs 11..14; round-robin
     vs sequential interleavings. *)
  let t0 = List.init 4 (fun i -> Acc (0, 1 + i, Event.Write)) in
  let t1 = List.init 4 (fun i -> Acc (1, 11 + i, Event.Write)) in
  let sequential = t0 @ t1 in
  let interleaved =
    List.concat (List.map2 (fun a b -> [ a; b ]) t0 t1)
  in
  Alcotest.(check bool) "same hb class" true
    (hb_fp sequential = hb_fp interleaved);
  Alcotest.(check bool) "distinct raw fingerprints" false
    (raw_fp sequential = raw_fp interleaved)

let test_no_affine_cancellation () =
  (* Regression: QCheck once found this pair of genuinely inequivalent
     schedules (the swapped pair conflicts on location 3, and the clock
     snapshots provably differ) whose fingerprints still collided.  Each
     FNV step is locally affine — (h ⊕ v) * prime — so snapshots
     differing in one small clock component hash to values a small
     multiple of a power of the prime apart, and three such correlated
     differences cancelled exactly in the commutative sum.  The
     avalanche finalizer in Hb_fingerprint breaks the affine structure;
     this log must keep splitting. *)
  let ops =
    [
      Rel (1, 52);
      Rel (1, 50);
      Acq (0, 51);
      Acc (0, 3, Event.Write);
      Rel (2, 52);
      Rel (2, 50);
      Acq (2, 50);
      Acc (2, 3, Event.Read);
      Acq (0, 52);
      Acc (2, 4, Event.Write);
      Acc (0, 3, Event.Write);
      Acc (0, 3, Event.Write);
      Acc (2, 3, Event.Read);
      Acq (1, 52);
      Acc (2, 4, Event.Read);
    ]
  in
  Alcotest.(check bool) "conflicting swap splits the class" false
    (hb_fp ops = hb_fp (swap_at 11 ops))

(* ---- the QCheck commutation property over generated logs ---- *)

let gen_log =
  QCheck.Gen.(
    let gen_op =
      oneof
        [
          map3
            (fun tid loc w ->
              Acc (tid, loc, if w then Event.Write else Event.Read))
            (int_range 0 2) (int_range 1 6) bool;
          map2 (fun tid lock -> Acq (tid, lock)) (int_range 0 2)
            (int_range 50 52);
          map2 (fun tid lock -> Rel (tid, lock)) (int_range 0 2)
            (int_range 50 52);
        ]
    in
    list_size (int_range 6 20) gen_op)

(* Positions of adjacent access pairs by different threads; the pair is
   independent iff the locations differ. *)
let adjacent_access_pairs ops =
  let arr = Array.of_list ops in
  let out = ref [] in
  Array.iteri
    (fun i op ->
      if i + 1 < Array.length arr then
        match (op, arr.(i + 1)) with
        | Acc (t1, l1, _), Acc (t2, l2, _) when t1 <> t2 ->
            out := (i, l1 = l2) :: !out
        | _ -> ())
    arr;
  !out

let prop_adjacent_swap =
  QCheck.Test.make ~count:500
    ~name:"adjacent swap: hb preserved iff pair independent"
    (QCheck.make gen_log) (fun ops ->
      List.for_all
        (fun (i, same_loc) ->
          let swapped = swap_at i ops in
          let hb_equal = hb_fp ops = hb_fp swapped in
          if same_loc then
            (* Conflicting pair: the class must split. *)
            not hb_equal
          else
            (* Independent pair (different threads, different locations,
               adjacent so no sync op between them). *)
            hb_equal)
        (adjacent_access_pairs ops))

(* ---- pinned values ----

   Fingerprints leave the process: shard files carry them ([explore
   --emit-obs]) and [merge] folds rows from different binaries.  A
   rewrite of either tap must therefore reproduce them bit for bit, not
   merely induce the same classes.  These (raw, hb) pairs were recorded
   from the original tap implementations, on benchmark runs under the
   campaign's own run specs (horizon 20000). *)
let pinned =
  [
    ("tsp", E.Strategy.Pct 3, 0, 0x59b949811cd, 0xe2e8312c0f0);
    ("tsp", E.Strategy.Pct 3, 1, 0xdd26d9dcb8f, 0x313a0bd534e3);
    ("sor2", E.Strategy.Pct 3, 0, 0x156f7ed6eacd, 0x25da511512e2);
    ("needle", E.Strategy.Pct 3, 2, 0x1efe188de435, 0x38214d1c619);
    ("mtrt", E.Strategy.Pct 3, 1, 0x25f70bdd2b36, 0x1d20c4fb0961);
    ("elevator", E.Strategy.Jitter, 1, 0x38bb9008255b, 0xb605bfa749d);
    ("hedc", E.Strategy.Sweep, 0, 0x334c7395d65c, 0x3d9c1a6167a3);
  ]

let test_pinned_values () =
  let module H = Drd_harness in
  let module P = H.Pipeline in
  List.iter
    (fun (name, strategy, index, raw, hb) ->
      let b = Option.get (H.Programs.find name) in
      let c = P.compile H.Config.full ~source:b.H.Programs.b_source in
      let sp =
        E.Strategy.spec strategy ~base:c.P.config ~pct_horizon:20_000 index
      in
      let vm =
        {
          (P.vm_config_of c.P.config) with
          Drd_vm.Interp.seed = sp.E.Strategy.sp_seed;
          quantum = sp.E.Strategy.sp_quantum;
          policy = sp.E.Strategy.sp_policy;
        }
      in
      let raw_tap, raw_fp = E.Explore.fingerprint_tap () in
      let hb_tap, hb_fp = Hb.tap () in
      let r = P.run ~vm ~tap:(Sink.tee raw_tap hb_tap) ~detect:false c in
      let label =
        Printf.sprintf "%s %s #%d" name (E.Strategy.name strategy) index
      in
      Alcotest.(check int) (label ^ " raw") raw (raw_fp ());
      (* The fingerprint the run folds itself, which campaigns record. *)
      Alcotest.(check int) (label ^ " raw, folded by the run") raw
        r.P.fingerprint;
      Alcotest.(check int) (label ^ " hb") hb (hb_fp ()))
    pinned

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_adjacent_swap ]
  @ [
      Alcotest.test_case "independent pair: hb preserved, raw not" `Quick
        test_independent_pair_preserved;
      Alcotest.test_case "conflicting pair: both change" `Quick
        test_conflicting_pair_changed;
      Alcotest.test_case "sync-ordered pair: both change" `Quick
        test_sync_ordered_pair_changed;
      Alcotest.test_case "whole-log commutation collapses to one class"
        `Quick test_commuted_runs_share_class_across_whole_log;
      Alcotest.test_case "affine cancellation regression (avalanche)"
        `Quick test_no_affine_cancellation;
      Alcotest.test_case "benchmark fingerprints match pinned values" `Quick
        test_pinned_values;
    ]
