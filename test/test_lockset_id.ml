(* Interned locksets (Lockset_id) vs the Set.Make(Int) reference
   (Lockset): every operation must agree on arbitrary inputs, including
   across the dense-bitmask density boundary (62 distinct locks), after
   which sets silently fall back to the memo-table representation. *)

open Drd_core

(* Lock values mix small ids with sparse heap-object-like ids so both
   the dense path and the sorted-array fallback are exercised no matter
   how many locks earlier suites already interned in this domain. *)
let gen_lock =
  QCheck.Gen.(
    frequency
      [ (4, int_bound 15); (2, int_bound 200); (1, map (fun i -> 100_000 + (i * 977)) (int_bound 50)) ])

let gen_locks = QCheck.Gen.(list_size (int_bound 8) gen_lock)

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)"
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))
    QCheck.Gen.(pair gen_locks gen_locks)

let agree (a, b) =
  let ia = Lockset_id.of_list a and ib = Lockset_id.of_list b in
  let sa = Lockset.of_list a and sb = Lockset.of_list b in
  let canon id s =
    (* ids are canonical: interning the reference set again must yield
       the same id, and materializing must yield the same set. *)
    Lockset_id.equal id (Lockset_id.intern s)
    && Lockset.equal (Lockset_id.set_of id) s
    && Lockset_id.to_sorted_list id = Lockset.to_sorted_list s
  in
  let pool = 0 :: 7 :: (a @ b) in
  canon ia sa && canon ib sb
  && Lockset_id.subset ia ib = Lockset.subset sa sb
  && Lockset_id.subset ib ia = Lockset.subset sb sa
  && Lockset_id.disjoint ia ib = Lockset.disjoint sa sb
  && canon (Lockset_id.inter ia ib) (Lockset.inter sa sb)
  && canon (Lockset_id.union ia ib) (Lockset.union sa sb)
  && Lockset_id.equal ia ib = Lockset.equal sa sb
  && (Lockset_id.compare ia ib = 0) = Lockset.equal sa sb
  && Lockset_id.cardinal ia = Lockset.cardinal sa
  && Lockset_id.is_empty ia = Lockset.is_empty sa
  && List.for_all
       (fun x ->
         Lockset_id.mem x ia = Lockset.mem x sa
         && canon (Lockset_id.add x ia) (Lockset.add x sa)
         && canon (Lockset_id.remove x ia) (Lockset.remove x sa))
       pool
  && Lockset_id.fold (fun x acc -> acc + x) ia 0
     = Lockset.fold (fun x acc -> acc + x) sa 0

let prop_agreement =
  QCheck.Test.make ~count:2000
    ~name:"interned ops agree with Set.Make(Int) reference" arb_pair agree

(* ------------------------------------------------------------------ *)
(* Density boundary.  Run in a fresh domain: the interning universe is
   domain-local, so the spawned domain starts with zero locks seen and
   the boundary lands exactly at the 62nd distinct lock. *)

let test_density_boundary () =
  Domain.join
    (Domain.spawn (fun () ->
         (* Fix the first-seen order: lock i gets dense index i. *)
         for i = 0 to 80 do
           ignore (Lockset_id.singleton i)
         done;
         for i = 0 to 80 do
           Alcotest.(check bool)
             (Printf.sprintf "singleton %d mask" i)
             (i < 62)
             (Lockset_id.uses_mask (Lockset_id.singleton i))
         done;
         Alcotest.(check bool) "dense set keeps mask" true
           (Lockset_id.uses_mask (Lockset_id.of_list [ 0; 17; 61 ]));
         Alcotest.(check bool) "set spanning the boundary has no mask" false
           (Lockset_id.uses_mask (Lockset_id.of_list [ 0; 70 ]));
         (* Relations must agree with the reference on both sides of and
            across the boundary. *)
         let locks = [ 0; 1; 60; 61; 62; 63; 70; 80 ] in
         let sets =
           List.concat_map
             (fun x -> List.map (fun y -> [ x; y ]) locks)
             locks
           @ List.map (fun x -> [ x ]) locks
           @ [ []; [ 0; 61; 62 ]; [ 61; 62 ]; locks ]
         in
         List.iter
           (fun a ->
             List.iter
               (fun b ->
                 let ia = Lockset_id.of_list a and ib = Lockset_id.of_list b in
                 let sa = Lockset.of_list a and sb = Lockset.of_list b in
                 let tag =
                   Printf.sprintf "{%s} vs {%s}"
                     (String.concat "," (List.map string_of_int a))
                     (String.concat "," (List.map string_of_int b))
                 in
                 Alcotest.(check bool) (tag ^ " subset")
                   (Lockset.subset sa sb) (Lockset_id.subset ia ib);
                 Alcotest.(check bool) (tag ^ " disjoint")
                   (Lockset.disjoint sa sb) (Lockset_id.disjoint ia ib);
                 Alcotest.(check bool) (tag ^ " equal")
                   (Lockset.equal sa sb) (Lockset_id.equal ia ib);
                 Alcotest.(check (list int)) (tag ^ " inter")
                   (Lockset.to_sorted_list (Lockset.inter sa sb))
                   (Lockset_id.to_sorted_list (Lockset_id.inter ia ib)))
               sets)
           sets))

let test_interning_is_canonical () =
  let a = Lockset_id.of_list [ 3; 1; 2; 3; 1 ] in
  let b = Lockset_id.of_list [ 2; 3; 1 ] in
  Alcotest.(check bool) "same set, same id" true (a = b);
  Alcotest.(check (list int)) "sorted, deduped" [ 1; 2; 3 ]
    (Lockset_id.to_sorted_list a);
  Alcotest.(check bool) "empty is id 0" true
    (Lockset_id.of_list [] = Lockset_id.empty);
  let two = Lockset_id.of_list [ 1; 2 ] in
  let before = Lockset_id.interned_count () in
  ignore (Lockset_id.of_list [ 1; 2; 3 ]);
  ignore (Lockset_id.add 3 two);
  Alcotest.(check int) "re-interning allocates no new ids" before
    (Lockset_id.interned_count ())

(* The decoder's sequence memo: walking a sequence with [seq_add] finds
   either nothing or exactly the id [of_list] gives; once
   [of_seq_list] has interned a sequence whose locks all pack, the walk
   finds it. *)
let gen_seq =
  QCheck.Gen.(
    list_size (int_bound 5)
      (frequency
         [ (6, int_bound 12); (1, oneofl [ -1; -7; 1 lsl 31; (1 lsl 31) - 1; max_int ]) ]))

let walk ls =
  let memo = Lockset_id.seq_memo () in
  Lockset_id.seq_id
    (List.fold_left (Lockset_id.seq_add memo) Lockset_id.seq_empty ls)

let prop_seq_memo =
  QCheck.Test.make ~count:500 ~name:"sequence memo agrees with of_list"
    (QCheck.make
       ~print:(fun ls -> String.concat " " (List.map string_of_int ls))
       gen_seq)
    (fun ls ->
      let expected = Lockset_id.of_list ls in
      let before = walk ls in
      (before = -1 || before = expected)
      && Lockset_id.of_seq_list ls = expected
      &&
      let after = walk ls in
      if List.for_all (fun l -> l >= 0 && l < 1 lsl 31) ls then after = expected
      else after = -1)

let suite =
  [
    Alcotest.test_case "canonical ids" `Quick test_interning_is_canonical;
    Alcotest.test_case "density boundary (fresh domain)" `Quick
      test_density_boundary;
    QCheck_alcotest.to_alcotest prop_agreement;
    QCheck_alcotest.to_alcotest prop_seq_memo;
  ]
