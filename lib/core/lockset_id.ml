(* Hash-consed locksets.  Every distinct lockset is interned to a small
   integer id, so equality is integer equality and the lattice relations
   the detector evaluates per access event (subset for weaker-than,
   disjointness for IsRace) become O(1): an exact bitset test when the
   locks involved are dense, a lazily-filled relation table keyed by id
   pairs otherwise.

   The interning universe is domain-local (one per OCaml domain, via
   [Domain.DLS]): the schedule-exploration engine runs whole detector
   pipelines inside worker domains, and a shared table would either race
   or need a lock on the hottest path in the system.  The consequence is
   that an id is only meaningful inside the domain that created it —
   anything that crosses domains (deduped race rows, campaign stats)
   must be rendered to strings or materialized to {!Lockset.t} first,
   which the explore engine already does. *)

type id = int

let empty = 0

(* Dense remapping: lock identities are heap object ids (sparse, can be
   large), so each distinct lock seen in an interned set is assigned the
   next dense index in first-seen order.  A lockset whose locks all have
   dense index < [mask_bits] is represented exactly by one immediate-int
   bitmask; masks are stable because dense indices are append-only. *)
let mask_bits = 62

let no_mask = -1

type universe = {
  mutable sets : Lockset.t array; (* id -> canonical set *)
  mutable sorted : int array array; (* id -> locks, strictly increasing *)
  mutable masks : int array; (* id -> dense bitmask, or [no_mask] *)
  mutable count : int;
  by_locks : (int list, int) Hashtbl.t; (* sorted locks -> id *)
  dense : int Int_tbl.t; (* lock id -> dense bit index *)
  mutable ndense : int;
  rel : int Int_tbl.t;
      (* pair key -> relation flags, for id pairs outside the bitmask
         fast path: bit0 subset-known, bit1 subset, bit2 disjoint-known,
         bit3 disjoint *)
  add_memo : int Int_tbl.t; (* (id, lock) -> id *)
  remove_memo : int Int_tbl.t; (* (id, lock) -> id *)
  inter_memo : int Int_tbl.t; (* (id, id) -> id *)
  union_memo : int Int_tbl.t; (* (id, id) -> id *)
  seq_next : int Int_tbl.t; (* (node, lock) -> seq *)
  mutable nseq : int; (* sequence trie nodes *)
}

let create_universe () =
  let u =
    {
      sets = Array.make 64 Lockset.empty;
      sorted = Array.make 64 [||];
      masks = Array.make 64 0;
      count = 1;
      by_locks = Hashtbl.create 256;
      dense = Int_tbl.create 64 0;
      ndense = 0;
      rel = Int_tbl.create 256 0;
      add_memo = Int_tbl.create 256 0;
      remove_memo = Int_tbl.create 256 0;
      inter_memo = Int_tbl.create 64 0;
      union_memo = Int_tbl.create 64 0;
      seq_next = Int_tbl.create 256 0;
      nseq = 1 (* node 0: the empty sequence *);
    }
  in
  (* id 0 is the empty lockset in every universe. *)
  Hashtbl.add u.by_locks [] 0;
  u

let dls_key = Domain.DLS.new_key create_universe

let u () = Domain.DLS.get dls_key

(* Ids and lock identities both fit comfortably in 31 bits; pack a pair
   into one immediate key so the memo tables hash an int, not a tuple. *)
let pair_key a b = (a lsl 31) lor b

let dense_of u lock =
  match Int_tbl.find u.dense lock with
  | i -> i
  | exception Not_found ->
      let i = u.ndense in
      u.ndense <- i + 1;
      Int_tbl.replace u.dense lock i;
      i

let grow u =
  let cap = Array.length u.sets in
  if u.count = cap then begin
    let cap' = cap * 2 in
    let sets = Array.make cap' Lockset.empty in
    Array.blit u.sets 0 sets 0 cap;
    u.sets <- sets;
    let sorted = Array.make cap' [||] in
    Array.blit u.sorted 0 sorted 0 cap;
    u.sorted <- sorted;
    let masks = Array.make cap' 0 in
    Array.blit u.masks 0 masks 0 cap;
    u.masks <- masks
  end

(* [locks] strictly increasing, [set] its Lockset.t image. *)
let intern_sorted u locks set =
  match Hashtbl.find u.by_locks locks with
  | id -> id
  | exception Not_found ->
      grow u;
      let id = u.count in
      u.count <- id + 1;
      u.sets.(id) <- set;
      u.sorted.(id) <- Array.of_list locks;
      let mask =
        List.fold_left
          (fun m l ->
            let i = dense_of u l in
            if m = no_mask || i >= mask_bits then no_mask
            else m lor (1 lsl i))
          0 locks
      in
      u.masks.(id) <- mask;
      Hashtbl.add u.by_locks locks id;
      id

let intern set =
  let u = u () in
  intern_sorted u (Lockset.to_sorted_list set) set

let of_list ls =
  let set = Lockset.of_list ls in
  intern set

(* Lock sequences, as a decoder reads them: a trie over the locks in
   written order whose nodes are numbered densely, with the edge (node,
   lock) packed into one memo key.  A [seq] packs its node with the id
   of the sequence ending there (+1; 0 while it is only a prefix), so
   reading the id takes no table lookup.  Only locks in [0, 2^31) pack;
   a sequence holding any other lock is never memoized. *)
type seq = int

type seq_memo = int Int_tbl.t

let seq_pack node id = (node lsl 31) lor (id + 1)

let seq_empty = seq_pack 0 empty

let packs l = l >= 0 && l < 1 lsl 31

let seq_memo () = (u ()).seq_next

let seq_add memo s l =
  if s < 0 || not (packs l) then -1
  else
    match Int_tbl.find memo (pair_key (s lsr 31) l) with
    | s' -> s'
    | exception Not_found -> -1

let seq_id s = if s < 0 then -1 else (s land ((1 lsl 31) - 1)) - 1

let of_seq_list ls =
  let id = of_list ls in
  let u = u () in
  (* Walk the sequence's edges, adding missing nodes as prefixes; the
     result is the key of the last edge, or -1. *)
  let rec walk node k = function
    | [] -> k
    | l :: tl when packs l && u.nseq < 1 lsl 31 ->
        let k = pair_key node l in
        let s =
          match Int_tbl.find u.seq_next k with
          | s -> s
          | exception Not_found ->
              let s = seq_pack u.nseq (-1) in
              u.nseq <- u.nseq + 1;
              Int_tbl.replace u.seq_next k s;
              s
        in
        walk (s lsr 31) k tl
    | _ :: _ -> -1
  in
  let k = walk 0 (-1) ls in
  if k >= 0 && id + 1 < 1 lsl 31 then
    Int_tbl.replace u.seq_next k (seq_pack (Int_tbl.find u.seq_next k lsr 31) id);
  id

let set_of id = (u ()).sets.(id)

let sorted_array id = (u ()).sorted.(id)

let to_sorted_list id = Array.to_list (sorted_array id)

let equal (a : id) (b : id) = a = b

let compare (a : id) (b : id) = Int.compare a b

let is_empty id = id = 0

let cardinal id = Array.length (sorted_array id)

let uses_mask id = (u ()).masks.(id) <> no_mask

(* Binary search in a strictly increasing array; allocation-free. *)
let mem_sorted (a : int array) l =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < l then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = l

let mem l id =
  if id = 0 then false
  else
    let u = u () in
    let m = u.masks.(id) in
    if m <> no_mask then
      match Int_tbl.find u.dense l with
      | i -> i < mask_bits && m land (1 lsl i) <> 0
      | exception Not_found -> false
    else mem_sorted u.sorted.(id) l

let subset_arrays (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let disjoint_arrays (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na || j >= nb then true
    else if a.(i) = b.(j) then false
    else if a.(i) < b.(j) then go (i + 1) j
    else go i (j + 1)
  in
  go 0 0

let rel_flags u k = match Int_tbl.find u.rel k with f -> f | exception Not_found -> 0

let subset a b =
  a = b || a = 0
  ||
  let u = u () in
  let ma = u.masks.(a) and mb = u.masks.(b) in
  if ma <> no_mask && mb <> no_mask then ma land lnot mb = 0
  else begin
    let k = pair_key a b in
    let f = rel_flags u k in
    if f land 1 <> 0 then f land 2 <> 0
    else begin
      let v = subset_arrays u.sorted.(a) u.sorted.(b) in
      Int_tbl.replace u.rel k (f lor 1 lor (if v then 2 else 0));
      v
    end
  end

let disjoint a b =
  a = 0 || b = 0
  || a <> b
     &&
     let u = u () in
     let ma = u.masks.(a) and mb = u.masks.(b) in
     if ma <> no_mask && mb <> no_mask then ma land mb = 0
     else begin
       let k = pair_key a b in
       let f = rel_flags u k in
       if f land 4 <> 0 then f land 8 <> 0
       else begin
         let v = disjoint_arrays u.sorted.(a) u.sorted.(b) in
         Int_tbl.replace u.rel k (f lor 4 lor (if v then 8 else 0));
         v
       end
     end

let add l id =
  if mem l id then id
  else
    let u = u () in
    let k = pair_key id l in
    match Int_tbl.find u.add_memo k with
    | id' -> id'
    | exception Not_found ->
        let set = Lockset.add l u.sets.(id) in
        let id' = intern_sorted u (Lockset.to_sorted_list set) set in
        Int_tbl.replace u.add_memo k id';
        id'

let remove l id =
  if not (mem l id) then id
  else
    let u = u () in
    let k = pair_key id l in
    match Int_tbl.find u.remove_memo k with
    | id' -> id'
    | exception Not_found ->
        let set = Lockset.remove l u.sets.(id) in
        let id' = intern_sorted u (Lockset.to_sorted_list set) set in
        Int_tbl.replace u.remove_memo k id';
        id'

let singleton l = add l empty

let inter a b =
  if a = b then a
  else if a = 0 || b = 0 then 0
  else
    let u = u () in
    let k = if a < b then pair_key a b else pair_key b a in
    match Int_tbl.find u.inter_memo k with
    | id -> id
    | exception Not_found ->
        let set = Lockset.inter u.sets.(a) u.sets.(b) in
        let id = intern_sorted u (Lockset.to_sorted_list set) set in
        Int_tbl.replace u.inter_memo k id;
        id

let union a b =
  if a = b || b = 0 then a
  else if a = 0 then b
  else
    let u = u () in
    let k = if a < b then pair_key a b else pair_key b a in
    match Int_tbl.find u.union_memo k with
    | id -> id
    | exception Not_found ->
        let set = Lockset.union u.sets.(a) u.sets.(b) in
        let id = intern_sorted u (Lockset.to_sorted_list set) set in
        Int_tbl.replace u.union_memo k id;
        id

let fold f id init = Lockset.fold f (set_of id) init

let interned_count () = (u ()).count

let pp ppf id = Lockset.pp ppf (set_of id)
