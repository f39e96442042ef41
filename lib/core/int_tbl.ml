(* Open addressing over two flat arrays with linear probing.  [free]
   marks an empty key slot; the one key equal to [free] lives outside
   the arrays.  The load factor stays at most 1/2, and removal shifts
   later entries of the cluster back (no tombstones), so a probe always
   ends at the first free slot. *)

let free = -0x4000000000000000 (* min_int *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable count : int; (* bindings held in the arrays *)
  mutable shift : int; (* 63 - log2 (Array.length keys) *)
  filler : 'a;
  mutable free_bound : bool; (* whether the key [free] is bound *)
  mutable free_val : 'a;
}

(* Fibonacci hashing: the top bits of the product with an odd constant,
   so keys differing only in their high bits or only in their low bits
   (location ids keep the field index in the low bits) still spread. *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

let create n filler =
  let rec cap c = if c >= 2 * n then c else cap (2 * c) in
  let c = cap 8 in
  let rec log2 c b = if c <= 1 then b else log2 (c lsr 1) (b + 1) in
  {
    keys = Array.make c free;
    vals = Array.make c filler;
    count = 0;
    shift = 63 - log2 c 0;
    filler;
    free_bound = false;
    free_val = filler;
  }

let length t = t.count + if t.free_bound then 1 else 0

let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) free;
    Array.fill t.vals 0 (Array.length t.vals) t.filler;
    t.count <- 0
  end;
  t.free_bound <- false;
  t.free_val <- t.filler

(* The slot holding [k], or else the free slot ending its probe. *)
let rec probe (keys : int array) mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = free then i else probe keys mask k ((i + 1) land mask)

let slot t k =
  let keys = t.keys in
  probe keys (Array.length keys - 1) k (home t k)

let mem t k =
  if k = free then t.free_bound else Array.unsafe_get t.keys (slot t k) = k

let find t k =
  if k = free then if t.free_bound then t.free_val else raise Not_found
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else raise Not_found

let grow t =
  let keys = t.keys and vals = t.vals in
  let c = 2 * Array.length keys in
  t.keys <- Array.make c free;
  t.vals <- Array.make c t.filler;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i k ->
      if k <> free then begin
        let j = slot t k in
        Array.unsafe_set t.keys j k;
        Array.unsafe_set t.vals j (Array.unsafe_get vals i)
      end)
    keys

let replace t k v =
  if k = free then begin
    t.free_bound <- true;
    t.free_val <- v
  end
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
    else if 2 * (t.count + 1) <= Array.length t.keys then begin
      Array.unsafe_set t.keys i k;
      Array.unsafe_set t.vals i v;
      t.count <- t.count + 1
    end
    else begin
      grow t;
      let i = slot t k in
      Array.unsafe_set t.keys i k;
      Array.unsafe_set t.vals i v;
      t.count <- t.count + 1
    end

(* Close the hole at [hole] by moving back every later entry of the
   cluster whose probe path crosses it. *)
let rec shift_back t (keys : int array) mask hole j =
  let k = Array.unsafe_get keys j in
  if k = free then begin
    Array.unsafe_set keys hole free;
    Array.unsafe_set t.vals hole t.filler
  end
  else if (j - home t k) land mask >= (j - hole) land mask then begin
    Array.unsafe_set keys hole k;
    Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
    shift_back t keys mask j ((j + 1) land mask)
  end
  else shift_back t keys mask hole ((j + 1) land mask)

let remove t k =
  if k = free then begin
    t.free_bound <- false;
    t.free_val <- t.filler
  end
  else
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = probe keys mask k (home t k) in
    if Array.unsafe_get keys i = k then begin
      shift_back t keys mask i ((i + 1) land mask);
      t.count <- t.count - 1
    end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then f k (Array.unsafe_get vals i)
  done;
  if t.free_bound then f free t.free_val

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then acc := f k (Array.unsafe_get vals i) !acc
  done;
  if t.free_bound then f free t.free_val !acc else !acc
