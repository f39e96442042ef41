(* The VM heap: a growable store of objects, arrays and opaque objects
   (per-class lock objects and join pseudo-locks).  Heap ids are never
   reused, so a heap id is a stable identity for memory locations and
   locks — the prototype property the paper assumes in Section 3.3
   (no GC movement) holds exactly here.

   Object fields and array elements hold slot-encoded values
   ([Value.to_slot]) for both engines: plain ints, so a store never
   pays a write barrier and an int is never boxed.

   The heap hands out at most [max_slots] slots between two [clear]s —
   one per object, array or opaque object plus one per field or
   element — and refuses, before allocating anything, the allocation
   that would pass that budget.  A program that asks for more memory
   than that fails with a run-time error instead of exhausting the
   host's. *)

exception Runtime_error of string
(* The VM's fatal run-time error, re-exported as [Interp.Runtime_error];
   declared here because an allocation past the budget raises it. *)

type kind =
  | Obj of { cls : string; fields : int array }
  | Arr of { elems : int array }
  | Opaque of string (* description, e.g. "class Tsp" or "S_2" *)

type t = {
  mutable data : kind array;
  mutable n : int;
  mutable slots : int; (* handed out since the last [clear] *)
}

let max_slots = 1 lsl 26

(* One shared filler block: [create], growth and [clear] all fill with
   the same physical value, so clearing a heap writes pointers only. *)
let unallocated = Opaque "<unallocated>"

let create () = { data = Array.make 1024 unallocated; n = 0; slots = 0 }

(* Empty the heap in place, keeping the grown backing array: only the
   first [n] slots can hold live objects, so filling that prefix with
   the shared filler makes the heap indistinguishable from a fresh one
   (ids restart at 0) while releasing every object for collection. *)
let clear h =
  Array.fill h.data 0 h.n unallocated;
  h.n <- 0;
  h.slots <- 0

(* Charge [n] slots to the budget, or refuse.  Callers cap [n] just
   above [max_slots], so neither side of the test overflows. *)
let reserve h n =
  if n > max_slots - h.slots then
    raise
      (Runtime_error
         (Printf.sprintf
            "heap limit exceeded: an allocation of %s slots with %d of %d in use"
            (if n > max_slots then "over " ^ string_of_int max_slots
             else string_of_int n)
            h.slots max_slots));
  h.slots <- h.slots + n

let push h kind =
  if h.n = Array.length h.data then begin
    let data = Array.make (2 * h.n) unallocated in
    Array.blit h.data 0 data 0 h.n;
    h.data <- data
  end;
  let id = h.n in
  h.data.(id) <- kind;
  h.n <- h.n + 1;
  id

let get h id =
  if id < 0 || id >= h.n then invalid_arg "Heap.get: bad id";
  h.data.(id)

(* Default field values of a class layout. *)
let template (fields : Drd_lang.Tast.field_info array) =
  Array.map
    (fun (f : Drd_lang.Tast.field_info) -> Value.slot_default f.fld_ty)
    fields

(* An object of class [cls] whose fields start as a copy of
   [template]. *)
let alloc_obj h ~cls template =
  reserve h (1 + Array.length template);
  push h (Obj { cls; fields = Array.copy template })

(* Slots a nested array allocation hands out, capped at
   [max_slots + 1]. *)
let rec arr_slots = function
  | [] -> 0
  | n :: rest ->
      let cap = max_slots + 1 in
      let n = min n cap and inner = arr_slots rest in
      let nested = if n = 0 || inner <= cap / n then n * inner else cap in
      min cap (1 + n + nested)

(* Allocate a (possibly multi-dimensional) array: [dims] are the sized
   dimensions; inner arrays are allocated recursively. *)
let alloc_arr h (elem_ty : Drd_lang.Ast.ty) dims =
  if dims = [] then invalid_arg "Heap.alloc_arr: no dimensions";
  if List.exists (fun n -> n < 0) dims then invalid_arg "negative array size";
  reserve h (arr_slots dims);
  let rec go = function
    | [ n ] -> push h (Arr { elems = Array.make n (Value.slot_default elem_ty) })
    | n :: rest -> push h (Arr { elems = Array.init n (fun _ -> go rest) })
    | [] -> assert false
  in
  go dims

let alloc_opaque h desc =
  reserve h 1;
  push h (Opaque desc)

let class_of h id =
  match get h id with
  | Obj { cls; _ } -> cls
  | Arr _ -> "<array>"
  | Opaque d -> d

let size h = h.n

let describe h id =
  match get h id with
  | Obj { cls; _ } -> Printf.sprintf "%s#%d" cls id
  | Arr { elems } -> Printf.sprintf "array#%d(len %d)" id (Array.length elems)
  | Opaque d -> d
