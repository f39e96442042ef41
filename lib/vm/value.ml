(* Runtime values of the MiniJava VM. *)

type obj_id = int

type t = Vint of int | Vbool of bool | Vnull | Vref of obj_id

let default_of (ty : Drd_lang.Ast.ty) =
  match ty with
  | Drd_lang.Ast.Tint -> Vint 0
  | Drd_lang.Ast.Tbool -> Vbool false
  | _ -> Vnull

let pp ppf = function
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.bool ppf b
  | Vnull -> Fmt.string ppf "null"
  | Vref o -> Fmt.pf ppf "#%d" o

let to_int = function Vint n -> n | _ -> invalid_arg "expected int"
let to_bool = function Vbool b -> b | _ -> invalid_arg "expected boolean"

(* Slot encoding.  [Interp]'s registers and statics, and the object
   fields and array elements [Heap] stores for both engines, hold a
   value as a plain int: an int is itself, a boolean is 0 or 1, null is
   -1 and a reference is its heap id (never negative).  The encoding
   forgets the category, which the static type of the register or
   field restores; [Link] checks every operand against it, so a slot is
   never read as the wrong kind of value. *)

let null_slot = -1

let slot_default (ty : Drd_lang.Ast.ty) =
  match ty with Drd_lang.Ast.Tint | Drd_lang.Ast.Tbool -> 0 | _ -> null_slot

let to_slot = function
  | Vint n -> n
  | Vbool b -> Bool.to_int b
  | Vnull -> null_slot
  | Vref o -> o

let of_slot (ty : Drd_lang.Ast.ty) n =
  match ty with
  | Drd_lang.Ast.Tint -> Vint n
  | Drd_lang.Ast.Tbool -> Vbool (n <> 0)
  | _ -> if n < 0 then Vnull else Vref n
