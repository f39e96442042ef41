module Ast = Drd_lang.Ast
module Tast = Drd_lang.Tast
(* Register-based intermediate representation.

   Each method body is a control-flow graph of basic blocks over an
   unbounded register file.  Registers [0, nparams) hold [this] (for
   instance methods) and the parameters on entry; local variable slots
   assigned by the typechecker map to the same register numbers, and
   temporaries follow.

   Potentially excepting instructions (PEIs) — null checks and array
   bounds checks — are explicit, mirroring the Jalapeño HIR property
   that makes loop-invariant hoisting of instrumentation illegal and
   motivates loop peeling (paper Section 6.3).

   The [Trace] pseudo-instruction is the paper's
   [trace(o, f, L, a)] (Section 6.1): it is inserted by the
   instrumentation pass immediately after the memory access it traces
   and is expanded by the VM into an access-event emission.  The lock
   set [L] is implicit (the executing thread's held locks); the
   synchronization nesting path needed by the static [outer] check is
   recorded on every instruction at lowering time. *)

type reg = int
type label = int

type const = Cint of int | Cbool of bool | Cnull

(* Metadata for field accesses, resolved by the typechecker. *)
type field_meta = { fm_class : string; fm_name : string; fm_index : int }

type static_meta = { sm_class : string; sm_name : string; sm_slot : int }

type call_target =
  | Virtual of string * string (* static receiver class, method name *)
  | Static of string * string (* class, method name *)
  | Ctor of string (* class; receiver is the first argument *)

(* What a trace observes.  Arrays are one logical location (paper
   footnote 1); the element index is modeled as a value use only. *)
type trace_target =
  | Tr_field of reg * field_meta (* object, field *)
  | Tr_static of static_meta
  | Tr_array of reg * reg (* array, index *)

type trace = {
  tr_target : trace_target;
  tr_kind : Drd_core.Event.kind;
  tr_site : int; (* site id registered with the program's site table *)
}

type op =
  | Const of reg * const
  | Move of reg * reg
  | Binop of Ast.binop * reg * reg * reg (* dst := l op r; no And/Or here *)
  | Unop of Ast.unop * reg * reg
  | GetField of reg * reg * field_meta (* dst := obj.f *)
  | PutField of reg * field_meta * reg (* obj.f := src *)
  | GetStatic of reg * static_meta
  | PutStatic of static_meta * reg
  | ALoad of reg * reg * reg (* dst := arr[idx] *)
  | AStore of reg * reg * reg (* arr[idx] := src *)
  | NewObj of reg * string
  | NewArr of reg * Ast.ty * reg list (* dst, element type, sized dims *)
  | ArrLen of reg * reg
  | ClassObj of reg * string (* dst := per-class lock object *)
  | NullCheck of reg (* PEI *)
  | BoundsCheck of reg * reg (* PEI: array, index *)
  | Call of reg option * call_target * reg list * int
      (* dst, target, args, call-site id (registered with the program's
         site table for [Virtual] calls so [Sink.call] reports the real
         site; -1 for statics/ctors, which emit no call notification) *)
  | MonitorEnter of reg * int (* lock object, lexical sync region id *)
  | MonitorExit of reg * int
  | ThreadStart of reg
  | ThreadJoin of reg
  | Wait of reg (* o.wait(): full monitor release + sleep + re-acquire *)
  | Notify of reg * bool (* o.notify() / o.notifyAll() when true *)
  | Yield
  | Print of string * reg option
  | Trace of trace

type instr = {
  mutable i_op : op;
  i_id : int; (* unique within the method, stable across passes *)
  i_line : int;
  i_sync : int list; (* enclosing sync region ids, outermost first *)
}

type term =
  | Goto of label
  | If of reg * label * label (* cond, then, else *)
  | Ret of reg option
  | Trap of string (* runtime error, e.g. missing return *)

type block = {
  b_label : label;
  mutable b_instrs : instr list;
  mutable b_term : term;
  mutable b_term_sync : int list; (* sync path at the terminator *)
  b_term_line : int;
      (* source line of the statement that ended the block; 0 for a
         block lowering left unterminated *)
}

(* Dense ids.  A method's key and id are fixed at lowering: [mir_id] is
   the rank of [mir_key] in sorted key order, the order [iter_mirs]
   walks and [Link] numbers methods in, so per-method tables in the
   passes are arrays indexed by [mir_id] and per-statement tables are
   arrays indexed by [i_id] inside them. *)
type mir = {
  mir_class : string;
  mir_name : string; (* "<init>" for constructors *)
  mir_key : string; (* "Class.name" *)
  mir_id : int; (* index in [p_mirs] *)
  mir_static : bool;
  mir_sync : bool; (* synchronized method (lowered to an explicit region) *)
  mir_nparams : int; (* including this for instance methods *)
  mir_entry : label;
  mutable mir_blocks : block array; (* indexed by label *)
  mir_nregs : int;
  mir_reg_tys : Ast.ty array;
      (* static type of every register, [Tvoid] for one nothing writes.
         Locals never share a slot and temporaries are fresh, so each
         register has exactly one; [Link] checks every operand against
         it. *)
  mutable mir_next_iid : int;
}

let mir_key m = m.mir_key

let fresh_iid m =
  let i = m.mir_next_iid in
  m.mir_next_iid <- m.mir_next_iid + 1;
  i

let block m l = m.mir_blocks.(l)

let successors_of_term = function
  | Goto l -> [ l ]
  | If (_, t, f) -> [ t; f ]
  | Ret _ | Trap _ -> []

let successors m l = successors_of_term (block m l).b_term

let iter_blocks m f = Array.iter f m.mir_blocks

let iter_instrs m f =
  iter_blocks m (fun b -> List.iter (fun i -> f b i) b.b_instrs)

let n_blocks m = Array.length m.mir_blocks

(* Instruction lookup by [i_id] over a program's current IR, built for a
   method on its first lookup. *)
let instr_lookup mirs =
  let index = Array.make (Array.length mirs) None in
  fun mid iid ->
    let tbl =
      match index.(mid) with
      | Some tbl -> tbl
      | None ->
          let m = mirs.(mid) in
          let tbl = Array.make m.mir_next_iid None in
          iter_instrs m (fun _ i -> tbl.(i.i_id) <- Some i);
          index.(mid) <- Some tbl;
          tbl
    in
    if iid >= 0 && iid < Array.length tbl then tbl.(iid) else None

(* Registers used (read) by an operation, in a fixed operand order used
   by SSA/value-numbering to address uses. *)
let uses = function
  | Const _ -> []
  | Move (_, s) -> [ s ]
  | Binop (_, _, l, r) -> [ l; r ]
  | Unop (_, _, s) -> [ s ]
  | GetField (_, o, _) -> [ o ]
  | PutField (o, _, s) -> [ o; s ]
  | GetStatic _ -> []
  | PutStatic (_, s) -> [ s ]
  | ALoad (_, a, i) -> [ a; i ]
  | AStore (a, i, s) -> [ a; i; s ]
  | NewObj _ -> []
  | NewArr (_, _, dims) -> dims
  | ArrLen (_, a) -> [ a ]
  | ClassObj _ -> []
  | NullCheck r -> [ r ]
  | BoundsCheck (a, i) -> [ a; i ]
  | Call (_, _, args, _) -> args
  | MonitorEnter (r, _) | MonitorExit (r, _) -> [ r ]
  | ThreadStart r | ThreadJoin r -> [ r ]
  | Wait r | Notify (r, _) -> [ r ]
  | Yield -> []
  | Print (_, r) -> Option.to_list r
  | Trace t -> (
      match t.tr_target with
      | Tr_field (o, _) -> [ o ]
      | Tr_static _ -> []
      | Tr_array (a, i) -> [ a; i ])

let def = function
  | Const (d, _)
  | Move (d, _)
  | Binop (_, d, _, _)
  | Unop (_, d, _)
  | GetField (d, _, _)
  | GetStatic (d, _)
  | ALoad (d, _, _)
  | NewObj (d, _)
  | NewArr (d, _, _)
  | ArrLen (d, _)
  | ClassObj (d, _) ->
      Some d
  | Call (d, _, _, _) -> d
  | PutField _ | PutStatic _ | AStore _ | NullCheck _ | BoundsCheck _
  | MonitorEnter _ | MonitorExit _ | ThreadStart _ | ThreadJoin _ | Wait _
  | Notify _ | Yield | Print _ | Trace _ ->
      None

let term_uses = function
  | Goto _ -> []
  | If (c, _, _) -> [ c ]
  | Ret (Some r) -> [ r ]
  | Ret None | Trap _ -> []

(* Is this instruction a barrier for the static weaker-than relation
   (the Exec predicate of Section 6.1, condition 2: "no method
   invocation between", plus Definition 3's "no start()/join()
   between")?  Calls may run arbitrary code including start/join.
   [MonitorExit] is a barrier because the held lockset shrinks — an
   event after it can hold fewer locks than the covering event.
   [MonitorEnter] is deliberately NOT a barrier: between the covering
   trace and the covered one the lockset then only grows, which is
   exactly the [e_i.L ⊆ e_j.L] condition (this is what lets an access
   outside a synchronized block cover one inside it, the paper's
   [outer] case).  PEIs abort the thread entirely, so they are not
   barriers either. *)
let is_barrier = function
  | Call _ | ThreadStart _ | ThreadJoin _ | MonitorExit _ -> true
  (* wait releases and re-acquires the whole monitor stack of its
     object, and another thread runs in between: both the lockset and
     the interleaving change across it. *)
  | Wait _ | Notify _ -> true
  | _ -> false

(* A whole program in IR form. *)
type program = {
  p_tprog : Tast.tprogram;
  p_methods : (string, mir) Hashtbl.t; (* keyed by "Class.name" *)
  p_mirs : mir array; (* indexed by [mir_id], so in sorted key order *)
  p_main : string; (* key of main *)
  p_sites : Site_table.t;
}

let find_mir p key = Hashtbl.find_opt p.p_methods key

let n_mirs p = Array.length p.p_mirs

let iter_mirs p f = Array.iter f p.p_mirs
