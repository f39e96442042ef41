module Ast = Drd_lang.Ast
module Tast = Drd_lang.Tast
(** Compilation of the typed AST into the register IR.

    Lowering makes synchronization explicit ([MonitorEnter]/[MonitorExit]
    with lexical region identities, synchronized methods included),
    expands short-circuit booleans into control flow, inserts the PEIs
    (null and bounds checks) that make almost every Java statement
    potentially excepting, and records on every instruction the
    synchronization-nesting path used by the static weaker-than
    analysis. *)

val lower_program : Tast.tprogram -> Ir.program
(** Lower every method of the program.  No instrumentation is inserted
    here; see [Drd_instr.Insert]. *)

val lower_method :
  Tast.tprogram -> Site_table.t -> id:int -> Tast.tmethod -> Ir.mir
(** Lower a single method as method [id] (its rank in sorted key order;
    see [Ir.mir]). *)
