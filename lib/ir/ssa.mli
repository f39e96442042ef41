(** SSA construction "on the side": the IR is not rewritten; instead,
    for every register use at every instruction, the analysis computes
    the SSA value (definition instance) reaching it.  Phi values are
    placed with iterated dominance frontiers, only for registers some
    block reads before writing (semi-pruned); renaming is a
    dominator-tree walk.  This feeds dominance-based value numbering
    (paper Section 6.2: "conversion to SSA form is performed, during
    which the dominance relation is computed"). *)

type value = int
(** SSA value id.  Ids are allocated in dominator-tree walk order, so
    ascending id order is a valid evaluation order for forward
    dataflow. *)

type def_site =
  | Dparam of int  (** Register holding a parameter at entry. *)
  | Dinstr of int  (** Instruction id of the defining instruction. *)
  | Dphi of int * int  (** (block, register) of a placed phi. *)

type t = {
  dom : Dominance.t;
  nregs : int;
  nvalues : int;
  def_site : def_site array;
  use_val : value Drd_core.Int_tbl.t;
      (** Keyed by [iid * nregs + reg]; see {!value_of_use}. *)
  phi_args : (int * value) list Drd_core.Int_tbl.t;
      (** Keyed by [block * nregs + reg]; see {!phi_args_of}. *)
  phis_of_block : int list array;  (** Registers with a phi, per block. *)
}

val compute : Ir.mir -> t

val value_of_use : t -> int -> int -> value option
(** [value_of_use t iid reg]: the SSA value reaching the use of [reg]
    at instruction [iid]; [None] in unreachable code or for
    never-defined registers. *)

val def_site_of : t -> value -> def_site

val phi_args_of : t -> int -> int -> (int * value) list
(** [(predecessor block, incoming value)] pairs of the phi for
    [(block, reg)]. *)
