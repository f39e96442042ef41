(** The link phase: resolve an instrumented {!Ir.program} into a flat
    executable image — dense method ids, per-class vtables, pre-resolved
    call sites and block-free [lop array] bodies addressed by an integer
    pc — so the VM's hot loop runs without string keys, hierarchy walks
    or list traversal.  Linking never adds, removes or reorders an
    executed step: schedules and event streams are bit-identical to the
    block interpreter's. *)

module Tast = Drd_lang.Tast
module Ast = Drd_lang.Ast

exception Link_error of string
(** A program that cannot be linked: missing main, a call to a method
    with no body, field/static layout metadata that contradicts the
    typed program, or a method body that fails link-time validation (a
    register operand outside the method's register file or of the wrong
    category for its op — int, boolean or reference, by the register's
    static type —, a call with the wrong number of arguments, a branch
    target outside its code array, a non-terminator in the last slot).
    The message names the method and source line.  Validation runs on
    every linked method and is what lets the interpreter skip bounds
    checks on register-file and code-array accesses and keep every
    value as an unchecked plain int.  No typechecked program fails it. *)

(** Pre-resolved call target. *)
type lcall =
  | Lc_method of int  (** Method id — [Static] and [Ctor] calls. *)
  | Lc_virtual of int * string
      (** Vtable slot (the receiver's dynamic class selects the row);
          the method name is kept for error messages only. *)

(** Specialization class of a trace site whose static facts license a
    cheap per-event runtime check (computed by [Drd_static.Specialize];
    the soundness rule is that the fact must hold for {e every}
    execution of the site — near-miss facts leave the site generic). *)
type spec_class =
  | Sfixed
      (** The must-held lockset equals the may-held lockset, so the
          dynamic lockset at the site is statically pinned; the runtime
          keeps a (thread, location, lockset-id) memo per cell and drops
          exact repeats of events that already reached trie storage. *)
  | Sowned
      (** Owned until escape: the site's whole alias component is
          {e managed} — every traced site that can touch one of its
          locations consults the runtime's shared location-owner map —
          so repeats by a location's owning thread are dropped until the
          first event that breaks the pattern demotes the location. *)
  | Sro
      (** Every traced write that can alias the site's location executes
          before any thread start; post-start the location is read-only,
          so reads are dropped after the first sighting. *)

(** The per-site specialization table handed to {!link}.  Sites map to
    dense {e cell} ids (the runtime's flat fast-path state arrays are
    indexed by cell). *)
type spec = {
  sp_ncells : int;
  sp_cell_of_site : int array;  (** site id -> cell id, or -1 (generic). *)
  sp_cell_class : spec_class array;  (** cell id -> class. *)
  sp_cell_managed : bool array;
      (** cell id -> participates in the shared location-owner map
          (always for [Sowned], per-component for [Sfixed], never for
          [Sro]). *)
}

(** Flat executable instruction: {!Ir.op} with call targets resolved,
    trace targets reduced to the indices the event needs, and block
    terminators inlined into the stream with branch targets as pcs. *)
type lop =
  | Lconst of Ir.reg * Ir.const
  | Lmove of Ir.reg * Ir.reg
  | Lbinop of Ast.binop * Ir.reg * Ir.reg * Ir.reg
  | Lunop of Ast.unop * Ir.reg * Ir.reg
  | Lgetfield of Ir.reg * Ir.reg * Ir.field_meta
  | Lputfield of Ir.reg * Ir.field_meta * Ir.reg
  | Lgetstatic of Ir.reg * Ir.static_meta
  | Lputstatic of Ir.static_meta * Ir.reg
  | Laload of Ir.reg * Ir.reg * Ir.reg
  | Lastore of Ir.reg * Ir.reg * Ir.reg
  | Lnewobj of Ir.reg * int  (** class id *)
  | Lnewarr of Ir.reg * Ast.ty * Ir.reg list
  | Larrlen of Ir.reg * Ir.reg
  | Lclassobj of Ir.reg * int  (** class id *)
  | Lnullcheck of Ir.reg
  | Lboundscheck of Ir.reg * Ir.reg
  | Lcall of Ir.reg option * lcall * Ir.reg array * int
      (** dst, target, args, call-site id (-1 for statics/ctors). *)
  | Lmonitorenter of Ir.reg
  | Lmonitorexit of Ir.reg
  | Lthreadstart of Ir.reg
  | Lthreadjoin of Ir.reg
  | Lwait of Ir.reg
  | Lnotify of Ir.reg * bool
  | Lyield
  | Lprint of string * Ir.reg option
  | Ltrace_field of Ir.reg * int * Drd_core.Event.kind * int
      (** object register, field index, kind, site id *)
  | Ltrace_static of int * Drd_core.Event.kind * int  (** slot, kind, site *)
  | Ltrace_array of Ir.reg * Drd_core.Event.kind * int  (** array, kind, site *)
  | Ltrace_field_spec of Ir.reg * int * Drd_core.Event.kind * int * int
      (** Specialized twin of [Ltrace_field] with the spec cell id
          appended; identical semantics when no specialized sink is
          installed. *)
  | Ltrace_static_spec of int * Drd_core.Event.kind * int * int
  | Ltrace_array_spec of Ir.reg * Drd_core.Event.kind * int * int
  | Lgoto of int
  | Lif of Ir.reg * int * int
  | Lret of Ir.reg option
  | Ltrap of string

type lmethod = {
  m_id : int;
  m_key : string;  (** "Class.name", for error messages. *)
  m_nregs : int;  (** Register file size (≥ 1). *)
  m_reg_tys : Ast.ty array;
      (** Static type per register ({!Ir.mir.mir_reg_tys}); the VM
          decodes a printed value by it. *)
  m_nparams : int;
  m_entry : int;  (** pc of the entry block. *)
  m_code : lop array;
  m_lines : int array;  (** Source line per pc, for error messages. *)
}

type image = {
  i_prog : Ir.program;  (** The linked program (tprog + site table). *)
  i_methods : lmethod array;  (** Indexed by method id. *)
  i_main : int;  (** Method id of main. *)
  i_classes : string array;  (** Class id -> name (sorted order). *)
  i_class_fields : Tast.field_info array array;
      (** Class id -> full field layout (for allocation templates). *)
  i_vtables : int array array;
      (** Class id -> vtable slot -> method id, or -1 when the class
          has no implementation for that slot. *)
  i_slot_names : string array;  (** Vtable slot -> method name. *)
  i_run_slot : int;  (** Vtable slot of ["run"], or -1. *)
  i_spec : spec option;  (** Trace specialization table, if any. *)
}

val link : ?spec:spec -> Ir.program -> image
(** Number methods and classes (sorted-key order, so ids are a pure
    function of the program), build vtables, flatten and pre-resolve
    every method body, and validate field/static layout metadata.
    When [?spec] is given, each trace site with a cell id is emitted as
    its specialized twin op; linking is otherwise unchanged (the image
    remains valid input for the generic engine, which treats the twins
    exactly like the generic ops).  Raises {!Link_error} on an
    unlinkable program. *)

val spec_cell_of_site : image -> int -> int
(** The spec cell of a site id, or -1 when the site is generic (or the
    image carries no spec table). *)

val spec_class_of_site : image -> int -> spec_class option
(** The specialization class of a site id, when it has one. *)

val method_count : image -> int
val class_count : image -> int

val find_method_id : image -> string -> int option
(** Method id of a "Class.name" key (binary search over the sorted
    method array); [None] if the image has no such method. *)
