module Tast = Drd_lang.Tast
module Ast = Drd_lang.Ast
open Ir

(* The link phase: turn an instrumented [Ir.program] — methods in a
   string-keyed hashtable, bodies as block lists of instruction lists,
   call targets as (class, name) strings — into a flat executable
   image the VM can run without touching a string or walking a class
   hierarchy:

   - methods are numbered into a dense array (ids assigned over the
     sorted key order [iter_mirs] uses, so numbering is independent of
     hashtable insertion order);
   - every class gets a vtable: [vtables.(class_id).(slot)] is the
     implementing method id, so [Virtual] dispatch is two array loads
     instead of a [Tast.dispatch] hierarchy walk plus a string-keyed
     hashtable lookup;
   - call sites are pre-resolved: [Static]/[Ctor] directly to a method
     id, [Virtual] to a vtable slot (the receiver's dynamic class picks
     the row at run time);
   - each method body is flattened into one [lop array]: block
     boundaries disappear, the pc is an integer, branch targets are
     pcs, and block terminators are ordinary slots in the stream (they
     were separate "free" steps in the block interpreter, and stay
     exactly one step here — the step counts the scheduler sees are
     unchanged);
   - field and static layout metadata is checked against the typed
     program once, at link time, so the interpreter can trust every
     [fm_index]/[sm_slot] it executes;
   - every register operand is checked against its op, by the category
     of the register's static type (int, boolean or reference), so the
     interpreter can keep every value as a plain int and read it with
     no tag test (DESIGN.md §12).

   Linking is pure bookkeeping: it never reorders, adds or removes an
   executed step, so schedules, RNG consumption and the event stream
   are bit-identical to the block interpreter's. *)

exception Link_error of string

let link_error fmt = Format.kasprintf (fun m -> raise (Link_error m)) fmt

(* Pre-resolved call target. *)
type lcall =
  | Lc_method of int (* method id: Static and Ctor calls *)
  | Lc_virtual of int * string (* vtable slot; name kept for errors *)

(* Per-site trace specialization (computed by Drd_static.Specialize,
   consumed here).  A trace site whose static facts license a cheap
   runtime check is linked into a [Ltrace_*_spec] op carrying a dense
   {e cell} id; the runtime keeps its per-site fast-path state (lockset
   memo, first-sighting bit) in flat arrays indexed by that cell, plus
   one shared location -> owner map for the {e managed} cells.  A cell
   is managed when its whole alias component is: every traced site
   that can produce an event for one of the component's locations is
   itself a managed cell, which is what keeps the ownership shortcut
   exact — the first event that breaks a location's single-owner
   pattern necessarily flows through a managed cell and demotes the
   location before any ownership transition it could cause. *)
type spec_class =
  | Sfixed (* must-held lockset = may-held lockset, compile-time constant *)
  | Sowned (* owned until escape: managed component, singleton base *)
  | Sro (* every aliasing traced write executes before any thread start *)

type spec = {
  sp_ncells : int;
  sp_cell_of_site : int array; (* site id -> cell id, or -1 for generic *)
  sp_cell_class : spec_class array; (* cell id -> class *)
  sp_cell_managed : bool array;
      (* cell id -> whether the cell takes part in the shared
         location-owner map (always true for [Sowned], per-component
         for [Sfixed], false for [Sro]) *)
}

(* Flat executable instruction.  Mirrors [Ir.op] with targets resolved
   and terminators inlined; the source line lives in a parallel array
   ([m_lines]) so the hot stream carries only what execution needs. *)
type lop =
  | Lconst of reg * const
  | Lmove of reg * reg
  | Lbinop of Ast.binop * reg * reg * reg
  | Lunop of Ast.unop * reg * reg
  | Lgetfield of reg * reg * field_meta
  | Lputfield of reg * field_meta * reg
  | Lgetstatic of reg * static_meta
  | Lputstatic of static_meta * reg
  | Laload of reg * reg * reg
  | Lastore of reg * reg * reg
  | Lnewobj of reg * int (* class id *)
  | Lnewarr of reg * Ast.ty * reg list
  | Larrlen of reg * reg
  | Lclassobj of reg * int (* class id *)
  | Lnullcheck of reg
  | Lboundscheck of reg * reg
  | Lcall of reg option * lcall * reg array * int (* args, call-site id *)
  | Lmonitorenter of reg
  | Lmonitorexit of reg
  | Lthreadstart of reg
  | Lthreadjoin of reg
  | Lwait of reg
  | Lnotify of reg * bool
  | Lyield
  | Lprint of string * reg option
  | Ltrace_field of reg * int * Drd_core.Event.kind * int (* obj, index, kind, site *)
  | Ltrace_static of int * Drd_core.Event.kind * int (* slot, kind, site *)
  | Ltrace_array of reg * Drd_core.Event.kind * int (* array, kind, site *)
  (* Specialized traces: same operands plus the spec cell id.  They are
     executed exactly like their generic twins when no specialized sink
     is installed (reference semantics), so an image containing them is
     still valid input for the generic linked engine. *)
  | Ltrace_field_spec of reg * int * Drd_core.Event.kind * int * int
  | Ltrace_static_spec of int * Drd_core.Event.kind * int * int
  | Ltrace_array_spec of reg * Drd_core.Event.kind * int * int
  | Lgoto of int
  | Lif of reg * int * int
  | Lret of reg option
  | Ltrap of string

type lmethod = {
  m_id : int;
  m_key : string; (* "Class.name", for error messages *)
  m_nregs : int;
  m_reg_tys : Ast.ty array; (* static type per register, to decode prints *)
  m_nparams : int;
  m_entry : int; (* pc of the entry block *)
  m_code : lop array;
  m_lines : int array; (* source line per pc, for error messages *)
}

type image = {
  i_prog : Ir.program; (* typed program + site table, for reports *)
  i_methods : lmethod array; (* indexed by method id *)
  i_main : int; (* method id of main *)
  i_classes : string array; (* class id -> name *)
  i_class_fields : Tast.field_info array array; (* class id -> layout *)
  i_vtables : int array array; (* class id -> slot -> method id or -1 *)
  i_slot_names : string array; (* slot -> method name, for errors *)
  i_run_slot : int; (* vtable slot of "run", or -1 if never defined *)
  i_spec : spec option; (* trace specialization table, if any site qualified *)
}

let spec_cell_of_site im site =
  match im.i_spec with
  | Some sp when site >= 0 && site < Array.length sp.sp_cell_of_site ->
      sp.sp_cell_of_site.(site)
  | _ -> -1

let spec_class_of_site im site =
  match im.i_spec with
  | Some sp ->
      let c = spec_cell_of_site im site in
      if c >= 0 then Some sp.sp_cell_class.(c) else None
  | None -> None

let class_count im = Array.length im.i_classes

let find_method_id im key =
  let n = Array.length im.i_methods in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare im.i_methods.(mid).m_key key in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* ---- numbering ---- *)

let sorted_classes (tprog : Tast.tprogram) =
  Hashtbl.fold (fun k _ acc -> k :: acc) tprog.Tast.classes []
  |> List.sort compare

(* ---- layout checking ---- *)

(* [where ()] names the instruction for diagnostics; it is only called
   on an error.  Both checks return the field's declared type. *)
let check_field_meta tprog ~where (fm : field_meta) =
  match Tast.find_class tprog fm.fm_class with
  | None -> link_error "%s: field %s.%s on unknown class" (where ()) fm.fm_class fm.fm_name
  | Some ci ->
      let n = Array.length ci.Tast.cls_fields in
      if fm.fm_index < 0 || fm.fm_index >= n then
        link_error "%s: field %s.%s index %d outside layout of %d fields"
          (where ()) fm.fm_class fm.fm_name fm.fm_index n;
      let f = ci.Tast.cls_fields.(fm.fm_index) in
      if f.Tast.fld_name <> fm.fm_name then
        link_error "%s: field index %d of %s is %s, not %s" (where ()) fm.fm_index
          fm.fm_class f.Tast.fld_name fm.fm_name;
      f.Tast.fld_ty

let check_static_meta tprog ~where (sm : static_meta) =
  let n = Array.length tprog.Tast.statics in
  if sm.sm_slot < 0 || sm.sm_slot >= n then
    link_error "%s: static %s.%s slot %d outside %d static slots" (where ())
      sm.sm_class sm.sm_name sm.sm_slot n;
  let sf = tprog.Tast.statics.(sm.sm_slot) in
  if sf.Tast.sf_class <> sm.sm_class || sf.Tast.sf_name <> sm.sm_name then
    link_error "%s: static slot %d is %s.%s, not %s.%s" (where ()) sm.sm_slot
      sf.Tast.sf_class sf.Tast.sf_name sm.sm_class sm.sm_name;
  sf.Tast.sf_ty

(* ---- register types ----

   What the VM needs of a register's static type is its category: an
   int, a boolean and a reference (null included) each live in one
   plain-int slot, and the interpreter reads a slot with no tag test.
   So every operand's category is checked against its op here, once;
   a register nothing writes has no category and no op may read it. *)
type cat = Kint | Kbool | Kref | Knone

let cat_of_ty = function
  | Ast.Tint -> Kint
  | Ast.Tbool -> Kbool
  | Ast.Tclass _ | Ast.Tarray _ -> Kref
  | Ast.Tvoid -> Knone

let cat_name = function
  | Kint -> "int"
  | Kbool -> "boolean"
  | Kref -> "reference"
  | Knone -> "void"

(* A method's parameter categories ([this] first for instance methods)
   and return category. *)
type signature = { s_params : cat array; s_ret : cat }

let signature tprog (m : mir) =
  let ret =
    match Tast.find_method tprog m.mir_class m.mir_name with
    | Some tm -> cat_of_ty tm.Tast.tm_ret
    | None -> link_error "%s: method has no typed declaration" m.mir_key
  in
  {
    s_params = Array.map cat_of_ty (Array.sub m.mir_reg_tys 0 m.mir_nparams);
    s_ret = ret;
  }

(* Link-time validation that discharges the interpreter's remaining
   bounds checks: once a method passes (and [link_mir]'s operand checks,
   which cover the register file), every branch target is a valid pc
   and every non-terminator has a successor slot, so the hot loop
   fetches code and registers unchecked ([Array.unsafe_get]). *)
let validate (m : lmethod) : lmethod =
  let size = Array.length m.m_code in
  let target pc =
    if pc < 0 || pc >= size then
      link_error "%s: branch target %d outside %d slots" m.m_key pc size
  in
  target m.m_entry;
  Array.iteri
    (fun pc op ->
      match op with
      | Lgoto l -> target l
      | Lif (_, t, f) ->
          target t;
          target f
      | Lret _ | Ltrap _ -> ()
      | _ ->
          if pc + 1 >= size then
            link_error "%s: instruction at pc %d has no successor slot" m.m_key
              pc)
    m.m_code;
  m

(* ---- linking one method ---- *)

let link_mir ~tprog ~method_id ~class_ids ~slot_ids ~vtables ~cell_of_site
    ~sigs (m : mir) : lmethod =
  let key = mir_key m in
  let nblocks = n_blocks m in
  (* First pass: pc of every block (instructions + one terminator slot). *)
  let block_pc = Array.make nblocks 0 in
  let pc = ref 0 in
  for l = 0 to nblocks - 1 do
    block_pc.(l) <- !pc;
    pc := !pc + List.length (block m l).b_instrs + 1
  done;
  let size = !pc in
  let code = Array.make (max size 1) (Ltrap "unlinked slot") in
  let lines = Array.make (max size 1) 0 in
  let method_id mkey =
    match method_id mkey with
    | Some id -> id
    | None -> link_error "%s: call to unknown method %s" key mkey
  in
  let class_id cls =
    match Hashtbl.find_opt class_ids cls with
    | Some id -> id
    | None -> link_error "%s: unknown class %s" key cls
  in
  (* Operand checks, by source line.  [cat] also bounds the register to
     the method's register file, so every operand the interpreter reads
     unchecked passes through it. *)
  let tys = m.mir_reg_tys in
  let nregs = Array.length tys in
  let cat line r =
    if r < 0 || r >= nregs then
      link_error "%s:%d: register r%d outside %d registers" key line r nregs;
    cat_of_ty tys.(r)
  in
  let expect line what want r =
    let c = cat line r in
    if c <> want || c = Knone then
      link_error "%s:%d: register type mismatch (%s): r%d is %s, not %s" key
        line what r (cat_name c) (cat_name want)
  in
  let where line () = Printf.sprintf "%s:%d" key line in
  let field line what fm r =
    expect line what
      (cat_of_ty (check_field_meta tprog ~where:(where line) fm))
      r
  in
  let static line what sm r =
    expect line what
      (cat_of_ty (check_static_meta tprog ~where:(where line) sm))
      r
  in
  (* The element category of array register [a], which must hold an
     array. *)
  let elem line what a =
    expect line what Kref a;
    match tys.(a) with
    | Ast.Tarray t -> cat_of_ty t
    | t -> link_error "%s:%d: %s on r%d of type %a" key line what a Ast.pp_ty t
  in
  let link_op (i : instr) : lop =
    let line = i.i_line in
    match i.i_op with
    | Const (d, c) ->
        expect line "const"
          (match c with Cint _ -> Kint | Cbool _ -> Kbool | Cnull -> Kref)
          d;
        Lconst (d, c)
    | Move (d, s) ->
        expect line "move" (cat line s) d;
        Lmove (d, s)
    | Binop (op, d, l, r) ->
        (match op with
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
            expect line "binop" Kint l;
            expect line "binop" Kint r;
            expect line "binop" Kint d
        | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
            expect line "binop" Kint l;
            expect line "binop" Kint r;
            expect line "binop" Kbool d
        | Ast.Eq | Ast.Ne ->
            let c = cat line l in
            expect line "binop" c l;
            expect line "binop" c r;
            expect line "binop" Kbool d
        | Ast.And | Ast.Or ->
            link_error "%s:%d: && or || not expanded into control flow" key
              line);
        Lbinop (op, d, l, r)
    | Unop (op, d, s) ->
        let c = match op with Ast.Neg -> Kint | Ast.Not -> Kbool in
        expect line "unop" c s;
        expect line "unop" c d;
        Lunop (op, d, s)
    | GetField (d, o, fm) ->
        expect line "getfield" Kref o;
        field line "getfield" fm d;
        Lgetfield (d, o, fm)
    | PutField (o, fm, s) ->
        expect line "putfield" Kref o;
        field line "putfield" fm s;
        Lputfield (o, fm, s)
    | GetStatic (d, sm) ->
        static line "getstatic" sm d;
        Lgetstatic (d, sm)
    | PutStatic (sm, s) ->
        static line "putstatic" sm s;
        Lputstatic (sm, s)
    | ALoad (d, a, idx) ->
        expect line "aload" Kint idx;
        expect line "aload" (elem line "aload" a) d;
        Laload (d, a, idx)
    | AStore (a, idx, s) ->
        expect line "astore" Kint idx;
        expect line "astore" (elem line "astore" a) s;
        Lastore (a, idx, s)
    | NewObj (d, cls) ->
        expect line "new" Kref d;
        Lnewobj (d, class_id cls)
    | NewArr (d, ty, dims) ->
        expect line "new array" Kref d;
        List.iter (expect line "array size" Kint) dims;
        Lnewarr (d, ty, dims)
    | ArrLen (d, a) ->
        expect line "length" Kref a;
        expect line "length" Kint d;
        Larrlen (d, a)
    | ClassObj (d, cls) ->
        expect line "class object" Kref d;
        Lclassobj (d, class_id cls)
    | NullCheck r ->
        expect line "null check" Kref r;
        Lnullcheck r
    | BoundsCheck (a, idx) ->
        expect line "bounds check" Kref a;
        expect line "bounds check" Kint idx;
        Lboundscheck (a, idx)
    | Call (dst, target, args, site) ->
        (* A virtual call is checked against the method its static
           receiver class resolves to (that class's vtable row):
           overrides keep the signature ([Typecheck.check_overrides]),
           while unrelated classes that share the slot need not. *)
        let lc, callee =
          match target with
          | Static (cls, name) ->
              let id = method_id (cls ^ "." ^ name) in
              (Lc_method id, id)
          | Ctor cls ->
              let id = method_id (cls ^ ".<init>") in
              (Lc_method id, id)
          | Virtual (cls, name) -> (
              let impl =
                match
                  (Hashtbl.find_opt slot_ids name, Hashtbl.find_opt class_ids cls)
                with
                | Some slot, Some cid -> (slot, vtables.(cid).(slot))
                | _ -> (-1, -1)
              in
              match impl with
              | slot, id when id >= 0 -> (Lc_virtual (slot, name), id)
              | _ -> link_error "%s: class %s has no method %s" key cls name)
        in
        let params = sigs.(callee).s_params in
        let nargs = List.length args in
        if nargs <> Array.length params then
          link_error "%s:%d: call with %d arguments, expected %d" key line nargs
            (Array.length params);
        List.iteri (fun k r -> expect line "argument" params.(k) r) args;
        Option.iter (expect line "call result" sigs.(callee).s_ret) dst;
        Lcall (dst, lc, Array.of_list args, site)
    | MonitorEnter (r, _) ->
        expect line "monitorenter" Kref r;
        Lmonitorenter r
    | MonitorExit (r, _) ->
        expect line "monitorexit" Kref r;
        Lmonitorexit r
    | ThreadStart r ->
        expect line "start" Kref r;
        Lthreadstart r
    | ThreadJoin r ->
        expect line "join" Kref r;
        Lthreadjoin r
    | Wait r ->
        expect line "wait" Kref r;
        Lwait r
    | Notify (r, all) ->
        expect line "notify" Kref r;
        Lnotify (r, all)
    | Yield -> Lyield
    | Print (tag, r) ->
        Option.iter (fun r -> expect line "print" (cat line r) r) r;
        Lprint (tag, r)
    | Trace t -> (
        let cell = cell_of_site t.tr_site in
        match t.tr_target with
        | Tr_field (o, fm) ->
            expect line "trace" Kref o;
            ignore (check_field_meta tprog ~where:(where line) fm : Ast.ty);
            if cell >= 0 then
              Ltrace_field_spec (o, fm.fm_index, t.tr_kind, t.tr_site, cell)
            else Ltrace_field (o, fm.fm_index, t.tr_kind, t.tr_site)
        | Tr_static sm ->
            ignore (check_static_meta tprog ~where:(where line) sm : Ast.ty);
            if cell >= 0 then
              Ltrace_static_spec (sm.sm_slot, t.tr_kind, t.tr_site, cell)
            else Ltrace_static (sm.sm_slot, t.tr_kind, t.tr_site)
        | Tr_array (a, idx) ->
            expect line "trace" Kref a;
            expect line "trace" Kint idx;
            if cell >= 0 then
              Ltrace_array_spec (a, t.tr_kind, t.tr_site, cell)
            else Ltrace_array (a, t.tr_kind, t.tr_site))
  in
  let ret = sigs.(m.mir_id).s_ret in
  for l = 0 to nblocks - 1 do
    let b = block m l in
    let pc = ref block_pc.(l) in
    List.iter
      (fun i ->
        code.(!pc) <- link_op i;
        lines.(!pc) <- i.i_line;
        incr pc)
      b.b_instrs;
    code.(!pc) <-
      (match b.b_term with
      | Goto l' -> Lgoto block_pc.(l')
      | If (c, t, f) ->
          expect b.b_term_line "if" Kbool c;
          Lif (c, block_pc.(t), block_pc.(f))
      | Ret v ->
          Option.iter (expect b.b_term_line "return" ret) v;
          Lret v
      | Trap msg -> Ltrap msg);
    (* The code line table gives a terminator its block's last
       instruction's line (0 for an empty block); [compile_identity.txt]
       pins that table.  Diagnostics name the terminator's own statement
       ([b_term_line]). *)
    lines.(!pc) <-
      (match b.b_instrs with
      | [] -> 0
      | is -> (List.nth is (List.length is - 1)).i_line)
  done;
  validate
    {
      m_id = m.mir_id;
      m_key = key;
      m_nregs = max m.mir_nregs 1;
      m_reg_tys = tys;
      m_nparams = m.mir_nparams;
      m_entry = block_pc.(m.mir_entry);
      m_code = code;
      m_lines = lines;
    }

(* ---- linking a program ---- *)

let link ?spec (p : program) : image =
  let tprog = p.p_tprog in
  (match spec with
  | Some sp ->
      Array.iter
        (fun c ->
          if c >= sp.sp_ncells then
            link_error "spec table: cell %d outside %d cells" c sp.sp_ncells)
        sp.sp_cell_of_site;
      if Array.length sp.sp_cell_class <> sp.sp_ncells then
        link_error "spec table: %d cell classes for %d cells"
          (Array.length sp.sp_cell_class) sp.sp_ncells;
      if Array.length sp.sp_cell_managed <> sp.sp_ncells then
        link_error "spec table: %d managed flags for %d cells"
          (Array.length sp.sp_cell_managed) sp.sp_ncells
  | None -> ());
  let cell_of_site site =
    match spec with
    | Some sp when site >= 0 && site < Array.length sp.sp_cell_of_site ->
        sp.sp_cell_of_site.(site)
    | _ -> -1
  in
  (* Method ids are the [mir_id]s lowering assigned over sorted keys,
     so they are a pure function of the program, never of hashtable
     history. *)
  let method_id key = Option.map (fun m -> m.mir_id) (find_mir p key) in
  let main =
    match method_id p.p_main with
    | Some id -> id
    | None ->
        link_error "program has no main method: %S is not among its %d methods"
          p.p_main (n_mirs p)
  in
  (* Class numbering, also over sorted names. *)
  let classes = Array.of_list (sorted_classes tprog) in
  let class_ids = Hashtbl.create 16 in
  Array.iteri (fun id c -> Hashtbl.add class_ids c id) classes;
  let class_fields =
    Array.map
      (fun c ->
        match Tast.find_class tprog c with
        | Some ci -> ci.Tast.cls_fields
        | None -> assert false)
      classes
  in
  (* Vtable slots: one per method name that any class dispatches, in
     sorted name order. *)
  let slot_names =
    Array.fold_left
      (fun acc c ->
        match Tast.find_class tprog c with
        | Some ci -> List.fold_left (fun acc (n, _) -> n :: acc) acc ci.Tast.cls_vtable
        | None -> acc)
      [] classes
    |> List.sort_uniq compare |> Array.of_list
  in
  let slot_ids = Hashtbl.create 16 in
  Array.iteri (fun slot n -> Hashtbl.add slot_ids n slot) slot_names;
  let nslots = Array.length slot_names in
  let vtables =
    Array.map
      (fun c ->
        let row = Array.make (max nslots 1) (-1) in
        (match Tast.find_class tprog c with
        | Some ci ->
            List.iter
              (fun (name, impl) ->
                let mkey = impl ^ "." ^ name in
                match method_id mkey with
                | Some id -> row.(Hashtbl.find slot_ids name) <- id
                | None ->
                    link_error "class %s: vtable entry %s has no method body" c
                      mkey)
              ci.Tast.cls_vtable
        | None -> ());
        row)
      classes
  in
  let sigs = Array.map (signature tprog) p.p_mirs in
  let methods =
    Array.map
      (link_mir ~tprog ~method_id ~class_ids ~slot_ids ~vtables ~cell_of_site
         ~sigs)
      p.p_mirs
  in
  {
    i_prog = p;
    i_methods = methods;
    i_main = main;
    i_classes = classes;
    i_class_fields = class_fields;
    i_vtables = vtables;
    i_slot_names = slot_names;
    i_run_slot =
      (match Hashtbl.find_opt slot_ids "run" with Some s -> s | None -> -1);
    i_spec = spec;
  }
