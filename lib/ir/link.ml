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
     [fm_index]/[sm_slot] it executes.

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

let method_count im = Array.length im.i_methods

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
   on an error. *)
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
          fm.fm_class f.Tast.fld_name fm.fm_name

let check_static_meta tprog ~where (sm : static_meta) =
  let n = Array.length tprog.Tast.statics in
  if sm.sm_slot < 0 || sm.sm_slot >= n then
    link_error "%s: static %s.%s slot %d outside %d static slots" (where ())
      sm.sm_class sm.sm_name sm.sm_slot n;
  let sf = tprog.Tast.statics.(sm.sm_slot) in
  if sf.Tast.sf_class <> sm.sm_class || sf.Tast.sf_name <> sm.sm_name then
    link_error "%s: static slot %d is %s.%s, not %s.%s" (where ()) sm.sm_slot
      sf.Tast.sf_class sf.Tast.sf_name sm.sm_class sm.sm_name

(* Link-time validation that discharges the interpreter's bounds checks:
   once a method passes, every register operand is inside its register
   file, every branch target is a valid pc, and every non-terminator has
   a successor slot, so the hot loop fetches code and registers
   unchecked ([Array.unsafe_get]). *)
let validate (m : lmethod) : lmethod =
  let nregs = m.m_nregs and size = Array.length m.m_code in
  let reg r =
    if r < 0 || r >= nregs then
      link_error "%s: register r%d outside %d registers" m.m_key r nregs
  in
  let opt = function Some r -> reg r | None -> () in
  let target pc =
    if pc < 0 || pc >= size then
      link_error "%s: branch target %d outside %d slots" m.m_key pc size
  in
  target m.m_entry;
  Array.iteri
    (fun pc op ->
      (match op with
      | Lconst (d, _) | Lnewobj (d, _) | Lclassobj (d, _) | Lgetstatic (d, _)
        ->
          reg d
      | Lmove (d, s) | Lunop (_, d, s) ->
          reg d;
          reg s
      | Lbinop (_, d, l, r) ->
          reg d;
          reg l;
          reg r
      | Lgetfield (d, o, _) ->
          reg d;
          reg o
      | Lputfield (o, _, s) ->
          reg o;
          reg s
      | Lputstatic (_, s) -> reg s
      | Laload (a, b, c) | Lastore (a, b, c) ->
          reg a;
          reg b;
          reg c
      | Lnewarr (d, _, dims) ->
          reg d;
          List.iter reg dims
      | Larrlen (d, a) | Lboundscheck (a, d) ->
          reg d;
          reg a
      | Lnullcheck r
      | Lmonitorenter r
      | Lmonitorexit r
      | Lthreadstart r
      | Lthreadjoin r
      | Lwait r
      | Lnotify (r, _)
      | Ltrace_field (r, _, _, _)
      | Ltrace_array (r, _, _)
      | Ltrace_field_spec (r, _, _, _, _)
      | Ltrace_array_spec (r, _, _, _) ->
          reg r
      | Lcall (dst, _, args, _) ->
          opt dst;
          Array.iter reg args
      | Lprint (_, r) | Lret r -> opt r
      | Lyield | Ltrace_static _ | Ltrace_static_spec _ | Ltrap _ -> ()
      | Lgoto l -> target l
      | Lif (c, t, f) ->
          reg c;
          target t;
          target f);
      match op with
      | Lgoto _ | Lif _ | Lret _ | Ltrap _ -> ()
      | _ ->
          if pc + 1 >= size then
            link_error "%s: instruction at pc %d has no successor slot" m.m_key
              pc)
    m.m_code;
  m

(* ---- linking one method ---- *)

let link_mir ~tprog ~method_id ~class_ids ~slot_ids ~cell_of_site (m : mir)
    : lmethod =
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
  let link_op (i : instr) : lop =
    let where () = Printf.sprintf "%s:%d" key i.i_line in
    match i.i_op with
    | Const (d, c) -> Lconst (d, c)
    | Move (d, s) -> Lmove (d, s)
    | Binop (op, d, l, r) -> Lbinop (op, d, l, r)
    | Unop (op, d, s) -> Lunop (op, d, s)
    | GetField (d, o, fm) ->
        check_field_meta tprog ~where fm;
        Lgetfield (d, o, fm)
    | PutField (o, fm, s) ->
        check_field_meta tprog ~where fm;
        Lputfield (o, fm, s)
    | GetStatic (d, sm) ->
        check_static_meta tprog ~where sm;
        Lgetstatic (d, sm)
    | PutStatic (sm, s) ->
        check_static_meta tprog ~where sm;
        Lputstatic (sm, s)
    | ALoad (d, a, idx) -> Laload (d, a, idx)
    | AStore (a, idx, s) -> Lastore (a, idx, s)
    | NewObj (d, cls) -> Lnewobj (d, class_id cls)
    | NewArr (d, ty, dims) -> Lnewarr (d, ty, dims)
    | ArrLen (d, a) -> Larrlen (d, a)
    | ClassObj (d, cls) -> Lclassobj (d, class_id cls)
    | NullCheck r -> Lnullcheck r
    | BoundsCheck (a, idx) -> Lboundscheck (a, idx)
    | Call (dst, target, args, site) ->
        let lc =
          match target with
          | Static (cls, name) -> Lc_method (method_id (cls ^ "." ^ name))
          | Ctor cls -> Lc_method (method_id (cls ^ ".<init>"))
          | Virtual (_, name) -> (
              match Hashtbl.find_opt slot_ids name with
              | Some slot -> Lc_virtual (slot, name)
              | None -> link_error "%s: no class implements method %s" key name)
        in
        Lcall (dst, lc, Array.of_list args, site)
    | MonitorEnter (r, _) -> Lmonitorenter r
    | MonitorExit (r, _) -> Lmonitorexit r
    | ThreadStart r -> Lthreadstart r
    | ThreadJoin r -> Lthreadjoin r
    | Wait r -> Lwait r
    | Notify (r, all) -> Lnotify (r, all)
    | Yield -> Lyield
    | Print (tag, r) -> Lprint (tag, r)
    | Trace t -> (
        let cell = cell_of_site t.tr_site in
        match t.tr_target with
        | Tr_field (o, fm) ->
            check_field_meta tprog ~where fm;
            if cell >= 0 then
              Ltrace_field_spec (o, fm.fm_index, t.tr_kind, t.tr_site, cell)
            else Ltrace_field (o, fm.fm_index, t.tr_kind, t.tr_site)
        | Tr_static sm ->
            check_static_meta tprog ~where sm;
            if cell >= 0 then
              Ltrace_static_spec (sm.sm_slot, t.tr_kind, t.tr_site, cell)
            else Ltrace_static (sm.sm_slot, t.tr_kind, t.tr_site)
        | Tr_array (a, _) ->
            if cell >= 0 then
              Ltrace_array_spec (a, t.tr_kind, t.tr_site, cell)
            else Ltrace_array (a, t.tr_kind, t.tr_site))
  in
  for l = 0 to nblocks - 1 do
    let b = block m l in
    let pc = ref block_pc.(l) in
    List.iter
      (fun i ->
        code.(!pc) <- link_op i;
        lines.(!pc) <- i.i_line;
        incr pc)
      b.b_instrs;
    let term_line =
      match b.b_instrs with [] -> 0 | is -> (List.nth is (List.length is - 1)).i_line
    in
    code.(!pc) <-
      (match b.b_term with
      | Goto l' -> Lgoto block_pc.(l')
      | If (c, t, f) -> Lif (c, block_pc.(t), block_pc.(f))
      | Ret v -> Lret v
      | Trap msg -> Ltrap msg);
    lines.(!pc) <- term_line
  done;
  validate
    {
      m_id = m.mir_id;
      m_key = key;
      m_nregs = max m.mir_nregs 1;
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
  let methods =
    Array.map
      (link_mir ~tprog ~method_id ~class_ids ~slot_ids ~cell_of_site)
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
