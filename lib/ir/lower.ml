module Ast = Drd_lang.Ast
module Tast = Drd_lang.Tast
open Tast
open Ir

(* Mutable method-under-construction. *)
type builder_block = {
  bb_label : label;
  mutable bb_rev_instrs : instr list;
  mutable bb_term : term option;
  mutable bb_term_sync : int list;
  mutable bb_term_line : int;
}

type ctx = {
  prog : tprogram;
  sites : Site_table.t;
  meth : tmethod;
  mutable blocks : builder_block list; (* reverse creation order *)
  mutable nblocks : int;
  mutable cur : builder_block;
  mutable nregs : int;
  mutable reg_tys : (reg * Ast.ty) list; (* typed registers, newest first *)
  mutable niids : int;
  mutable nregions : int;
  mutable sync_stack : (reg * int) list; (* (lock reg, region id), innermost first *)
  mutable loops : loop_ctx list;
}

and loop_ctx = {
  lc_continue : label;
  lc_break : label;
  lc_sync_depth : int; (* length of sync_stack at loop entry *)
}

let new_block ctx =
  let bb =
    {
      bb_label = ctx.nblocks;
      bb_rev_instrs = [];
      bb_term = None;
      bb_term_sync = [];
      bb_term_line = 0;
    }
  in
  ctx.nblocks <- ctx.nblocks + 1;
  ctx.blocks <- bb :: ctx.blocks;
  bb

let sync_path ctx = List.rev_map snd ctx.sync_stack

let emit ctx line op =
  let i =
    {
      i_op = op;
      i_id = ctx.niids;
      i_line = line;
      i_sync = sync_path ctx;
    }
  in
  ctx.niids <- ctx.niids + 1;
  ctx.cur.bb_rev_instrs <- i :: ctx.cur.bb_rev_instrs

let set_ty ctx r ty = ctx.reg_tys <- (r, ty) :: ctx.reg_tys

(* A fresh temporary holding a value of type [ty]. *)
let fresh ctx ty =
  let r = ctx.nregs in
  ctx.nregs <- ctx.nregs + 1;
  set_ty ctx r ty;
  r

(* Terminate the current block; if it already has a terminator (dead
   code after return/break), the instruction stream continues in a fresh
   unreachable block, so we only set the terminator when absent. *)
let set_term ctx line term =
  match ctx.cur.bb_term with
  | None ->
      ctx.cur.bb_term <- Some term;
      ctx.cur.bb_term_sync <- sync_path ctx;
      ctx.cur.bb_term_line <- line
  | Some _ -> ()

let switch_to ctx bb = ctx.cur <- bb

let default_const = function
  | Ast.Tint -> Cint 0
  | Ast.Tbool -> Cbool false
  | _ -> Cnull

let line_of_pos (p : Ast.pos) = p.Ast.line

(* Null checks are elided when the receiver is [this] (never null). *)
let is_this (e : texpr) = match e.te with TThis -> true | _ -> false

let null_check ctx line (e : texpr) r =
  if not (is_this e) then emit ctx line (NullCheck r)

let fm_of (fi : field_info) =
  { fm_class = fi.fld_owner; fm_name = fi.fld_name; fm_index = fi.fld_index }

let sm_of (sf : sfield_info) =
  { sm_class = sf.sf_class; sm_name = sf.sf_name; sm_slot = sf.sf_slot }

let static_class_of (e : texpr) =
  match e.tty with
  | Ast.Tclass c -> c
  | _ -> invalid_arg "receiver is not an object"

let rec lower_expr ctx (e : texpr) : reg =
  let line = line_of_pos e.tepos in
  match e.te with
  | TInt n ->
      let d = fresh ctx Ast.Tint in
      emit ctx line (Const (d, Cint n));
      d
  | TBool v ->
      let d = fresh ctx Ast.Tbool in
      emit ctx line (Const (d, Cbool v));
      d
  | TNull ->
      let d = fresh ctx e.tty in
      emit ctx line (Const (d, Cnull));
      d
  | TThis -> 0
  | TLocal slot -> slot
  | TGetField (o, fi) ->
      let ro = lower_expr ctx o in
      null_check ctx line o ro;
      let d = fresh ctx e.tty in
      emit ctx line (GetField (d, ro, fm_of fi));
      d
  | TGetStatic sf ->
      let d = fresh ctx e.tty in
      emit ctx line (GetStatic (d, sm_of sf));
      d
  | TIndex (a, i) ->
      let ra = lower_expr ctx a in
      let ri = lower_expr ctx i in
      null_check ctx line a ra;
      emit ctx line (BoundsCheck (ra, ri));
      let d = fresh ctx e.tty in
      emit ctx line (ALoad (d, ra, ri));
      d
  | TLen a ->
      let ra = lower_expr ctx a in
      null_check ctx line a ra;
      let d = fresh ctx Ast.Tint in
      emit ctx line (ArrLen (d, ra));
      d
  | TCall c -> (
      match lower_call ctx line c with
      | Some r -> r
      | None ->
          (* void call in expression position cannot happen after
             typechecking, but return a dummy for robustness *)
          let d = fresh ctx Ast.Tint in
          emit ctx line (Const (d, Cint 0));
          d)
  | TNew (cname, args) ->
      let d = fresh ctx e.tty in
      emit ctx line (NewObj (d, cname));
      (match Tast.find_method ctx.prog cname "<init>" with
      | Some _ ->
          let rargs = List.map (lower_expr ctx) args in
          emit ctx line (Call (None, Ctor cname, d :: rargs, -1))
      | None -> ());
      d
  | TNewArray (base, dims) ->
      let rdims = List.map (lower_expr ctx) dims in
      let d = fresh ctx e.tty in
      emit ctx line (NewArr (d, base, rdims));
      d
  | TBinop (Ast.And, l, r) -> lower_short_circuit ctx line ~is_and:true l r
  | TBinop (Ast.Or, l, r) -> lower_short_circuit ctx line ~is_and:false l r
  | TBinop (op, l, r) ->
      let rl = lower_expr ctx l in
      let rr = lower_expr ctx r in
      let d = fresh ctx e.tty in
      emit ctx line (Binop (op, d, rl, rr));
      d
  | TUnop (op, s) ->
      let rs = lower_expr ctx s in
      let d = fresh ctx e.tty in
      emit ctx line (Unop (op, d, rs));
      d

and lower_short_circuit ctx line ~is_and l r =
  let d = fresh ctx Ast.Tbool in
  let rl = lower_expr ctx l in
  let b_rhs = new_block ctx in
  let b_skip = new_block ctx in
  let b_join = new_block ctx in
  set_term ctx line
    (if is_and then If (rl, b_rhs.bb_label, b_skip.bb_label)
     else If (rl, b_skip.bb_label, b_rhs.bb_label));
  switch_to ctx b_rhs;
  let rr = lower_expr ctx r in
  emit ctx line (Move (d, rr));
  set_term ctx line (Goto b_join.bb_label);
  switch_to ctx b_skip;
  emit ctx line (Const (d, Cbool (not is_and)));
  set_term ctx line (Goto b_join.bb_label);
  switch_to ctx b_join;
  d

and lower_call ctx line (c : tcall) : reg option =
  match c with
  | CVirtual (recv, name, args, ret) ->
      let rr = lower_expr ctx recv in
      let rargs = List.map (lower_expr ctx) args in
      null_check ctx line recv rr;
      let dst = if ret = Ast.Tvoid then None else Some (fresh ctx ret) in
      (* Virtual calls notify [Sink.call] with the receiver; give the
         call site a real id so those notifications (and per-site
         statistics built on them) name the actual source site instead
         of -1.  [ctx.niids] is the id [emit] will assign to the call
         instruction itself. *)
      let site =
        Site_table.add ctx.sites
          {
            Site_table.s_method =
              Tast.method_key ctx.meth.tm_class ctx.meth.tm_name;
            s_line = line;
            s_desc = "call " ^ name;
            s_iid = ctx.niids;
          }
      in
      emit ctx line
        (Call (dst, Virtual (static_class_of recv, name), rr :: rargs, site));
      dst
  | CStatic (cls, name, args, ret) ->
      let rargs = List.map (lower_expr ctx) args in
      let dst = if ret = Ast.Tvoid then None else Some (fresh ctx ret) in
      emit ctx line (Call (dst, Static (cls, name), rargs, -1));
      dst
  | CStart recv ->
      let rr = lower_expr ctx recv in
      null_check ctx line recv rr;
      emit ctx line (ThreadStart rr);
      None
  | CJoin recv ->
      let rr = lower_expr ctx recv in
      null_check ctx line recv rr;
      emit ctx line (ThreadJoin rr);
      None
  | CYield ->
      emit ctx line Yield;
      None
  | CWait recv ->
      let rr = lower_expr ctx recv in
      null_check ctx line recv rr;
      emit ctx line (Wait rr);
      None
  | CNotify recv ->
      let rr = lower_expr ctx recv in
      null_check ctx line recv rr;
      emit ctx line (Notify (rr, false));
      None
  | CNotifyAll recv ->
      let rr = lower_expr ctx recv in
      null_check ctx line recv rr;
      emit ctx line (Notify (rr, true));
      None

(* Emit MonitorExit for the sync regions opened more recently than
   [down_to] (a sync-stack length), innermost first. *)
let emit_sync_exits ctx line ~down_to =
  let rec go stack =
    if List.length stack > down_to then
      match stack with
      | (lock, region) :: rest ->
          emit ctx line (MonitorExit (lock, region));
          go rest
      | [] -> ()
  in
  go ctx.sync_stack

let rec lower_stmt ctx (s : tstmt) =
  let line = line_of_pos s.tspos in
  match s.ts with
  | TDecl (slot, ty, init) -> (
      set_ty ctx slot ty;
      match init with
      | Some e ->
          let r = lower_expr ctx e in
          emit ctx line (Move (slot, r))
      | None -> emit ctx line (Const (slot, default_const ty)))
  | TAssignLocal (slot, e) ->
      let r = lower_expr ctx e in
      emit ctx line (Move (slot, r))
  | TSetField (o, fi, e) ->
      let ro = lower_expr ctx o in
      let rv = lower_expr ctx e in
      null_check ctx line o ro;
      emit ctx line (PutField (ro, fm_of fi, rv))
  | TSetStatic (sf, e) ->
      let rv = lower_expr ctx e in
      emit ctx line (PutStatic (sm_of sf, rv))
  | TSetIndex (a, i, e) ->
      let ra = lower_expr ctx a in
      let ri = lower_expr ctx i in
      let rv = lower_expr ctx e in
      null_check ctx line a ra;
      emit ctx line (BoundsCheck (ra, ri));
      emit ctx line (AStore (ra, ri, rv))
  | TExpr e -> (
      match e.te with
      | TCall c -> ignore (lower_call ctx (line_of_pos e.tepos) c)
      | _ -> ignore (lower_expr ctx e))
  | TIf (cond, thn, els) ->
      let rc = lower_expr ctx cond in
      let b_then = new_block ctx in
      let b_else = new_block ctx in
      let b_join = new_block ctx in
      set_term ctx line (If (rc, b_then.bb_label, b_else.bb_label));
      switch_to ctx b_then;
      List.iter (lower_stmt ctx) thn;
      set_term ctx line (Goto b_join.bb_label);
      switch_to ctx b_else;
      List.iter (lower_stmt ctx) els;
      set_term ctx line (Goto b_join.bb_label);
      switch_to ctx b_join
  | TWhile (cond, body) ->
      let b_head = new_block ctx in
      let b_body = new_block ctx in
      let b_exit = new_block ctx in
      set_term ctx line (Goto b_head.bb_label);
      switch_to ctx b_head;
      let rc = lower_expr ctx cond in
      set_term ctx line (If (rc, b_body.bb_label, b_exit.bb_label));
      ctx.loops <-
        {
          lc_continue = b_head.bb_label;
          lc_break = b_exit.bb_label;
          lc_sync_depth = List.length ctx.sync_stack;
        }
        :: ctx.loops;
      switch_to ctx b_body;
      List.iter (lower_stmt ctx) body;
      set_term ctx line (Goto b_head.bb_label);
      ctx.loops <- List.tl ctx.loops;
      switch_to ctx b_exit
  | TFor (init, cond, update, body) ->
      Option.iter (lower_stmt ctx) init;
      let b_head = new_block ctx in
      let b_body = new_block ctx in
      let b_update = new_block ctx in
      let b_exit = new_block ctx in
      set_term ctx line (Goto b_head.bb_label);
      switch_to ctx b_head;
      (match cond with
      | Some c ->
          let rc = lower_expr ctx c in
          set_term ctx line (If (rc, b_body.bb_label, b_exit.bb_label))
      | None -> set_term ctx line (Goto b_body.bb_label));
      ctx.loops <-
        {
          lc_continue = b_update.bb_label;
          lc_break = b_exit.bb_label;
          lc_sync_depth = List.length ctx.sync_stack;
        }
        :: ctx.loops;
      switch_to ctx b_body;
      List.iter (lower_stmt ctx) body;
      set_term ctx line (Goto b_update.bb_label);
      ctx.loops <- List.tl ctx.loops;
      switch_to ctx b_update;
      Option.iter (lower_stmt ctx) update;
      set_term ctx line (Goto b_head.bb_label);
      switch_to ctx b_exit
  | TReturn e ->
      let r = Option.map (lower_expr ctx) e in
      emit_sync_exits ctx line ~down_to:0;
      set_term ctx line (Ret r);
      switch_to ctx (new_block ctx)
  | TSync (lock, body) ->
      let rl = lower_expr ctx lock in
      null_check ctx line lock rl;
      let region = ctx.nregions in
      ctx.nregions <- ctx.nregions + 1;
      emit ctx line (MonitorEnter (rl, region));
      ctx.sync_stack <- (rl, region) :: ctx.sync_stack;
      List.iter (lower_stmt ctx) body;
      ctx.sync_stack <- List.tl ctx.sync_stack;
      emit ctx line (MonitorExit (rl, region))
  | TPrint (tag, e) ->
      let r = Option.map (lower_expr ctx) e in
      emit ctx line (Print (tag, r))
  | TBreak ->
      let lc = List.hd ctx.loops in
      emit_sync_exits ctx line ~down_to:lc.lc_sync_depth;
      set_term ctx line (Goto lc.lc_break);
      switch_to ctx (new_block ctx)
  | TContinue ->
      let lc = List.hd ctx.loops in
      emit_sync_exits ctx line ~down_to:lc.lc_sync_depth;
      set_term ctx line (Goto lc.lc_continue);
      switch_to ctx (new_block ctx)

let lower_method prog sites ~id (m : tmethod) : mir =
  let entry =
    {
      bb_label = 0;
      bb_rev_instrs = [];
      bb_term = None;
      bb_term_sync = [];
      bb_term_line = 0;
    }
  in
  let ctx =
    {
      prog;
      sites;
      meth = m;
      blocks = [ entry ];
      nblocks = 1;
      cur = entry;
      nregs = max m.tm_nslots 1;
      reg_tys = [];
      niids = 0;
      nregions = 0;
      sync_stack = [];
      loops = [];
    }
  in
  (* Parameters: [this] first for instance methods, in the typechecker's
     slot order. *)
  List.iteri
    (fun i ty -> set_ty ctx i ty)
    ((if m.tm_static then [] else [ Ast.Tclass m.tm_class ]) @ m.tm_param_tys);
  let line = line_of_pos m.tm_pos in
  (* Synchronized methods: explicit outermost region on [this] (or the
     class object for static methods). *)
  if m.tm_sync then begin
    let lock =
      if m.tm_static then begin
        let r = fresh ctx (Ast.Tclass Ast.object_class) in
        emit ctx line (ClassObj (r, m.tm_class));
        r
      end
      else 0
    in
    let region = ctx.nregions in
    ctx.nregions <- ctx.nregions + 1;
    emit ctx line (MonitorEnter (lock, region));
    ctx.sync_stack <- (lock, region) :: ctx.sync_stack
  end;
  List.iter (lower_stmt ctx) m.tm_body;
  (* Fall-off-the-end epilogue. *)
  (if m.tm_ret = Ast.Tvoid then begin
     emit_sync_exits ctx line ~down_to:0;
     set_term ctx line (Ret None)
   end
   else set_term ctx line (Trap "missing return"));
  (* Seal all blocks. *)
  let blocks = Array.make ctx.nblocks None in
  List.iter
    (fun bb ->
      blocks.(bb.bb_label) <-
        Some
          {
            b_label = bb.bb_label;
            b_instrs = List.rev bb.bb_rev_instrs;
            b_term = Option.value bb.bb_term ~default:(Trap "unreachable");
            b_term_sync = bb.bb_term_sync;
            b_term_line = bb.bb_term_line;
          })
    ctx.blocks;
  ignore sites;
  let reg_tys = Array.make ctx.nregs Ast.Tvoid in
  List.iter (fun (r, ty) -> reg_tys.(r) <- ty) ctx.reg_tys;
  {
    mir_class = m.tm_class;
    mir_name = m.tm_name;
    mir_key = Tast.method_key m.tm_class m.tm_name;
    mir_id = id;
    mir_static = m.tm_static;
    mir_sync = m.tm_sync;
    mir_nparams = (if m.tm_static then 0 else 1) + List.length m.tm_param_tys;
    mir_entry = 0;
    mir_blocks = Array.map Option.get blocks;
    mir_nregs = ctx.nregs;
    mir_reg_tys = reg_tys;
    mir_next_iid = ctx.niids;
  }

(* [Tast.iter_methods] walks methods in sorted key order, so the
   lowering counter is each method's rank in that order: its id. *)
let lower_program (prog : tprogram) : Ir.program =
  let sites = Site_table.create () in
  let methods = Hashtbl.create 64 in
  let mirs = ref [] and n = ref 0 in
  Tast.iter_methods prog (fun m ->
      let mir = lower_method prog sites ~id:!n m in
      incr n;
      mirs := mir :: !mirs;
      Hashtbl.replace methods mir.mir_key mir);
  {
    p_tprog = prog;
    p_methods = methods;
    p_mirs = Array.of_list (List.rev !mirs);
    p_main = Tast.method_key prog.main_class "main";
    p_sites = sites;
  }
