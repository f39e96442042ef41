module Ir = Drd_ir.Ir
module Tast = Drd_lang.Tast
module Ast = Drd_lang.Ast

(* Flow-insensitive, subset-based (Andersen-style) may points-to
   analysis with an on-the-fly call graph, over the whole program
   (paper Section 5.3).

   One abstract object per allocation site; all concrete objects
   allocated at the site are merged.  Arrays are field-insensitive (one
   element variable per abstract array, matching the one-location-per-
   array rule); objects are field-sensitive.  Class lock objects and
   the implicit main-thread object are synthetic single-instance
   abstract objects. *)

type ao_kind =
  | Aobj of string (* class name *)
  | Aarr of Ast.ty * int (* element type, remaining dimensions *)
  | Aclassobj of string
  | Amain (* the implicit main-thread object *)

type abs_obj = {
  ao_id : int;
  ao_kind : ao_kind;
  ao_site : (int * int) option; (* (method id, instr id) *)
}

module Iset = Set.Make (Int)
module Int_tbl = Drd_core.Int_tbl

(* Inside the solver every variable is a dense int: the registers of
   method [m] are [reg_base.(m) + reg], then one return variable per
   method and one per static slot, then field and array-element
   variables numbered as they first appear.  [var] names a register or
   a static for callers outside the analysis. *)
type var =
  | Vreg of string * int (* method key, register *)
  | Vstatic of int (* static slot *)

(* A variable as [iter_pts] reports it. *)
type holder =
  | Hreg of int (* method id *)
  | Hfield of int * int (* abstract object, field index *)
  | Helem of int (* abstract object (array) *)
  | Hother (* a static slot or a return value *)

type call_site = { cs_mid : int; cs_iid : int } (* caller method id, call instr id *)

type layout = {
  reg_base : int array; (* method id -> var of its register 0 *)
  ret_base : int;
  static_base : int;
  nfixed : int; (* registers, returns and statics *)
  field_stride : int; (* field-variable key = ao * stride + index; stride - 1 = element *)
}

type t = {
  prog : Ir.program;
  objs : abs_obj array;
  lay : layout;
  pts_of : Iset.t array; (* var -> points-to set *)
  dyn_holders : holder array; (* var - nfixed -> what it is *)
  (* call graph: resolved targets per call site, and reverse edges *)
  call_targets : int list array array; (* [method].(iid) -> target methods *)
  callers : call_site list array; (* by method *)
  start_edges : int list array;
      (* method containing ThreadStart -> run-method targets *)
  start_sites : call_site list array;
      (* run method -> ThreadStart sites that can start it *)
  reachable : bool array; (* by method *)
  n_reachable : int;
  main_obj : int;
}

let obj r id = r.objs.(id)

let layout (prog : Ir.program) =
  let n = Ir.n_mirs prog in
  let reg_base = Array.make n 0 in
  let next = ref 0 in
  Ir.iter_mirs prog (fun m ->
      reg_base.(m.Ir.mir_id) <- !next;
      next := !next + m.Ir.mir_nregs);
  let ret_base = !next in
  let static_base = ret_base + n in
  let nfixed = static_base + Array.length prog.Ir.p_tprog.Tast.statics in
  let max_fields =
    Hashtbl.fold
      (fun _ (ci : Tast.class_info) acc -> max acc (Array.length ci.Tast.cls_fields))
      prog.Ir.p_tprog.Tast.classes 0
  in
  { reg_base; ret_base; static_base; nfixed; field_stride = max_fields + 1 }

let var_id r = function
  | Vreg (key, reg) -> (
      match Ir.find_mir r.prog key with
      | Some m when reg >= 0 && reg < m.Ir.mir_nregs ->
          Some (r.lay.reg_base.(m.Ir.mir_id) + reg)
      | _ -> None)
  | Vstatic slot ->
      if slot >= 0 && r.lay.static_base + slot < r.lay.nfixed then
        Some (r.lay.static_base + slot)
      else None

let pts r v =
  match var_id r v with Some id -> r.pts_of.(id) | None -> Iset.empty

(* The points-to set of register [reg] of method [mid]. *)
let pts_reg r mid reg = r.pts_of.(r.lay.reg_base.(mid) + reg)

let class_of_ao r id =
  match (obj r id).ao_kind with
  | Aobj c -> Some c
  | Amain -> Some Drd_lang.Ast.thread_class
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Constraint solving *)

type solver = {
  sprog : Ir.program;
  slay : layout;
  mutable sobjs : abs_obj array; (* first [nobjs] used *)
  mutable nobjs : int;
  mutable nvars : int;
  mutable spts : Iset.t array; (* first [nvars] used *)
  mutable subset : int list array; (* simple edges src ⊆ dst *)
  (* complex constraints attached to a base variable *)
  mutable complex : (int -> unit) list array;
  mutable holders : holder list; (* of the dynamic vars, newest first *)
  vars : int Int_tbl.t;
  mutable worklist : (int * Iset.t) list;
  scall_targets : int list array array;
  scallers : call_site list array;
  sstart_edges : int list array;
  sstart_sites : call_site list array;
  sreachable : bool array; (* also "constraints generated" *)
  sclass_objs : (string, int) Hashtbl.t;
}

let fresh_obj s kind site =
  if s.nobjs = Array.length s.sobjs then begin
    let bigger = Array.make (2 * s.nobjs + 8) { ao_id = -1; ao_kind = Amain; ao_site = None } in
    Array.blit s.sobjs 0 bigger 0 s.nobjs;
    s.sobjs <- bigger
  end;
  let id = s.nobjs in
  s.sobjs.(id) <- { ao_id = id; ao_kind = kind; ao_site = site };
  s.nobjs <- id + 1;
  id

let grow a n filler =
  let b = Array.make n filler in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The var of a field or element key, allocated on first use. *)
let dyn_var s key holder =
  match Int_tbl.find s.vars key with
  | v -> v
  | exception Not_found ->
      let v = s.nvars in
      if v = Array.length s.spts then begin
        let n = 2 * v in
        s.spts <- grow s.spts n Iset.empty;
        s.subset <- grow s.subset n [];
        s.complex <- grow s.complex n []
      end;
      s.nvars <- v + 1;
      s.holders <- holder :: s.holders;
      Int_tbl.replace s.vars key v;
      v

let vfield s ao idx = dyn_var s ((ao * s.slay.field_stride) + idx) (Hfield (ao, idx))

let velem s ao =
  dyn_var s ((ao * s.slay.field_stride) + s.slay.field_stride - 1) (Helem ao)

let add_pts s v objs =
  let cur = s.spts.(v) in
  let nw = Iset.union cur objs in
  if not (Iset.equal cur nw) then begin
    s.spts.(v) <- nw;
    s.worklist <- (v, Iset.diff nw cur) :: s.worklist
  end

let add_subset s src dst =
  let edges = s.subset.(src) in
  if not (List.memq dst edges) then begin
    s.subset.(src) <- dst :: edges;
    let cur = s.spts.(src) in
    if not (Iset.is_empty cur) then add_pts s dst cur
  end

let add_complex s base f =
  s.complex.(base) <- f :: s.complex.(base);
  Iset.iter f s.spts.(base)

let class_obj s cls =
  match Hashtbl.find_opt s.sclass_objs cls with
  | Some id -> id
  | None ->
      let id = fresh_obj s (Aclassobj cls) None in
      Hashtbl.add s.sclass_objs cls id;
      id

let record_call s ~site ~target =
  let row = s.scall_targets.(site.cs_mid) in
  let ts = row.(site.cs_iid) in
  if List.memq target ts then false
  else begin
    row.(site.cs_iid) <- target :: ts;
    s.scallers.(target) <- site :: s.scallers.(target);
    true
  end

let mid_of_key s key =
  match Ir.find_mir s.sprog key with
  | Some m -> m.Ir.mir_id
  | None -> invalid_arg ("Pointsto: no method " ^ key)

let ao_class s ao =
  match s.sobjs.(ao).ao_kind with
  | Aobj c -> Some c
  | Amain -> Some Drd_lang.Ast.thread_class
  | _ -> None

(* Bind arguments/return of a call site to a concrete target method. *)
let rec bind_call s caller (i : Ir.instr) target args dst =
  if record_call s ~site:{ cs_mid = caller; cs_iid = i.Ir.i_id } ~target then begin
    process_method s target;
    let caller_base = s.slay.reg_base.(caller)
    and target_base = s.slay.reg_base.(target) in
    List.iteri
      (fun idx arg -> add_subset s (caller_base + arg) (target_base + idx))
      args;
    match dst with
    | Some d -> add_subset s (s.slay.ret_base + target) (caller_base + d)
    | None -> ()
  end

(* Generate constraints for one method (once). *)
and process_method s mid =
  if not s.sreachable.(mid) then begin
    s.sreachable.(mid) <- true;
    let m = s.sprog.Ir.p_mirs.(mid) in
    let tprog = s.sprog.Ir.p_tprog in
    let base = s.slay.reg_base.(mid) in
    let reg r = base + r in
    Ir.iter_blocks m (fun b ->
        (* returns *)
        (match b.Ir.b_term with
        | Ir.Ret (Some r) -> add_subset s (reg r) (s.slay.ret_base + mid)
        | _ -> ());
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.i_op with
            | Ir.NewObj (d, cls) ->
                let o = fresh_obj s (Aobj cls) (Some (mid, i.Ir.i_id)) in
                add_pts s (reg d) (Iset.singleton o)
            | Ir.NewArr (d, elem, dims) ->
                (* One abstract array per dimension level. *)
                let depth = List.length dims in
                let rec mk lvl =
                  let o = fresh_obj s (Aarr (elem, lvl)) (Some (mid, i.Ir.i_id)) in
                  if lvl > 1 then begin
                    let inner = mk (lvl - 1) in
                    add_pts s (velem s o) (Iset.singleton inner)
                  end;
                  o
                in
                let o = mk depth in
                add_pts s (reg d) (Iset.singleton o)
            | Ir.ClassObj (d, cls) ->
                add_pts s (reg d) (Iset.singleton (class_obj s cls))
            | Ir.Move (d, src) -> add_subset s (reg src) (reg d)
            | Ir.GetField (d, o, fm) ->
                add_complex s (reg o) (fun ao ->
                    add_subset s (vfield s ao fm.Ir.fm_index) (reg d))
            | Ir.PutField (o, fm, src) ->
                add_complex s (reg o) (fun ao ->
                    add_subset s (reg src) (vfield s ao fm.Ir.fm_index))
            | Ir.GetStatic (d, sm) ->
                add_subset s (s.slay.static_base + sm.Ir.sm_slot) (reg d)
            | Ir.PutStatic (sm, src) ->
                add_subset s (reg src) (s.slay.static_base + sm.Ir.sm_slot)
            | Ir.ALoad (d, a, _) ->
                add_complex s (reg a) (fun ao -> add_subset s (velem s ao) (reg d))
            | Ir.AStore (a, _, src) ->
                add_complex s (reg a) (fun ao -> add_subset s (reg src) (velem s ao))
            | Ir.Call (dst, Ir.Static (cls, name), args, _) ->
                bind_call s mid i (mid_of_key s (cls ^ "." ^ name)) args dst
            | Ir.Call (dst, Ir.Ctor cls, args, _) ->
                bind_call s mid i (mid_of_key s (cls ^ ".<init>")) args dst
            | Ir.Call (dst, Ir.Virtual (_, name), args, _) ->
                (* Resolve per receiver abstract object class. *)
                add_complex s
                  (reg (List.hd args))
                  (fun ao ->
                    match ao_class s ao with
                    | None -> ()
                    | Some cls -> (
                        match Tast.dispatch tprog cls name with
                        | Some tm ->
                            bind_call s mid i
                              (mid_of_key s (tm.Tast.tm_class ^ "." ^ name))
                              args dst
                        | None -> ()))
            | Ir.ThreadStart r ->
                add_complex s (reg r) (fun ao ->
                    match ao_class s ao with
                    | None -> ()
                    | Some cls -> (
                        match Tast.dispatch tprog cls "run" with
                        | Some tm ->
                            let rk = mid_of_key s (tm.Tast.tm_class ^ ".run") in
                            process_method s rk;
                            (* The thread object becomes run's this. *)
                            add_pts s s.slay.reg_base.(rk) (Iset.singleton ao);
                            if not (List.memq rk s.sstart_edges.(mid)) then
                              s.sstart_edges.(mid) <- rk :: s.sstart_edges.(mid);
                            if
                              not
                                (List.exists
                                   (fun c -> c.cs_mid = mid && c.cs_iid = i.Ir.i_id)
                                   s.sstart_sites.(rk))
                            then
                              s.sstart_sites.(rk) <-
                                { cs_mid = mid; cs_iid = i.Ir.i_id } :: s.sstart_sites.(rk)
                        | None -> ()))
            | _ -> ())
          b.Ir.b_instrs)
  end

let solve (prog : Ir.program) : t =
  let lay = layout prog in
  let n = Ir.n_mirs prog in
  let cap = lay.nfixed + 64 in
  let s =
    {
      sprog = prog;
      slay = lay;
      sobjs = [||];
      nobjs = 0;
      nvars = lay.nfixed;
      spts = Array.make cap Iset.empty;
      subset = Array.make cap [];
      complex = Array.make cap [];
      holders = [];
      vars = Int_tbl.create 64 0;
      worklist = [];
      scall_targets =
        Array.map (fun m -> Array.make m.Ir.mir_next_iid []) prog.Ir.p_mirs;
      scallers = Array.make n [];
      sstart_edges = Array.make n [];
      sstart_sites = Array.make n [];
      sreachable = Array.make n false;
      sclass_objs = Hashtbl.create 16;
    }
  in
  let main_obj = fresh_obj s Amain None in
  (match Ir.find_mir prog prog.Ir.p_main with
  | Some m -> process_method s m.Ir.mir_id
  | None -> ());
  (* Propagate to fixpoint. *)
  let rec loop () =
    match s.worklist with
    | [] -> ()
    | (v, delta) :: rest ->
        s.worklist <- rest;
        List.iter (fun d -> add_pts s d delta) s.subset.(v);
        (match s.complex.(v) with
        | [] -> ()
        | fs -> Iset.iter (fun o -> List.iter (fun f -> f o) fs) delta);
        loop ()
  in
  loop ();
  {
    prog;
    objs = Array.sub s.sobjs 0 s.nobjs;
    lay;
    pts_of = Array.sub s.spts 0 s.nvars;
    dyn_holders = Array.of_list (List.rev s.holders);
    call_targets = s.scall_targets;
    callers = s.scallers;
    start_edges = s.sstart_edges;
    start_sites = s.sstart_sites;
    reachable = s.sreachable;
    n_reachable =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s.sreachable;
    main_obj;
  }

let is_reachable r key =
  match Ir.find_mir r.prog key with
  | Some m -> r.reachable.(m.Ir.mir_id)
  | None -> false

(* Queries by method id. *)

let callers_of r mid = r.callers.(mid)

let call_targets_of r mid iid =
  let row = r.call_targets.(mid) in
  if iid < Array.length row then row.(iid) else []

let start_targets_of r mid = r.start_edges.(mid)

let start_sites_of r mid = r.start_sites.(mid)

let n_objs r = Array.length r.objs

let n_reachable r = r.n_reachable

(* Reachable methods in id order, which is sorted key order. *)
let iter_reachable r f =
  Array.iteri (fun mid b -> if b then f r.prog.Ir.p_mirs.(mid)) r.reachable

(* Every variable with a non-empty points-to set. *)
let iter_pts r f =
  let lay = r.lay in
  Ir.iter_mirs r.prog (fun m ->
      let base = lay.reg_base.(m.Ir.mir_id) in
      for reg = 0 to m.Ir.mir_nregs - 1 do
        let p = r.pts_of.(base + reg) in
        if not (Iset.is_empty p) then f (Hreg m.Ir.mir_id) p
      done);
  for v = lay.ret_base to Array.length r.pts_of - 1 do
    let p = r.pts_of.(v) in
    if not (Iset.is_empty p) then
      f (if v < lay.nfixed then Hother else r.dyn_holders.(v - lay.nfixed)) p
  done
