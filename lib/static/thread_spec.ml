module Ir = Drd_ir.Ir
module Tast = Drd_lang.Tast

(* The thread-specific extension of escape analysis (paper Section 5.4).

   Thread-specific methods:
   (1) constructors of Thread subclasses, and run methods that are only
       invoked by being started (never called explicitly);
   (2) non-static methods all of whose direct callers are thread-
       specific non-static methods passing their own [this] as the
       receiver.

   Thread-specific fields: fields declared in Thread subclasses that
   are only accessed through [this] inside thread-specific methods.

   Unsafe threads: thread classes whose constructor can transitively
   reach a [Thread.start] or lets [this] escape.  Accesses to
   thread-specific fields of safe threads cannot participate in a
   datarace and are excluded from the static race set. *)

type t = {
  prog : Ir.program;
  specific_methods : bool array; (* by method id *)
  specific_fields : (string * int, unit) Hashtbl.t; (* declaring class, index *)
  unsafe_classes : (string, unit) Hashtbl.t;
  specific_objects : bool array; (* by abstract object *)
}

let thread_classes (prog : Ir.program) =
  let tprog = prog.Ir.p_tprog in
  Hashtbl.fold
    (fun name (ci : Tast.class_info) acc ->
      if ci.Tast.cls_is_thread then name :: acc else acc)
    tprog.Tast.classes []
  |> List.sort compare

let compute (pt : Pointsto.t) : t =
  let prog = pt.Pointsto.prog in
  let tprog = prog.Ir.p_tprog in
  let nmeth = Ir.n_mirs prog in
  let mirs = prog.Ir.p_mirs in
  let mid_of key = Option.map (fun m -> m.Ir.mir_id) (Ir.find_mir prog key) in
  let threads = thread_classes prog in
  let is_thread_class c =
    match Tast.find_class tprog c with
    | Some ci -> ci.Tast.cls_is_thread
    | None -> false
  in
  (* Instruction lookup for call-site inspection. *)
  let instr_at = Ir.instr_lookup mirs in
  (* Explicitly-invoked run methods. *)
  let explicitly_called = Array.make nmeth false in
  Ir.iter_mirs prog (fun m ->
      Ir.iter_instrs m (fun _ i ->
          match i.Ir.i_op with
          | Ir.Call _ ->
              List.iter
                (fun tgt -> explicitly_called.(tgt) <- true)
                (Pointsto.call_targets_of pt m.Ir.mir_id i.Ir.i_id)
          | _ -> ()));
  (* Base set: thread constructors and start-only run methods. *)
  let specific = Array.make nmeth false in
  List.iter
    (fun cls ->
      Option.iter (fun mid -> specific.(mid) <- true) (mid_of (cls ^ ".<init>"));
      match Tast.dispatch tprog cls "run" with
      | Some tm -> (
          match mid_of (tm.Tast.tm_class ^ ".run") with
          | Some rk when not explicitly_called.(rk) -> specific.(rk) <- true
          | _ -> ())
      | None -> ())
    threads;
  (* Closure rule (2): non-static methods whose direct callers are all
     thread-specific non-static methods passing their own this.  The
     set can only shrink as callers are examined, so iterate a
     candidate-removal fixpoint. *)
  let is_instance mid = not mirs.(mid).Ir.mir_static in
  let candidate mid =
    is_instance mid
    && (not specific.(mid))
    && pt.Pointsto.reachable.(mid)
    && Pointsto.callers_of pt mid <> []
  in
  let passes_this (cs : Pointsto.call_site) =
    match instr_at cs.Pointsto.cs_mid cs.Pointsto.cs_iid with
    | Some { Ir.i_op = Ir.Call (_, Ir.Virtual _, recv :: _, _); _ } -> recv = 0
    | _ -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Pointsto.iter_reachable pt (fun m ->
        let mid = m.Ir.mir_id in
        if candidate mid then
          let ok =
            List.for_all
              (fun (cs : Pointsto.call_site) ->
                specific.(cs.Pointsto.cs_mid)
                && is_instance cs.Pointsto.cs_mid
                && passes_this cs)
              (Pointsto.callers_of pt mid)
          in
          if ok then begin
            specific.(mid) <- true;
            changed := true
          end)
  done;
  (* Thread-specific fields: declared in thread classes, accessed only
     via [this] within thread-specific methods. *)
  let field_ok = Hashtbl.create 32 in
  let disqualify = Hashtbl.create 32 in
  List.iter
    (fun cls ->
      match Tast.find_class tprog cls with
      | Some ci ->
          Array.iter
            (fun (f : Tast.field_info) ->
              (* Only fields declared in thread classes themselves. *)
              if is_thread_class f.Tast.fld_owner then
                Hashtbl.replace field_ok (f.Tast.fld_owner, f.Tast.fld_index) ())
            ci.Tast.cls_fields
      | None -> ())
    threads;
  if Hashtbl.length field_ok > 0 then
    Ir.iter_mirs prog (fun m ->
        let meth_specific = specific.(m.Ir.mir_id) && not m.Ir.mir_static in
        Ir.iter_instrs m (fun _ i ->
            match i.Ir.i_op with
            | Ir.GetField (_, o, fm) | Ir.PutField (o, fm, _) ->
                if not (meth_specific && o = 0) then begin
                  let k = (fm.Ir.fm_class, fm.Ir.fm_index) in
                  if Hashtbl.mem field_ok k then Hashtbl.replace disqualify k ()
                end
            | _ -> ()));
  let specific_fields_tbl = Hashtbl.create 32 in
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem disqualify k) then Hashtbl.replace specific_fields_tbl k ())
    field_ok;
  (* Unsafe threads: constructor reaches Thread.start, or this escapes
     the constructor (stored to the heap, a static, an array, or passed
     in a non-receiver position / to a non-thread-specific callee). *)
  let unsafe = Hashtbl.create 8 in
  let reaches_start =
    let memo = Array.make nmeth (-1) in
    let rec go visiting mid =
      match memo.(mid) with
      | 1 -> true
      | 0 -> false
      | _ ->
          if List.memq mid visiting then false
          else
            let found = ref false in
            Ir.iter_instrs mirs.(mid) (fun _ i ->
                match i.Ir.i_op with
                | Ir.ThreadStart _ -> found := true
                | Ir.Call _ ->
                    if
                      List.exists
                        (go (mid :: visiting))
                        (Pointsto.call_targets_of pt mid i.Ir.i_id)
                    then found := true
                | _ -> ());
            memo.(mid) <- (if !found then 1 else 0);
            !found
    in
    go []
  in
  let this_escapes mid =
    let m = mirs.(mid) in
    let escapes = ref false in
    Ir.iter_instrs m (fun _ i ->
        match i.Ir.i_op with
        | Ir.PutField (_, _, src) when src = 0 -> escapes := true
        | Ir.PutStatic (_, src) when src = 0 -> escapes := true
        | Ir.AStore (_, _, src) when src = 0 -> escapes := true
        | Ir.Call (_, _, args, _) ->
            List.iteri
              (fun idx a ->
                if a = 0 && idx > 0 then escapes := true
                else if a = 0 && idx = 0 then
                  (* receiver position: fine only if every target is
                     itself thread-specific *)
                  if
                    not
                      (List.for_all
                         (fun tgt -> specific.(tgt))
                         (Pointsto.call_targets_of pt mid i.Ir.i_id))
                  then escapes := true)
              args
        | _ -> ());
    Ir.iter_blocks m (fun b ->
        match b.Ir.b_term with
        | Ir.Ret (Some r) when r = 0 -> escapes := true
        | _ -> ());
    !escapes
  in
  List.iter
    (fun cls ->
      match mid_of (cls ^ ".<init>") with
      | Some ctor ->
          if reaches_start ctor || this_escapes ctor then
            Hashtbl.replace unsafe cls ()
      | None -> ())
    threads;
  (* Thread-specific OBJECTS (Section 5.4, last paragraph): an abstract
     object only reachable through thread-specific methods of a safe
     thread or through its thread-specific fields cannot be involved in
     a race.  Computed as a greatest fixpoint over the points-to
     results: start from every object held somewhere and remove any
     object one of whose holders is not a qualifying variable (the
     element variable of another candidate array keeps the candidate
     alive only while its parent stays a candidate). *)
  let field_owner_of ao idx =
    match (Pointsto.obj pt ao).Pointsto.ao_kind with
    | Pointsto.Aobj cls | Pointsto.Aclassobj cls -> (
        match Tast.find_class tprog cls with
        | Some ci when idx < Array.length ci.Tast.cls_fields ->
            Some ci.Tast.cls_fields.(idx)
        | _ -> None)
    | Pointsto.Amain -> None
    | Pointsto.Aarr _ -> None
  in
  let nobjs = Pointsto.n_objs pt in
  let holders = Array.make nobjs [] in
  Pointsto.iter_pts pt (fun h objs ->
      Pointsto.Iset.iter (fun o -> holders.(o) <- h :: holders.(o)) objs);
  (* [candidate.(o)]: still possibly thread-specific; starts as "held
     somewhere". *)
  let candidate = Array.map (fun hs -> hs <> []) holders in
  let holder_ok (h : Pointsto.holder) =
    match h with
    | Pointsto.Hreg mid -> specific.(mid) && not mirs.(mid).Ir.mir_static
    | Pointsto.Hfield (ao, idx) -> (
        match field_owner_of ao idx with
        | Some fi ->
            Hashtbl.mem specific_fields_tbl (fi.Tast.fld_owner, fi.Tast.fld_index)
            && not (Hashtbl.mem unsafe fi.Tast.fld_owner)
        | None -> false)
    | Pointsto.Helem parent ->
        (* inner array of a candidate array *)
        candidate.(parent)
    | Pointsto.Hother -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for o = 0 to nobjs - 1 do
      if candidate.(o) && not (List.for_all holder_ok holders.(o)) then begin
        candidate.(o) <- false;
        changed := true
      end
    done
  done;
  {
    prog;
    specific_methods = specific;
    specific_fields = specific_fields_tbl;
    unsafe_classes = unsafe;
    specific_objects = candidate;
  }

let is_specific_method t key =
  match Ir.find_mir t.prog key with
  | Some m -> t.specific_methods.(m.Ir.mir_id)
  | None -> false

let is_specific_field t ~cls ~index = Hashtbl.mem t.specific_fields (cls, index)

let is_unsafe_class t cls = Hashtbl.mem t.unsafe_classes cls

let is_specific_object t ao = t.specific_objects.(ao)

(* An access instruction that cannot race because it touches a
   thread-specific field of a safe thread. *)
let access_is_thread_specific t (i : Ir.instr) =
  match i.Ir.i_op with
  | Ir.GetField (_, _, fm) | Ir.PutField (_, fm, _) ->
      is_specific_field t ~cls:fm.Ir.fm_class ~index:fm.Ir.fm_index
      && not (is_unsafe_class t fm.Ir.fm_class)
  | _ -> false
