open Ir

(* Which instructions may be deleted when their result is dead?
   - [Trace] never: the paper marks instrumentation as having an
     unknown side effect (Section 6.2).
   - Memory accesses never: they are the monitored events (and loads
     could fault only via their separate PEIs, which also stay).
   - PEIs, calls, monitors, prints, thread ops: effectful.
   - [Binop] with Div/Mod can trap on zero: only removable when the
     divisor is a known non-zero constant. *)
let removable_if_dead op ~const_of =
  match op with
  | Const _ | Move _ | Unop _ | ArrLen _ | ClassObj _ -> true
  | Binop ((Ast.Div | Ast.Mod), _, _, r) -> (
      match const_of r with Some (Cint n) -> n <> 0 | _ -> false)
  | Binop _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Local constant/copy propagation and folding, one block at a time.
   The value state maps registers to a known constant or a copy source;
   any other definition invalidates.  Copies are only propagated to
   USES; definitions keep their registers so liveness stays simple. *)

let fold_binop op a b =
  match (op : Ast.binop) with
  | Ast.Add -> Some (Cint (a + b))
  | Ast.Sub -> Some (Cint (a - b))
  | Ast.Mul -> Some (Cint (a * b))
  | Ast.Div -> if b = 0 then None else Some (Cint (a / b))
  | Ast.Mod -> if b = 0 then None else Some (Cint (a mod b))
  | Ast.Lt -> Some (Cbool (a < b))
  | Ast.Le -> Some (Cbool (a <= b))
  | Ast.Gt -> Some (Cbool (a > b))
  | Ast.Ge -> Some (Cbool (a >= b))
  | Ast.Eq -> Some (Cbool (a = b))
  | Ast.Ne -> Some (Cbool (a <> b))
  | Ast.And | Ast.Or -> None (* expanded at lowering *)

(* The value state of one block, over the method's registers: [kind.(r)]
   is [unknown], [known_const] (value in [cval.(r)]) or [known_copy]
   (source in [csrc.(r)]).  [copies.(s)] lists the registers that were
   made copies of [s], so killing [s] visits only those (an entry whose
   register has since been redefined is skipped).  [touched] lists every
   register written, so the next block starts from a clean state
   without clearing the whole arrays.  One state serves every block of
   a method. *)
type state = {
  kind : int array;
  cval : const array;
  csrc : int array;
  copies : int list array;
  mutable touched : int list;
}

let unknown = 0

let known_const = 1

let known_copy = 2

let new_state nregs =
  {
    kind = Array.make nregs unknown;
    cval = Array.make nregs Cnull;
    csrc = Array.make nregs 0;
    copies = Array.make nregs [];
    touched = [];
  }

let reset st =
  List.iter
    (fun r ->
      st.kind.(r) <- unknown;
      st.copies.(r) <- [])
    st.touched;
  st.touched <- []

let propagate_block st (b : block) =
  let resolve r = if st.kind.(r) = known_copy then st.csrc.(r) else r in
  let const_of r =
    let k = st.kind.(r) in
    if k = known_copy then
      let s = st.csrc.(r) in
      if st.kind.(s) = known_const then Some st.cval.(s) else None
    else if k = known_const then Some st.cval.(r)
    else None
  in
  (* [d] is redefined: drop its own binding and every copy of it. *)
  let kill d =
    st.kind.(d) <- unknown;
    List.iter
      (fun r ->
        if st.kind.(r) = known_copy && st.csrc.(r) = d then
          st.kind.(r) <- unknown)
      st.copies.(d);
    st.copies.(d) <- []
  in
  let set_const d c =
    st.kind.(d) <- known_const;
    st.cval.(d) <- c;
    st.touched <- d :: st.touched
  in
  let set_copy d x =
    st.kind.(d) <- known_copy;
    st.csrc.(d) <- x;
    st.copies.(x) <- d :: st.copies.(x);
    st.touched <- d :: x :: st.touched
  in
  let subst op =
    let s = resolve in
    match op with
    | Const _ -> op
    | Move (d, x) -> Move (d, s x)
    | Binop (o, d, l, r) -> Binop (o, d, s l, s r)
    | Unop (o, d, x) -> Unop (o, d, s x)
    | GetField (d, o, fm) -> GetField (d, s o, fm)
    | PutField (o, fm, x) -> PutField (s o, fm, s x)
    | GetStatic _ -> op
    | PutStatic (sm, x) -> PutStatic (sm, s x)
    | ALoad (d, a, i) -> ALoad (d, s a, s i)
    | AStore (a, i, x) -> AStore (s a, s i, s x)
    | NewObj _ -> op
    | NewArr (d, ty, dims) -> NewArr (d, ty, List.map s dims)
    | ArrLen (d, a) -> ArrLen (d, s a)
    | ClassObj _ -> op
    | NullCheck r -> NullCheck (s r)
    | BoundsCheck (a, i) -> BoundsCheck (s a, s i)
    | Call (d, t, args, site) -> Call (d, t, List.map s args, site)
    | MonitorEnter (r, id) -> MonitorEnter (s r, id)
    | MonitorExit (r, id) -> MonitorExit (s r, id)
    | ThreadStart r -> ThreadStart (s r)
    | ThreadJoin r -> ThreadJoin (s r)
    | Wait r -> Wait (s r)
    | Notify (r, all) -> Notify (s r, all)
    | Yield -> op
    | Print (tag, r) -> Print (tag, Option.map s r)
    | Trace t ->
        Trace
          {
            t with
            tr_target =
              (match t.tr_target with
              | Tr_field (o, fm) -> Tr_field (s o, fm)
              | Tr_static sm -> Tr_static sm
              | Tr_array (a, i) -> Tr_array (s a, s i));
          }
  in
  List.iter
    (fun (i : instr) ->
      let op = subst i.i_op in
      (* Fold arithmetic over known constants. *)
      let op =
        match op with
        | Binop (o, d, l, r) -> (
            match (const_of l, const_of r) with
            | Some (Cint a), Some (Cint b) -> (
                match fold_binop o a b with
                | Some c -> Const (d, c)
                | None -> op)
            | _ -> op)
        | Unop (Ast.Neg, d, x) -> (
            match const_of x with
            | Some (Cint a) -> Const (d, Cint (-a))
            | _ -> op)
        | Unop (Ast.Not, d, x) -> (
            match const_of x with
            | Some (Cbool v) -> Const (d, Cbool (not v))
            | _ -> op)
        | Move (d, x) -> (
            match const_of x with Some c -> Const (d, c) | None -> op)
        | _ -> op
      in
      i.i_op <- op;
      (* Update the value state. *)
      match op with
      | Const (d, c) ->
          kill d;
          set_const d c
      | Move (d, x) ->
          kill d;
          if d <> x then set_copy d x
      | _ -> ( match def op with Some d -> kill d | None -> ()))
    b.b_instrs;
  (* Branch folding on a known condition. *)
  (match b.b_term with
  | If (c, t, f) -> (
      match const_of (resolve c) with
      | Some (Cbool v) -> b.b_term <- Goto (if v then t else f)
      | _ -> b.b_term <- If (resolve c, t, f))
  | Ret (Some r) -> b.b_term <- Ret (Some (resolve r))
  | _ -> ());
  reset st

(* ------------------------------------------------------------------ *)
(* Liveness-based dead-code elimination, over register bitsets. *)

module Bits = struct
  (* A set of registers [0, n) as 62-bit words. *)
  let words n = (n + 61) / 62

  let create n = Array.make (words n) 0

  let mem s r = s.(r / 62) land (1 lsl (r mod 62)) <> 0

  let add s r = s.(r / 62) <- s.(r / 62) lor (1 lsl (r mod 62))

  let remove s r = s.(r / 62) <- s.(r / 62) land lnot (1 lsl (r mod 62))

  (* [into] := [into] ∪ [s] *)
  let union_into into s =
    for w = 0 to Array.length s - 1 do
      into.(w) <- into.(w) lor s.(w)
    done

  let equal a b =
    let rec go w = w < 0 || (a.(w) = b.(w) && go (w - 1)) in
    go (Array.length a - 1)
end

let dce (m : mir) : int =
  let n = n_blocks m in
  let nregs = m.mir_nregs in
  (* Reachability after branch folding. *)
  let reachable = Array.make n false in
  let rec mark b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter mark (successors m b)
    end
  in
  mark m.mir_entry;
  (* Registers with exactly one definition, and that definition a
     constant: only those are safely known for the Div/Mod-removal
     check. *)
  let def_count = Array.make nregs 0 in
  iter_instrs m (fun _ i ->
      match def i.i_op with
      | Some d -> def_count.(d) <- def_count.(d) + 1
      | None -> ());
  let const_env = Array.make nregs None in
  iter_instrs m (fun _ i ->
      match i.i_op with
      | Const (d, c) when def_count.(d) = 1 -> const_env.(d) <- Some c
      | _ -> ());
  let const_of r = const_env.(r) in
  (* Each block's instructions, last first, with what liveness reads of
     them decoded once: the defined register (or -1), the used
     registers, and whether the instruction may go when its result is
     dead. *)
  let rev_instrs =
    Array.map
      (fun b ->
        List.rev_map
          (fun (i : instr) ->
            ( i,
              (match def i.i_op with Some d -> d | None -> -1),
              uses i.i_op,
              removable_if_dead i.i_op ~const_of ))
          b.b_instrs)
      m.mir_blocks
  in
  let live_in = Array.init n (fun _ -> Bits.create nregs) in
  let live_out b =
    let blk = block m b in
    let s = Bits.create nregs in
    List.iter (Bits.add s) (term_uses blk.b_term);
    List.iter (fun succ -> Bits.union_into s live_in.(succ)) (successors m b);
    s
  in
  (* One backward step over an instruction in [live]; [false] when the
     instruction is dead. *)
  let step live (_, d, us, removable) =
    let keep = (not removable) || d < 0 || Bits.mem live d in
    if d >= 0 then Bits.remove live d;
    if keep then List.iter (Bits.add live) us;
    keep
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      if reachable.(b) then begin
        let live = live_out b in
        List.iter (fun di -> ignore (step live di)) rev_instrs.(b);
        if not (Bits.equal live live_in.(b)) then begin
          live_in.(b) <- live;
          changed := true
        end
      end
    done
  done;
  (* Sweep. *)
  let removed = ref 0 in
  iter_blocks m (fun blk ->
      if not reachable.(blk.b_label) then begin
        removed := !removed + List.length blk.b_instrs;
        blk.b_instrs <- [];
        blk.b_term <- Trap "unreachable"
      end
      else begin
        let live = live_out blk.b_label in
        blk.b_instrs <-
          List.fold_left
            (fun kept ((i, _, _, _) as di) ->
              if step live di then i :: kept
              else begin
                incr removed;
                kept
              end)
            [] rev_instrs.(blk.b_label)
      end);
  !removed

let optimize_mir (m : mir) : int =
  let st = new_state m.mir_nregs in
  iter_blocks m (propagate_block st);
  dce m

let optimize (p : program) : int =
  let n = ref 0 in
  iter_mirs p (fun m -> n := !n + optimize_mir m);
  !n
