module Ir = Drd_ir.Ir
module Dominance = Drd_ir.Dominance
module Ssa = Drd_ir.Ssa
module Vn = Drd_ir.Value_numbering
open Drd_core
open Ir

(* Static weaker-than elimination (paper Section 6.1).

   A trace statement [S_j] is removed when some trace [S_i] in the same
   method is statically weaker: every event of [S_j] is preceded, in the
   same execution, by an event of [S_i] with

     e_i.t = e_j.t   (intraprocedural: same thread),
     e_i.a ⊑ e_j.a   (checked directly on the trace kinds),
     e_i.L ⊆ e_j.L   (via the [outer] synchronization-nesting check),
     e_i.m = e_j.m   (same field and same value number for the object
                      reference; for arrays the array reference's value
                      number alone, since a whole array is one logical
                      location),

   and with no thread start/join between them (Definition 3).

   The [Exec] predicate (Definition 4) is computed as a small dataflow
   automaton per candidate [S_i]: a program point is in state "clean"
   when every path to it passed [S_i] after the last call-like
   instruction (calls, thread start/join, and monitor operations —
   barring monitor operations also makes the lockset-subset argument
   immediate, because the held lockset cannot change between the two
   traces).  [S_j] qualifies iff its entry state is exactly {clean}.
   This subsumes the paper's dominance test: a path reaching [S_j]
   without passing [S_i] keeps its initial "dirty" state. *)

type tr = {
  t_block : int;
  t_index : int;
  t_bar : int; (* index of the last barrier before it in its block, or -1 *)
  t_instr : instr;
  t_trace : trace;
}

(* The traces of a method, and the index of each block's last barrier
   (-1 when it has none). *)
let collect_traces m =
  let acc = ref [] in
  let last_barrier = Array.make (n_blocks m) (-1) in
  iter_blocks m (fun b ->
      List.iteri
        (fun idx i ->
          match i.i_op with
          | Trace t ->
              acc :=
                {
                  t_block = b.b_label;
                  t_index = idx;
                  t_bar = last_barrier.(b.b_label);
                  t_instr = i;
                  t_trace = t;
                }
                :: !acc
          | op -> if is_barrier op then last_barrier.(b.b_label) <- idx)
        b.b_instrs);
  (List.rev !acc, last_barrier)

(* Grouping key for m-equality candidates. *)
type group_key =
  | Gfield of string * int (* declaring class, field index *)
  | Gstatic of int
  | Garray

let group_key t =
  match t.tr_target with
  | Tr_field (_, fm) -> Gfield (fm.fm_class, fm.fm_index)
  | Tr_static sm -> Gstatic sm.sm_slot
  | Tr_array _ -> Garray

(* Is [prefix] a prefix of [l]?  Used for outer(S_i, S_j): S_j is at the
   same synchronization nesting as S_i or deeper within it. *)
let rec is_prefix prefix l =
  match (prefix, l) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

(* m-equality given the value numbers of the object operands.  [vn] is
   forced only for a field or array pair: statics need none, and a
   method with no such pair skips SSA and value numbering entirely. *)
let same_location vn si sj =
  let same_value ri rj =
    let vn = Lazy.force vn in
    match
      (Vn.vn_of_use vn si.t_instr.i_id ri, Vn.vn_of_use vn sj.t_instr.i_id rj)
    with
    | Some a, Some b -> a = b
    | _ -> false
  in
  match (si.t_trace.tr_target, sj.t_trace.tr_target) with
  | Tr_static a, Tr_static b -> a.sm_slot = b.sm_slot
  | Tr_field (oi, fa), Tr_field (oj, fb) ->
      fa.fm_class = fb.fm_class && fa.fm_index = fb.fm_index && same_value oi oj
  | Tr_array (ai, _), Tr_array (aj, _) -> same_value ai aj
  | _ -> false

(* Dataflow states as a bitmask: bit 0 = clean reachable, bit 1 = dirty
   reachable. *)
let clean = 1

let dirty = 2

(* The automaton's step over a stretch of instructions is decided by
   the last of them that is [S_i] or a barrier: [S_i] makes a reachable
   state clean, a barrier makes it dirty, and neither leaves it alone.
   So a block's transfer needs only the position of [S_i] in it and of
   its last barrier, and the state before [S_j] only [S_j]'s [t_bar]. *)

(* For candidate [S_i], compute the automaton state at the entry of each
   block, then decide [Exec(S_i, S_j)] for the given [S_j]s. *)
let exec_states m last_barrier si =
  let n = n_blocks m in
  let entry_state = Array.make n 0 in
  entry_state.(m.mir_entry) <- dirty;
  let transfer_block b state =
    if state = 0 then 0
    else if b = si.t_block && si.t_index > last_barrier.(b) then clean
    else if last_barrier.(b) >= 0 then dirty
    else state
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      if entry_state.(b) <> 0 then begin
        let out = transfer_block b entry_state.(b) in
        List.iter
          (fun s ->
            let merged = entry_state.(s) lor out in
            if merged <> entry_state.(s) then begin
              entry_state.(s) <- merged;
              changed := true
            end)
          (successors m b)
      end
    done
  done;
  entry_state

(* Is the state just before [S_j] exactly clean? *)
let exec_holds entry_state si sj =
  if si.t_instr.i_id = sj.t_instr.i_id then false
  else
    let entry = entry_state.(sj.t_block) in
    entry <> 0
    &&
    if si.t_block = sj.t_block && si.t_index < sj.t_index then
      si.t_index > sj.t_bar
    else sj.t_bar < 0 && entry = clean

let kind_leq = Event.kind_leq

(* Eliminate redundant traces in one method; returns the number of
   traces removed. *)
let eliminate_mir (m : mir) : int =
  let traces, last_barrier = collect_traces m in
  if List.length traces < 2 then 0
  else begin
    let vn = lazy (Vn.compute m (Ssa.compute m)) in
    (* Group by location signature. *)
    let groups = Hashtbl.create 16 in
    List.iter
      (fun t ->
        let k = group_key t.t_trace in
        Hashtbl.replace groups k
          (t :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
      traces;
    let eliminated = Array.make m.mir_next_iid false in
    let n_eliminated = ref 0 in
    Hashtbl.iter
      (fun _ group ->
        let group = List.rev group in
        List.iter
          (fun si ->
            (* Candidates S_j that S_i might cover. *)
            let candidates =
              List.filter
                (fun sj ->
                  sj.t_instr.i_id <> si.t_instr.i_id
                  && (not eliminated.(sj.t_instr.i_id))
                  && kind_leq si.t_trace.tr_kind sj.t_trace.tr_kind
                  && is_prefix si.t_instr.i_sync sj.t_instr.i_sync
                  && same_location vn si sj)
                group
            in
            if candidates <> [] then begin
              let states = exec_states m last_barrier si in
              List.iter
                (fun sj ->
                  if exec_holds states si sj then begin
                    eliminated.(sj.t_instr.i_id) <- true;
                    incr n_eliminated
                  end)
                candidates
            end)
          group)
      groups;
    if !n_eliminated > 0 then
      iter_blocks m (fun b ->
          b.b_instrs <- List.filter (fun i -> not eliminated.(i.i_id)) b.b_instrs);
    !n_eliminated
  end

let eliminate (p : program) : int =
  let n = ref 0 in
  iter_mirs p (fun m -> n := !n + eliminate_mir m);
  !n
